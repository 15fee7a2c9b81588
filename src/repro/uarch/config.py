"""Core configuration: the paper's baseline BOOM parameters (Table 2)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.branch.predictor import BranchPredictorConfig
from repro.isa.opcodes import OpClass
from repro.memory.hierarchy import MemoryConfig


#: The issue queue of every operation class outside the "int" queue: a
#: table, so ``queue_of`` reads no ``OpClass`` member through its class.
_QUEUE_OF = {
    OpClass.LOAD: "mem",
    OpClass.STORE: "mem",
    OpClass.PREFETCH: "mem",
    OpClass.FP_ADD: "fp",
    OpClass.FP_MUL: "fp",
    OpClass.FP_DIV: "fp",
    OpClass.FP_SQRT: "fp",
}


@dataclass
class CoreConfig:
    """Parameters of the simulated out-of-order core.

    Defaults follow Table 2 of the paper: a 4-way superscalar BOOM at
    3.2 GHz with an 8-wide front end, 192-entry ROB, and a 64-entry
    load/store queue.
    """

    # Front end.
    fetch_width: int = 8
    fetch_buffer_entries: int = 48
    decode_width: int = 4
    frontend_depth: int = 4  # cycles from fetch to earliest dispatch
    btb_miss_penalty: int = 2
    redirect_penalty: int = 3  # flush/mispredict fetch-redirect bubble

    # Back end.
    rob_entries: int = 192
    commit_width: int = 4
    int_queue_entries: int = 80
    int_issue_width: int = 4
    mem_queue_entries: int = 48
    mem_issue_width: int = 2
    fp_queue_entries: int = 48
    fp_issue_width: int = 2

    # Load/store unit. Table 2: 64-entry load/store queue; we split it
    # evenly between loads and stores.
    load_queue_entries: int = 32
    store_queue_entries: int = 32

    # Execution latencies per operation class.
    latencies: dict[OpClass, int] = field(
        default_factory=lambda: {
            OpClass.NOP: 1,
            OpClass.INT_ALU: 1,
            OpClass.INT_MUL: 3,
            OpClass.INT_DIV: 16,
            OpClass.FP_ADD: 4,
            OpClass.FP_MUL: 4,
            OpClass.FP_DIV: 16,
            OpClass.FP_SQRT: 24,
            OpClass.STORE: 1,
            OpClass.PREFETCH: 1,
            OpClass.BRANCH: 1,
            OpClass.JUMP: 1,
            OpClass.SERIAL: 1,
            OpClass.HALT: 1,
        }
    )
    #: Unpipelined operation classes (one in flight per unit).
    unpipelined: frozenset[OpClass] = frozenset(
        {OpClass.INT_DIV, OpClass.FP_DIV, OpClass.FP_SQRT}
    )

    # Substrates.
    memory: MemoryConfig = field(default_factory=MemoryConfig)
    branch: BranchPredictorConfig = field(
        default_factory=BranchPredictorConfig
    )

    # Paper-facing metadata (used by the overhead models).
    clock_ghz: float = 3.2
    psv_bits: int = 9

    def queue_of(self, op_class: OpClass) -> str:
        """Issue queue ("int" / "mem" / "fp") for an operation class."""
        return _QUEUE_OF.get(op_class, "int")

    @property
    def queue_capacity(self) -> dict[str, int]:
        """Issue-queue capacities by queue name."""
        return {
            "int": self.int_queue_entries,
            "mem": self.mem_queue_entries,
            "fp": self.fp_queue_entries,
        }

    @property
    def issue_width(self) -> dict[str, int]:
        """Issue widths by queue name."""
        return {
            "int": self.int_issue_width,
            "mem": self.mem_issue_width,
            "fp": self.fp_issue_width,
        }
