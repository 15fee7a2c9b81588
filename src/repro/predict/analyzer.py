"""Per-block analytical bounds and the whole-program prediction.

For every basic block the analyzer computes three bound families and
declares the largest one *binding*:

* **throughput** -- issue-bandwidth pressure per queue (int/mem/fp)
  plus the commit and front-end pseudo-queues;
* **latency** -- the loop recurrence for self-loop blocks, the
  critical path for straight-line blocks, and the exposed pipeline
  refill after serializing instructions;
* **capacity** -- cycles forced by finite ROB/issue-queue/LSQ windows
  when the latency chain is long enough that full overlap would need
  more in-flight instructions than the core can hold.

All bounds are cycles *per block execution*; dividing by the block
size gives the predicted CPI. The whole-program summary weighs blocks
by instruction count only -- static analysis has no trip counts, a
documented bias the refine loop measures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.opcodes import CONTROL_OPS, OpClass
from repro.isa.program import Program
from repro.uarch.config import CoreConfig
from repro.predict.depgraph import BlockDepGraph
from repro.predict.ports import COMMIT, FRONTEND, PortModel

#: Commit-state vocabulary keys (matches ``CommitState`` names).
STATE_KEYS = ("compute", "stalled", "drained", "flushed")


@dataclass(frozen=True)
class Bound:
    """One analytical bound on a block's execution time.

    Attributes:
        name: Unique bound name, e.g. ``"throughput:mem"``.
        kind: Bound family: ``"throughput"``, ``"latency"``,
            ``"capacity"``, ``"commit"``, ``"frontend"``, ``"flush"``.
        cycles: Cycles per block execution this bound enforces.
        detail: Human-readable justification.
        insts: Program indices of the implicated instructions.
    """

    name: str
    kind: str
    cycles: float
    detail: str
    insts: tuple[int, ...] = ()


@dataclass
class BlockPrediction:
    """Analytical prediction for one basic block.

    Attributes:
        leader: Leader instruction index (the block id).
        end: One past the last instruction index.
        function: Enclosing function name.
        size: Instruction count.
        is_loop: True when the block branches back to its own leader.
        bounds: Every computed bound, in evaluation order.
        binding: The bound with the largest cycle count.
        cycles: Predicted cycles per block execution (= binding).
        cpi: Predicted CPI (= cycles / size).
        queue_pressure: Issue pressure per queue, cycles per pass.
        critical_path: Intra-iteration latency chain, cycles.
        recurrence: Loop-carried recurrence, cycles (0 if none).
        states: Predicted commit-state decomposition of *cycles*,
            keyed by the PICS vocabulary (compute / stalled / drained
            / flushed) -- what the refine loop diffs against measured
            cycle stacks.
    """

    leader: int
    end: int
    function: str
    size: int
    is_loop: bool
    bounds: tuple[Bound, ...]
    binding: Bound
    cycles: float
    cpi: float
    queue_pressure: dict[str, float]
    critical_path: float
    recurrence: float
    states: dict[str, float] = field(default_factory=dict)


@dataclass
class ProgramPrediction:
    """Whole-program analytical prediction.

    Attributes:
        program: The analyzed program (kept for rendering/grouping).
        model: The port model the bounds were derived from.
        blocks: Per-block predictions keyed by leader index.
    """

    program: Program
    model: PortModel
    blocks: dict[int, BlockPrediction]

    def block_of(self, index: int) -> BlockPrediction:
        """Prediction for the block containing instruction *index*."""
        return self.blocks[self.program.bb_of(index)]

    @property
    def weighted_cpi(self) -> float:
        """Size-weighted mean predicted CPI over all blocks.

        Static analysis has no trip counts, so every block weighs by
        its instruction count; loop-heavy programs will differ from
        the measured whole-program CPI (known bias).
        """
        total_insts = sum(b.size for b in self.blocks.values())
        total_cycles = sum(b.cycles for b in self.blocks.values())
        return total_cycles / total_insts if total_insts else 0.0

    @property
    def bottlenecks(self) -> dict[str, int]:
        """Histogram of binding-bound kinds over all blocks."""
        hist: dict[str, int] = {}
        for block in self.blocks.values():
            hist[block.binding.kind] = hist.get(block.binding.kind, 0) + 1
        return dict(sorted(hist.items()))


def _block_extents(program: Program) -> list[tuple[int, int]]:
    """``(leader, end)`` extents of every basic block, in order."""
    extents: list[tuple[int, int]] = []
    for pos, leader in enumerate(program.basic_blocks):
        if not extents or extents[-1][0] != leader:
            extents.append((leader, pos + 1))
        else:
            extents[-1] = (leader, pos + 1)
    return extents


def _is_self_loop(program: Program, leader: int, end: int) -> bool:
    """True when the block's terminator jumps back to its own leader."""
    last = program[end - 1]
    return last.op in CONTROL_OPS and last.target == leader


def _predict_block(
    program: Program,
    model: PortModel,
    leader: int,
    end: int,
) -> BlockPrediction:
    insts = program[leader:end]
    costs = model.block_costs(insts)
    is_loop = _is_self_loop(program, leader, end)
    graph = BlockDepGraph.build(insts, costs, loop=is_loop)
    pressure = model.queue_pressure(costs)
    cp_cycles, cp_chain = graph.critical_path()
    rec_cycles, rec_chain = graph.recurrence()
    config = model.config
    n = len(insts)

    bounds: list[Bound] = []
    for queue in ("int", "mem", "fp"):
        if queue not in pressure:
            continue
        members = tuple(c.index for c in costs if c.queue == queue)
        bounds.append(
            Bound(
                name=f"throughput:{queue}",
                kind="throughput",
                cycles=pressure[queue],
                detail=(
                    f"{len(members)} op(s) over the {queue} queue's "
                    f"issue width of {config.issue_width[queue]}"
                ),
                insts=members,
            )
        )

    if is_loop and rec_cycles > 0:
        bounds.append(
            Bound(
                name="latency:recurrence",
                kind="latency",
                cycles=rec_cycles,
                detail=(
                    "loop-carried dependency chain of "
                    f"{len(rec_chain)} op(s)"
                ),
                insts=tuple(leader + pos for pos in rec_chain),
            )
        )
    elif not is_loop:
        bounds.append(
            Bound(
                name="latency:critical-path",
                kind="latency",
                cycles=cp_cycles,
                detail=(
                    f"critical path of {len(cp_chain)} op(s) with no "
                    "self-overlap"
                ),
                insts=tuple(leader + pos for pos in cp_chain),
            )
        )

    serial = tuple(
        c.index for c in costs if c.op_class is OpClass.SERIAL
    )
    if serial:
        refill = config.redirect_penalty + config.frontend_depth
        bounds.append(
            Bound(
                name="flush:serial",
                kind="flush",
                cycles=pressure[COMMIT] + len(serial) * refill,
                detail=(
                    f"{len(serial)} serializing op(s), each exposing a "
                    f"{refill}-cycle pipeline refill"
                ),
                insts=serial,
            )
        )

    all_insts = tuple(range(leader, end))
    bounds.append(
        Bound(
            name="commit",
            kind="commit",
            cycles=pressure[COMMIT],
            detail=f"{n} op(s) over commit width {config.commit_width}",
            insts=all_insts,
        )
    )
    bounds.append(
        Bound(
            name="frontend",
            kind="frontend",
            cycles=pressure[FRONTEND],
            detail=f"{n} op(s) over decode width {config.decode_width}",
            insts=all_insts,
        )
    )

    # Capacity: sustaining one block pass per `window` cycles needs
    # `occupancy * n / window` in-flight slots; inverted, a resource
    # with R slots forces at least occupancy * count / R cycles.
    occupancy = max(cp_cycles, rec_cycles)
    loads = tuple(
        c.index for c in costs if c.op_class is OpClass.LOAD
    )
    stores = tuple(
        c.index for c in costs if c.op_class is OpClass.STORE
    )
    for name, count, slots, members in (
        ("rob", n, config.rob_entries, all_insts),
        ("lq", len(loads), config.load_queue_entries, loads),
        ("sq", len(stores), config.store_queue_entries, stores),
    ):
        if count == 0 or slots <= 0:
            continue
        bounds.append(
            Bound(
                name=f"capacity:{name}",
                kind="capacity",
                cycles=occupancy * count / slots,
                detail=(
                    f"{count} op(s) occupying the {slots}-entry "
                    f"{name} for ~{occupancy:.0f} cycles"
                ),
                insts=members,
            )
        )

    binding = max(bounds, key=lambda b: b.cycles)
    cycles = binding.cycles
    compute = min(cycles, pressure[COMMIT])
    flushed = (
        cycles - compute if binding.kind == "flush" else 0.0
    )
    drained = (
        cycles - compute if binding.kind == "frontend" else 0.0
    )
    stalled = max(0.0, cycles - compute - flushed - drained)
    states = {
        "compute": compute,
        "stalled": stalled,
        "drained": drained,
        "flushed": flushed,
    }

    return BlockPrediction(
        leader=leader,
        end=end,
        function=program.func_of(leader),
        size=n,
        is_loop=is_loop,
        bounds=tuple(bounds),
        binding=binding,
        cycles=cycles,
        cpi=cycles / n,
        queue_pressure=pressure,
        critical_path=cp_cycles,
        recurrence=rec_cycles,
        states=states,
    )


def predict_program(
    program: Program,
    config: CoreConfig | None = None,
    model: PortModel | None = None,
) -> ProgramPrediction:
    """Statically predict every basic block of *program*.

    Args:
        program: The assembled program to analyze.
        config: Core configuration; defaults to the paper baseline.
            Ignored when *model* is given.
        model: An explicit :class:`PortModel` (e.g. a sabotaged one).

    Returns:
        A :class:`ProgramPrediction` with one entry per basic block;
        every block gets a full bound set and a binding bottleneck.
    """
    if model is None:
        model = PortModel(config) if config is not None else PortModel()
    blocks = {
        leader: _predict_block(program, model, leader, end)
        for leader, end in _block_extents(program)
    }
    return ProgramPrediction(program=program, model=model, blocks=blocks)
