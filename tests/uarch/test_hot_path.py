"""The hot paths read no enum member through its class.

On Python 3.11 ``EnumType`` defines ``__getattr__``, which keeps
CPython from specialising a load such as ``OpClass.SERIAL``: each one
costs ~110 ns where a module global costs ~10 ns, and the per-µop path
would pay it several times per committed instruction. The functions
below -- the detailed core's per-µop path, the interpreter's
record-free drive and the compilers it calls per executed pc and per
block, and ``CoreConfig.queue_of``, which every ``Core`` calls per
opcode -- read module constants bound at import (``_SERIAL =
OpClass.SERIAL``) or tables keyed by member instead.
"""

import enum
import types

import pytest

from repro.backends.warmup import warm_window_state
from repro.core.samplers import NciTeaSampler, TeaSampler
from repro.isa import interpreter
from repro.uarch.config import CoreConfig
from repro.uarch.core import Core
from repro.uarch.uop import Uop

ENUM_CLASSES = frozenset({"OpClass", "Opcode", "CommitState", "Event"})

CORE_METHODS = (
    "step", "_fetch", "_dispatch", "_issue", "_process_events", "_commit",
    "_execute_load", "_execute_store", "_handle_control", "_start_drain",
    "_fast_forward", "_squash_younger_than",
)

HOT_FUNCTIONS = [getattr(Core, name) for name in CORE_METHODS] + [
    Uop.__init__, warm_window_state, TeaSampler.sample, NciTeaSampler.sample,
    interpreter.Interpreter.advance, interpreter._compile_inst,
    interpreter._compile_block, interpreter._inst_source,
    CoreConfig.queue_of,
]


def _code_objects(code: types.CodeType):
    """*code* and every lambda, comprehension or nested def inside it."""
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _code_objects(const)


def enum_classes_read(func) -> set[str]:
    """Enum classes whose names *func*'s code loads."""
    found = set()
    for code in _code_objects(func.__code__):
        for name in code.co_names:
            if name in ENUM_CLASSES or isinstance(
                func.__globals__.get(name), enum.EnumMeta
            ):
                found.add(name)
    return found


@pytest.mark.parametrize("func", HOT_FUNCTIONS,
                         ids=lambda f: f.__qualname__)
def test_hot_function_reads_no_enum_class(func):
    assert enum_classes_read(func) == set()


def test_check_sees_enum_reads():
    # The frozen reference loop keeps its class reads; the check must
    # see them, or the test above would pass vacuously.
    assert enum_classes_read(Core._commit_reference) == {"OpClass"}
    assert enum_classes_read(Core._classify) == {"CommitState"}
