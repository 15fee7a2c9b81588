"""repro: a reproduction of "TEA: Time-Proportional Event Analysis"
(Gottschall, Eeckhout, Jahre -- ISCA 2023).

TEA explains *why* an out-of-order core spends time on each static
instruction by building time-proportional Per-Instruction Cycle Stacks
(PICS) from Performance Signature Vectors (PSVs) sampled at the commit
stage. This package contains the full system: a BOOM-class out-of-order
core timing model, the nine-event PSV machinery, the TEA / NCI-TEA /
IBS / SPE / RIS samplers and the golden reference, PICS construction and
error analysis, twelve SPEC-CPU2017-like workloads, and one experiment
module per paper table/figure.

Quickstart::

    from repro import simulate, make_sampler, pics_error
    from repro.workloads import build

    wl = build("lbm")
    tea = make_sampler("TEA", period=293)
    result = simulate(wl.program, samplers=[tea],
                      arch_state=wl.fresh_state())
    print(pics_error(tea.profile(), result.golden_profile()))
"""

from repro.core.error import error_at_granularity, pics_error
from repro.core.events import EVENT_SETS, Event, event_mask
from repro.core.pics import Granularity, PicsProfile
from repro.core.psv import decode_psv, is_combined, signature_name
from repro.core.report import render_comparison, render_top
from repro.core.result import CoreResult
from repro.core.samplers import GoldenReference, Sampler, make_sampler
from repro.core.states import CommitState
from repro.isa import Interpreter, Program, ProgramBuilder
from repro.uarch import Core, CoreConfig, simulate

__version__ = "1.0.0"

__all__ = [
    "CommitState",
    "Core",
    "CoreConfig",
    "CoreResult",
    "EVENT_SETS",
    "Event",
    "GoldenReference",
    "Granularity",
    "Interpreter",
    "PicsProfile",
    "Program",
    "ProgramBuilder",
    "Sampler",
    "decode_psv",
    "error_at_granularity",
    "event_mask",
    "is_combined",
    "make_sampler",
    "pics_error",
    "render_comparison",
    "render_top",
    "signature_name",
    "simulate",
    "__version__",
]
