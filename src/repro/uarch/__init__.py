"""Cycle-level model of a BOOM-class 4-wide out-of-order core.

This is the reproduction's substitute for the paper's FireSim/FPGA BOOM
RTL (see DESIGN.md): a trace-driven, cycle-stepped timing model with the
structures TEA's evaluation exercises -- fetch packets and a fetch buffer,
a 192-entry ROB, per-class issue queues, a load/store queue with
store-to-load forwarding and memory-ordering-violation detection, post-
commit store draining, full flush machinery, and per-cycle commit-state
classification with golden-reference attribution built in.
"""

from repro.uarch.config import CoreConfig
from repro.uarch.uop import Uop
from repro.core.result import CoreResult
from repro.uarch.core import Core, simulate
from repro.uarch.multicore import CoreSlot, MultiCoreSystem, co_run
from repro.uarch.presets import PRESETS, preset
from repro.uarch.summary import render_summary

__all__ = [
    "CoreConfig",
    "Uop",
    "Core",
    "CoreResult",
    "simulate",
    "CoreSlot",
    "MultiCoreSystem",
    "co_run",
    "PRESETS",
    "preset",
    "render_summary",
]
