"""Analytical throughput prediction over ISA programs (no simulation).

The OSACA-style static tier of the ROADMAP item "The static predictor
states its error, and ``refine`` judges the whole program": decompose a
:class:`~repro.isa.program.Program` into basic blocks, classify every
instruction into the issue queue / latency model that
:class:`~repro.uarch.config.CoreConfig` implies, build intra- and
loop-carried dependency graphs, and report per-block and whole-program
throughput / latency / capacity bounds with a binding bottleneck --
without executing a single simulated cycle.

``repro.predict.refine`` layers the CounterPoint-style escalation tier
on top: it runs the detailed cycle model (through the engine/store, so
warm comparisons are free) and emits structured *refutations* where the
analytical assumptions break. It is the only module of this package
allowed to touch the simulator; everything else is simulation-free by
construction, enforced by tea-lint rule TL008 (``predict-purity``).
"""

from repro.predict.analyzer import (
    BlockPrediction,
    Bound,
    ProgramPrediction,
    predict_program,
)
from repro.predict.depgraph import BlockDepGraph, DepEdge
from repro.predict.ports import InstCost, PortModel
from repro.predict.report import (
    prediction_to_json,
    render_prediction,
    validate_prediction_doc,
    validate_refine_doc,
)

__all__ = [
    "BlockDepGraph",
    "BlockPrediction",
    "Bound",
    "DepEdge",
    "InstCost",
    "PortModel",
    "ProgramPrediction",
    "predict_program",
    "prediction_to_json",
    "render_prediction",
    "validate_prediction_doc",
    "validate_refine_doc",
]
