"""Trace plane: one columnar store for samples and cycle traces.

In the paper, the sampling interrupt handler writes each TEA sample
(timestamp, flags, instruction address(es), PSV(s) -- 88 bytes) to a
memory buffer that is flushed to a file; a post-processing tool turns the
file into PICS. TraceDoctor cycle traces are likewise processed
out-of-band. Both streams land in one place here:

* :mod:`repro.trace.store` -- :class:`TraceStore`, the structure-of-
  arrays ``TEACOL1`` database: a core's ``cycle_trace=`` sink and, via
  :meth:`TraceStore.sampler_sink`, every sampler's capture sink;
  saved to and mmap-loaded from one file;
* :mod:`repro.trace.cycletrace` -- the records the store hands back
  (:meth:`TraceStore.cycle_records`) and :func:`replay_golden`, the
  independent offline golden-attribution oracle;
* :mod:`repro.trace.query` -- :class:`TraceQuery` over a store
  (golden attribution, group-by, top-k, flush histograms, cross-run
  diff), surfaced as ``tea-repro query``.

The package records and reads traces; it does not run them. A run's
trace comes from the engine like the run itself:
:meth:`repro.engine.Engine.trace` simulates a spec once with a store
attached and keeps it as a ``.teacol`` sidecar next to the stored
payload, keyed by the spec hash.
"""

from repro.trace.cycletrace import (
    CommitRecord,
    CyclesRecord,
    replay_golden,
)
from repro.trace.store import (
    ColumnSampleSink,
    ColumnTable,
    StringPool,
    TraceStore,
)
from repro.trace.query import (
    DiffReport,
    DiffRow,
    TraceQuery,
    diff_attribution,
    flush_cause,
    group_attribution,
    top_k,
)

__all__ = [
    "CommitRecord",
    "CyclesRecord",
    "replay_golden",
    "ColumnSampleSink",
    "ColumnTable",
    "StringPool",
    "TraceStore",
    "DiffReport",
    "DiffRow",
    "TraceQuery",
    "diff_attribution",
    "flush_cause",
    "group_attribution",
    "top_k",
]
