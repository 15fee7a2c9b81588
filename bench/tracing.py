"""Per-layer tracing for the benchmark: spans and a stack sampler.

Two instruments, both used only in the extra traced pass that
``run.py --trace 1`` adds, so end-to-end numbers are measured with
tracing off:

* :class:`Tracer` records spans in memory around the benchmark's own
  calls into each layer (name, start, end, parent span, op id). A
  span's self time is its duration minus its direct children's.
* :class:`StackSampler` is a time-proportional statistical profiler
  over the simulator's Python stacks: ``ITIMER_PROF`` delivers
  ``SIGPROF`` every millisecond of process CPU time (or at the kernel's
  timer resolution, if coarser) and the handler walks the interrupted
  stack. The innermost ``repro`` frame names the
  layer; the innermost ``repro/uarch/core.py`` frame that is a stage
  entry point names the core pipeline stage. It puts no code in the
  simulator's hot loop.
"""

from __future__ import annotations

import json
import signal
import time
from collections import Counter
from contextlib import contextmanager, nullcontext

#: Layers, in report order. Every stack sample lands in exactly one.
LAYERS = (
    "isa", "uarch", "memory", "branch", "core.samplers", "core",
    "backends", "workloads", "engine", "obs", "other",
)

#: Sub-layers reported as shares of all samples (they overlap layers).
SUBLAYERS = ("isa.compile", "backends.warmup")

#: Core pipeline stages, in report order.
STAGES = (
    "fetch", "dispatch", "issue", "events", "commit", "sample", "drain",
    "ff", "loop",
)

#: ``Core`` methods that enter a stage. Any other ``core.py`` frame
#: defers to its caller; a stack with no entry point is ``loop``
#: (``step``/``run`` bookkeeping, set-up and finish).
STAGE_OF = {
    "_fetch": "fetch",
    "_handle_control": "fetch",
    "_dispatch": "dispatch",
    "_rename": "dispatch",
    "_issue": "issue",
    "_try_execute": "issue",
    "_execute_load": "issue",
    "_execute_store": "issue",
    "_process_events": "events",
    "_commit": "commit",
    "_account_commit": "commit",
    "_poll_samplers": "sample",
    "add_drain_waiter": "sample",
    "add_dispatch_tag": "sample",
    "add_fetch_tag": "sample",
    "_start_drain": "drain",
    "_fast_forward": "ff",
    "_attribute_skip": "ff",
}

_COMPILE_FUNCS = ("_compile_program", "_compile_inst")

#: Seconds of process CPU time between stack samples.
SAMPLE_INTERVAL_S = 0.001


def classify_frame(
    filename: str, qualname: str
) -> tuple[str | None, bool, str | None, str | None]:
    """Map one code location to ``(layer, in_core, stage, sublayer)``.

    ``layer`` is None outside the ``repro`` package (the caller keeps
    walking outwards); ``in_core`` marks methods of ``Core`` in
    ``repro/uarch/core.py``, and ``stage`` is the stage the method
    enters, if any.
    """
    path = filename.replace("\\", "/")
    marker = path.rfind("/repro/")
    if marker < 0:
        return None, False, None, None
    parts = path[marker + len("/repro/"):].split("/")
    package = parts[0] if len(parts) > 1 else ""
    module = parts[-1].removesuffix(".py")
    if package == "core" and module == "samplers":
        layer = "core.samplers"
    elif package in LAYERS:
        layer = package
    else:
        layer = "other"
    in_core = (package == "uarch" and module == "core"
               and qualname.startswith("Core."))
    stage = STAGE_OF.get(qualname.removeprefix("Core.")) if in_core else None
    sublayer = None
    if package == "isa" and qualname in _COMPILE_FUNCS:
        sublayer = "isa.compile"
    elif package == "backends" and module == "warmup":
        sublayer = "backends.warmup"
    return layer, in_core, stage, sublayer


def classify_stack(
    frames: list[tuple[str, str]],
) -> tuple[str, str | None, frozenset[str]]:
    """Classify a stack given innermost-first ``(filename, qualname)``.

    Returns ``(layer, stage, sublayers)``; ``stage`` is None when no
    frame is in the core.
    """
    layer = None
    stage = None
    in_core = False
    subs = set()
    for filename, qualname in frames:
        f_layer, f_core, f_stage, f_sub = classify_frame(filename, qualname)
        if layer is None:
            layer = f_layer
        if f_core:
            in_core = True
            if stage is None:
                stage = f_stage
        if f_sub:
            subs.add(f_sub)
    if in_core and stage is None:
        stage = "loop"
    return layer or "other", stage, frozenset(subs)


class StackSampler:
    """``ITIMER_PROF`` stack sampler; a context manager."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()
        #: Seconds spent inside the signal handler: the sampler's cost.
        self.busy_s = 0.0
        self._memo: dict = {}
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        memo = self._memo
        stack = []
        while frame is not None:
            code = frame.f_code
            stack.append(code)
            frame = frame.f_back
        key = tuple(stack)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = classify_stack(
                [(c.co_filename, c.co_qualname) for c in stack]
            )
        self.counts[hit] += 1
        self.busy_s += time.perf_counter() - start

    def __enter__(self) -> "StackSampler":
        self._previous = signal.signal(signal.SIGPROF, self._handler)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._previous or signal.SIG_DFL)

    @property
    def samples(self) -> int:
        """Stack samples taken."""
        return sum(self.counts.values())

    def shares(self) -> dict[str, float]:
        """Percent of samples per layer, sub-layer and core stage.

        Layer shares sum to 100 over all samples; stage shares sum to
        100 over the samples that have a core frame on the stack.
        """
        total = self.samples
        layer = Counter()
        stage = Counter()
        sub = Counter()
        for (lay, stg, subs), n in self.counts.items():
            layer[lay] += n
            if stg is not None:
                stage[stg] += n
            for s in subs:
                sub[s] += n
        in_core = sum(stage.values())
        out = {}
        for name in LAYERS:
            out[f"{name}.share"] = 100.0 * layer[name] / total if total else 0.0
        for name in SUBLAYERS:
            out[f"{name}.share"] = 100.0 * sub[name] / total if total else 0.0
        for name in STAGES:
            out[f"uarch.stage.{name}.share"] = (
                100.0 * stage[name] / in_core if in_core else 0.0
            )
        return out


class Tracer:
    """In-memory span recorder.

    Each span is ``[name, start, end, parent index, op id]``; spans of
    one operation share its op id, inherited from the enclosing span.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: str | None = None):
        parent = self._open[-1] if self._open else -1
        if op is None and parent >= 0:
            op = self.spans[parent][4]
        record = [name, time.perf_counter(), 0.0, parent, op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, fn, name: str):
        """*fn* with every call recorded as a span named *name*."""
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def totals(self, name: str) -> tuple[int, float]:
        """``(calls, total seconds)`` of the spans named *name*."""
        durations = [s[2] - s[1] for s in self.spans if s[0] == name]
        return len(durations), sum(durations)

    def mean(self, name: str) -> float:
        """Mean seconds per span named *name* (0 when none)."""
        calls, total = self.totals(name)
        return total / calls if calls else 0.0

    def self_times(self) -> dict[str, float]:
        """Total self seconds per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for index, (name, start, end, _parent, _op) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[index]
        return out


class NullTracer:
    """The tracer used when tracing is off: spans cost one ``with``."""

    def span(self, name: str, op: str | None = None):
        return nullcontext()


@contextmanager
def instrumented(tracer: Tracer):
    """Record spans inside the engine's calls into the store and the
    workload and payload layers for the duration of the block."""
    import repro.engine.engine as engine_mod
    from repro.engine.store import RunStore

    patches = [
        (engine_mod, "build_workload", "workloads.build"),
        (engine_mod, "run_from_payload", "engine.payload_decode"),
        (RunStore, "load", "engine.store_load"),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    save = RunStore.save

    def traced_save(store, spec, payload):
        # RunStore.save encodes inside one call; encoding once more on
        # its own is how the encode share is measured.
        with tracer.span("engine.payload_encode"):
            json.dumps(payload, separators=(",", ":"))
        with tracer.span("engine.store_save"):
            return save(store, spec, payload)

    for owner, attr, name in patches:
        setattr(owner, attr, tracer.wrap(getattr(owner, attr), name))
    RunStore.save = traced_save
    try:
        yield
    finally:
        RunStore.save = save
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
