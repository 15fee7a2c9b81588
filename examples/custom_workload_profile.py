#!/usr/bin/env python3
"""Profile your own kernel: builder, granularities, and sample logs.

Shows the full user-facing workflow on a custom program:

* assemble a kernel with :class:`ProgramBuilder` (functions included),
* simulate with a TEA sampler that streams its captures into the
  columnar trace store, saved as a ``.teacol`` file (the paper's
  perf-buffer path),
* rebuild the profile offline from the loaded file,
* aggregate PICS at function granularity and render both views.

Run:  python examples/custom_workload_profile.py
"""

import tempfile
from pathlib import Path

from repro import (
    Granularity,
    PicsProfile,
    ProgramBuilder,
    make_sampler,
    render_top,
    simulate,
)
from repro.trace import TraceStore


def build_program():
    """Two phases: a pointer-ish scan and a compute-heavy reduction."""
    b = ProgramBuilder("custom")
    b.function("main")
    b.li("x1", 600)
    b.label("outer")
    b.call("scan")
    b.call("reduce")
    b.addi("x1", "x1", -1)
    b.bne("x1", "x0", "outer")
    b.halt()

    b.function("scan")
    b.label("scan")
    b.load("x3", "x2", 1 << 26)  # cold-ish stride: cache events
    b.addi("x2", "x2", 4160)
    b.add("x4", "x4", "x3")
    b.ret()

    b.function("reduce")
    b.label("reduce")
    b.fcvt("f1", "x4")
    b.fmul("f2", "f1", "f1")  # FP latency chain
    b.fadd("f3", "f3", "f2")
    b.ret()
    return b.build()


def main():
    program = build_program()
    tea = make_sampler("TEA", period=97)

    store = TraceStore()
    tea.sink = store.sampler_sink("TEA")  # stream captures to the store
    result = simulate(program, samplers=[tea])
    tea.sink = None

    with tempfile.TemporaryDirectory() as tmp:
        log_path = store.save(Path(tmp) / "tea_samples.teacol")
        size = log_path.stat().st_size
        with TraceStore.load(log_path) as loaded:
            offline = PicsProfile.from_raw("TEA", loaded.raw_profile("TEA"))

    print(f"simulated {result.cycles:,} cycles "
          f"({result.committed:,} instructions)")
    print(f"sample log: {size:,} bytes, "
          f"{tea.samples_taken} captures\n")

    print("--- instruction-granularity PICS (rebuilt from the log) ---")
    print(render_top(offline, n=4, program=program))

    by_function = offline.aggregate(program, Granularity.FUNCTION)
    print("\n--- function-granularity PICS ---")
    print(render_top(by_function, n=3, program=program))

    sanity = offline.total() - tea.profile().total()
    print(f"\noffline vs in-memory total difference: {sanity:.1f} cycles "
          "(must be 0)")


if __name__ == "__main__":
    main()
