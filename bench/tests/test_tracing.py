"""The frame -> layer / stage mapping of the stack sampler."""

import pytest

from tracing import LAYERS, STAGES, StackSampler, Tracer, classify_frame, \
    classify_stack

SRC = "/x/src/repro"


@pytest.mark.parametrize("filename, func, layer", [
    (f"{SRC}/isa/interpreter.py", "h", "isa"),
    (f"{SRC}/isa/semantics.py", "take", "isa"),
    (f"{SRC}/uarch/core.py", "Core.step", "uarch"),
    (f"{SRC}/uarch/uop.py", "__init__", "uarch"),
    (f"{SRC}/memory/hierarchy.py", "load_fast", "memory"),
    (f"{SRC}/branch/predictor.py", "predict", "branch"),
    (f"{SRC}/core/samplers.py", "sample", "core.samplers"),
    (f"{SRC}/core/error.py", "pics_error", "core"),
    (f"{SRC}/backends/sampled.py", "_fast_forward", "backends"),
    (f"{SRC}/workloads/gcc.py", "build_gcc", "workloads"),
    (f"{SRC}/engine/store.py", "load", "engine"),
    (f"{SRC}/obs/progress.py", "report_progress", "obs"),
    (f"{SRC}/trace/store.py", "load", "other"),
    (f"{SRC}/cli.py", "main", "other"),
    ("/usr/lib/python3.11/json/encoder.py", "encode", None),
])
def test_frame_layer(filename, func, layer):
    assert classify_frame(filename, func)[0] == layer


@pytest.mark.parametrize("method, stage", [
    ("_fetch", "fetch"), ("_handle_control", "fetch"),
    ("_dispatch", "dispatch"), ("_rename", "dispatch"),
    ("_issue", "issue"), ("_execute_load", "issue"),
    ("_process_events", "events"), ("_commit", "commit"),
    ("_poll_samplers", "sample"), ("_start_drain", "drain"),
    ("_fast_forward", "ff"), ("_attribute_skip", "ff"),
    ("step", None), ("_squash_younger_than", None),
])
def test_core_stage(method, stage):
    _layer, in_core, got, _sub = classify_frame(
        f"{SRC}/uarch/core.py", f"Core.{method}"
    )
    assert in_core and got == stage


def test_only_core_methods_are_core_frames():
    # CoreResult lives in core.py too; rebuilding one from a stored
    # payload is not time in the core's pipeline.
    assert classify_frame(f"{SRC}/uarch/core.py", "CoreResult.__init__") \
        == ("uarch", False, None, None)
    assert classify_frame(f"{SRC}/uarch/core.py", "simulate")[1] is False


def test_stack_takes_innermost_repro_frame_and_stage_entry():
    stack = [  # innermost first
        ("/usr/lib/python3.11/heapq.py", "heappush"),
        (f"{SRC}/memory/cache.py", "access"),
        (f"{SRC}/memory/hierarchy.py", "load"),
        (f"{SRC}/uarch/core.py", "Core._squash_younger_than"),
        (f"{SRC}/uarch/core.py", "Core._execute_load"),
        (f"{SRC}/uarch/core.py", "Core._issue"),
        (f"{SRC}/uarch/core.py", "Core.step"),
        (f"{SRC}/backends/sampled.py", "_run_window"),
    ]
    assert classify_stack(stack) == ("memory", "issue", frozenset())


def test_stack_without_stage_entry_is_loop_and_sublayers_tag():
    stack = [
        (f"{SRC}/isa/interpreter.py", "_compile_inst"),
        (f"{SRC}/isa/interpreter.py", "_compile_program"),
        (f"{SRC}/isa/semantics.py", "peek"),
        (f"{SRC}/uarch/core.py", "Core.active"),
        (f"{SRC}/uarch/core.py", "Core.run"),
    ]
    assert classify_stack(stack) == ("isa", "loop",
                                     frozenset({"isa.compile"}))
    warm = [(f"{SRC}/backends/warmup.py", "warm_window_state")]
    assert classify_stack(warm) == ("backends", None,
                                    frozenset({"backends.warmup"}))
    assert classify_stack([("/usr/lib/x.py", "f")]) == (
        "other", None, frozenset())


def test_sampler_shares_sum_to_100_on_a_real_simulation():
    from repro.engine.runs import simulate_spec
    from repro.engine.spec import RunSpec

    spec = RunSpec.make("lbm", scale=0.3)
    with StackSampler() as sampler:
        while sampler.samples < 200:
            simulate_spec(spec)
    shares = sampler.shares()
    assert sum(shares[f"{n}.share"] for n in LAYERS) == pytest.approx(100)
    stages = sum(shares[f"uarch.stage.{n}.share"] for n in STAGES)
    assert stages == pytest.approx(100)
    assert shares["uarch.share"] > 20


def test_span_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.span("outer", op="a"):
        with tracer.span("inner"):
            pass
    (_, s0, e0, p0, op0), (_, s1, e1, p1, op1) = tracer.spans
    assert (p0, p1, op0, op1) == (-1, 0, "a", "a")
    self_times = tracer.self_times()
    assert self_times["outer"] == pytest.approx((e0 - s0) - (e1 - s1))
    assert tracer.totals("inner") == (1, e1 - s1)
