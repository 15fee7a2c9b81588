"""Unit tests for the simulation-free half of ``repro.predict``.

Everything here must run without ever touching the simulator: the
package promise (enforced by tea-lint TL008) is that importing and
using the analyzer costs zero simulated cycles.
"""

import json
import sys

import pytest

from repro.isa.builder import ProgramBuilder
from repro.isa.opcodes import OpClass
from repro.predict import (
    BlockDepGraph,
    PortModel,
    predict_program,
    prediction_to_json,
    render_prediction,
    validate_prediction_doc,
)
from repro.predict.ports import COMMIT, FRONTEND
from repro.uarch.config import CoreConfig
from repro.workloads import WORKLOAD_NAMES, build


def build_loop():
    """A self-loop block with a loop-carried chain through x1."""
    b = ProgramBuilder("loop")
    b.li("x1", 100)  # 0
    b.label("top")  # 1
    b.load("x2", "x3", 0)  # 1
    b.fadd("f1", "f1", "f2")  # 2 (loop-carried through f1)
    b.addi("x1", "x1", -1)  # 3 (loop-carried through x1)
    b.bne("x1", "x0", "top")  # 4
    b.halt()  # 5
    return b.build()


class TestPortModel:
    def test_load_latency_is_the_l1_hit_assumption(self):
        model = PortModel()
        assert (
            model.latency_of(OpClass.LOAD)
            == model.config.memory.l1d_latency
        )

    def test_unpipelined_classes_cost_their_full_latency(self):
        model = PortModel()
        config = model.config
        b = ProgramBuilder("p")
        b.fdiv("f1", "f2", "f3")
        b.halt()
        cost = model.cost(b.build()[0])
        assert cost.unpipelined
        assert cost.latency == config.latencies[OpClass.FP_DIV]
        assert cost.recip_throughput == (
            cost.latency / config.issue_width["fp"]
        )

    def test_pipelined_classes_cost_one_issue_slot(self):
        model = PortModel()
        b = ProgramBuilder("p")
        b.add("x1", "x2", "x3")
        b.halt()
        cost = model.cost(b.build()[0])
        assert not cost.unpipelined
        assert cost.recip_throughput == (
            1 / model.config.issue_width["int"]
        )

    def test_queue_pressure_reports_pseudo_queues(self):
        model = PortModel()
        program = build_loop()
        costs = model.block_costs(program[1:5])
        pressure = model.queue_pressure(costs)
        assert pressure[COMMIT] == 4 / model.config.commit_width
        assert pressure[FRONTEND] == 4 / model.config.decode_width
        assert pressure["mem"] > 0 and pressure["fp"] > 0

    def test_sabotage_is_a_pure_override(self):
        model = PortModel()
        bad = model.sabotage({OpClass.FP_ADD: 1})
        assert bad.latency_of(OpClass.FP_ADD) == 1
        assert model.latency_of(OpClass.FP_ADD) != 1
        assert bad.config is model.config


class TestDepGraph:
    def test_intra_edges_and_critical_path(self):
        b = ProgramBuilder("p")
        b.fmul("f1", "f2", "f3")  # 0
        b.fadd("f4", "f1", "f5")  # 1 depends on 0
        b.add("x1", "x2", "x3")  # 2 independent
        b.halt()  # 3
        program = b.build()
        model = PortModel()
        insts = program[0:3]
        graph = BlockDepGraph.build(
            insts, model.block_costs(insts), loop=False
        )
        deps = [(e.src, e.dst) for e in graph.edges]
        assert (0, 1) in deps
        assert all(not e.loop_carried for e in graph.edges)
        cycles, chain = graph.critical_path()
        lat = model.latency_of
        assert cycles == lat(OpClass.FP_MUL) + lat(OpClass.FP_ADD)
        assert chain == (0, 1)

    def test_zero_register_carries_no_dependency(self):
        b = ProgramBuilder("p")
        b.add("x0", "x1", "x2")  # writes x0: produces nothing
        b.add("x3", "x0", "x0")  # reads x0: depends on nothing
        b.halt()
        program = b.build()
        model = PortModel()
        insts = program[0:2]
        graph = BlockDepGraph.build(
            insts, model.block_costs(insts), loop=True
        )
        assert graph.edges == ()

    def test_loop_carried_recurrence(self):
        program = build_loop()
        model = PortModel()
        insts = program[1:5]
        graph = BlockDepGraph.build(
            insts, model.block_costs(insts), loop=True
        )
        carried = [e for e in graph.edges if e.loop_carried]
        assert carried, "expected loop-carried edges"
        cycles, chain = graph.recurrence()
        # The binding recurrence is the fp accumulate through f1.
        assert cycles == model.latency_of(OpClass.FP_ADD)
        assert len(chain) == 1


class TestAnalyzer:
    def test_every_block_gets_bounds_and_a_binding(self):
        prediction = predict_program(build_loop())
        assert prediction.blocks
        for block in prediction.blocks.values():
            assert block.bounds
            assert block.binding in block.bounds
            assert block.cycles == block.binding.cycles
            assert block.cpi == pytest.approx(
                block.cycles / block.size
            )
            assert sum(block.states.values()) == pytest.approx(
                block.cycles
            )

    def test_self_loop_block_is_latency_bound_by_recurrence(self):
        prediction = predict_program(build_loop())
        block = prediction.block_of(2)
        assert block.is_loop
        assert block.leader == 1
        names = [b.name for b in block.bounds]
        assert "latency:recurrence" in names
        assert "latency:critical-path" not in names
        assert block.recurrence > 0

    def test_straight_line_block_uses_critical_path(self):
        prediction = predict_program(build_loop())
        block = prediction.block_of(0)
        assert not block.is_loop
        names = [b.name for b in block.bounds]
        assert "latency:critical-path" in names

    def test_serial_block_is_flush_bound(self):
        b = ProgramBuilder("p")
        b.serial()
        b.halt()
        prediction = predict_program(b.build())
        block = prediction.block_of(0)
        assert block.binding.kind == "flush"
        config = PortModel().config
        refill = config.redirect_penalty + config.frontend_depth
        assert block.binding.cycles >= refill

    def test_explicit_config_reaches_the_bounds(self):
        config = CoreConfig(commit_width=1, decode_width=1)
        prediction = predict_program(build_loop(), config=config)
        block = prediction.block_of(0)
        assert block.queue_pressure[COMMIT] == block.size

    def test_bottleneck_histogram_covers_all_blocks(self):
        prediction = predict_program(build_loop())
        assert sum(prediction.bottlenecks.values()) == len(
            prediction.blocks
        )

    def test_block_of_maps_interior_indices(self):
        prediction = predict_program(build_loop())
        assert prediction.block_of(3).leader == 1


class TestWholeSuite:
    @pytest.mark.parametrize("name", WORKLOAD_NAMES)
    def test_all_workloads_get_validated_predictions(self, name):
        program = build(name, scale=0.05).program
        prediction = predict_program(program)
        doc = validate_prediction_doc(
            json.loads(json.dumps(prediction_to_json(prediction)))
        )
        assert doc["summary"]["n_blocks"] == len(prediction.blocks)
        # Every instruction of the program belongs to a predicted block.
        for index in range(len(program)):
            assert prediction.block_of(index) is not None

    def test_predict_path_never_imports_the_simulator(self):
        # TL008 statically; this is the dynamic proof: a fresh
        # subprocess that predicts the full suite must finish without
        # the engine or the execution backends ever loading. (The
        # cycle core's *module* rides in via the repro.uarch package
        # __init__; the test below proves it never steps.)
        import subprocess

        code = (
            "import sys\n"
            "from repro.predict import predict_program\n"
            "from repro.workloads import WORKLOAD_NAMES, build\n"
            "for name in WORKLOAD_NAMES:\n"
            "    predict_program(build(name, scale=0.05).program)\n"
            "banned = [m for m in sys.modules if m.startswith(\n"
            "    ('repro.backends', 'repro.engine')\n"
            ")]\n"
            "assert not banned, banned\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_predict_path_never_steps_the_core(self, monkeypatch):
        import repro.uarch.core as core

        def boom(*args, **kwargs):
            raise AssertionError("the predict path simulated a cycle")

        monkeypatch.setattr(core.Core, "step", boom)
        for name in WORKLOAD_NAMES:
            predict_program(build(name, scale=0.05).program)


class TestReport:
    def test_render_mentions_every_top_block(self):
        prediction = predict_program(build_loop())
        text = render_prediction(prediction)
        for leader in prediction.blocks:
            assert f"\n{leader:>7} " in "\n" + text
        assert "bottlenecks:" in text

    def test_top_limits_the_table(self):
        program = build(WORKLOAD_NAMES[0], scale=0.05).program
        prediction = predict_program(program)
        full = render_prediction(prediction)
        trimmed = render_prediction(prediction, top=1)
        assert len(trimmed.splitlines()) < len(full.splitlines())

    def test_validator_rejects_missing_bounds(self):
        prediction = predict_program(build_loop())
        doc = prediction_to_json(prediction)
        doc["blocks"][0]["bounds"] = []
        with pytest.raises(ValueError, match="bounds"):
            validate_prediction_doc(doc)

    def test_validator_rejects_bad_schema(self):
        with pytest.raises(ValueError, match="schema"):
            validate_prediction_doc({"schema": "nope"})

    def test_validator_rejects_negative_cycles(self):
        prediction = predict_program(build_loop())
        doc = prediction_to_json(prediction)
        doc["blocks"][0]["cycles"] = -1.0
        with pytest.raises(ValueError, match="cycles"):
            validate_prediction_doc(doc)
