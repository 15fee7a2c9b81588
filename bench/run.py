"""Run the repository benchmark.

    python bench/run.py [--workload W] [--seed S] [--seconds N]
                        [--trace 0|1] [--out FILE] [--regen-reference]

Each workload runs in its own fresh subprocess, one after another:
set-up, one untimed warm-up pass, then timed passes until ``--seconds``
of them have run (at least three). Set-up time is the median over that
process and two more that only set up. Every time is scaled to the
reference host by a fixed calibration loop timed around the same work
(``calibrate.py``). With ``--trace 1`` one extra traced pass gives the
per-layer metrics instead of the end-to-end ones.

Every metric is printed with its name, unit and sample count, the
end-to-end ones ``BENCHMARK.json`` cannot list included; the last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` (the metrics
``BENCHMARK.json`` lists). ``--out`` also writes every raw measurement
as JSON, for ``compare.py``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

from metrics import EXTRA_END_TO_END, ROOT, benchmark_spec  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORKDIR = ROOT / ".bench_work"
#: Fresh processes whose set-up time is measured, the measured run included.
SETUP_PROCESSES = 3
#: Every invocation for one workload ends within this many seconds.
DEADLINE_S = 170.0

#: How a metric is sampled, for the printed report.
SAMPLES = {
    "wall_s": "median of {passes} passes",
    "insts_per_s": "median of {passes} passes",
    "peak_rss_mb": "max over the run",
    "tea_err_pct": "mean over {tea_runs} kernel runs",
    "setup_s": f"median of {SETUP_PROCESSES} processes",
    "fail_rate": "{failed} of {attempted} ops",
    "serve_p50_ms": "median of {ops} serves",
    "serve_p95_ms": "p95 of {ops} serves",
    "sampled_cyc_err_pct": "mean over the sampled-tier runs of one pass",
}


def _load_reference() -> dict | None:
    try:
        return json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        return None


def _child(args) -> int:
    """Entry point of a workload subprocess: print raw measurements."""
    sys.path.insert(0, str(SRC))
    import suites

    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORKDIR))
    try:
        if args.child == "setup":
            suite = suites.SUITES[args.workload](args.seed, workdir)
            suite.setup(suites.NullTracer())
            doc = {"setup_s": suites.scaled_setup_s(_STARTED)}
        else:
            doc = suites.run_workload(
                args.workload, args.seed, args.seconds, bool(args.trace),
                workdir, _load_reference(), started=_STARTED,
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(doc))
    return 0


def _spawn(argv: list[str], deadline: float) -> dict:
    """Run ``run.py --child ...`` in a fresh process; its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(WORKDIR)
    env["REPRO_OBS"] = "0"
    env["PYTHONHASHSEED"] = "0"
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:
        # Timed out, or this process is being stopped: stop the child
        # and its pool workers, and wait for them, before going.
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{' '.join(argv)}: timed out") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)}: exit code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def run_one(name: str, seed: int, seconds: float, trace: bool, spec: dict):
    """Measure one workload; returns its run record."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed)]
    setups = [
        _spawn(["--child", "setup", *common], deadline)["setup_s"]
        for _ in range(SETUP_PROCESSES - 1)
    ]
    doc = _spawn(["--child", "run", *common, "--seconds", str(seconds),
                  "--trace", str(int(trace))], deadline)
    setups.append(doc["setup_s"])
    doc["setup_samples_s"] = setups
    doc["setup_s"] = statistics.median(setups)
    doc["trace"] = trace
    section = "per_layer" if trace else "end_to_end"
    source = doc["per_layer"] if trace else doc
    unknown = set(doc.get("per_layer", {})) - {
        m["name"] for m in spec["per_layer"]
    }
    if unknown:
        raise RuntimeError(f"per-layer metrics missing from "
                           f"BENCHMARK.json: {sorted(unknown)}")
    missing = [m["name"] for m in spec[section] if m["name"] not in source]
    if missing:
        raise RuntimeError(f"{name}: the run did not measure {missing}")
    doc["metrics"] = {
        m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
        for m in spec[section]
    }
    if not trace:
        doc["extra_metrics"] = {
            m["name"]: {"value": doc[m["name"]], "unit": m["unit"]}
            for m in EXTRA_END_TO_END
        }
    return doc


def _report(doc: dict) -> None:
    print(f"{doc['workload']}  seed={doc['seed']}  passes={doc['passes']}  "
          f"attempted={doc['attempted']}  failed={doc['failed']}")
    if "pass_raw_wall_s" in doc:
        print(f"  host scale {statistics.median(doc['pass_host_scale']):.3f}"
              f" (reference/host speed), unscaled wall_s "
              f"{statistics.median(doc['pass_raw_wall_s']):.6g} s")
    for reason in doc["failures"]:
        print(f"  FAILED {reason}")
    for name, metric in {**doc["metrics"],
                         **doc.get("extra_metrics", {})}.items():
        if metric["value"] is None:
            print(f"  {name:32s} {'-':>16s} {metric['unit']:6s} "
                  f"not defined on this workload")
            continue
        note = SAMPLES.get(name, "").format(**doc)
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"{note}")


def _machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


def main(argv: list[str] | None = None) -> int:
    spec = benchmark_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names,
                        help="one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="how long the timed passes run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", type=Path,
                        help="also write the raw measurements here")
    parser.add_argument("--regen-reference", action="store_true",
                        help="rewrite bench/reference.json and exit")
    parser.add_argument("--child", choices=("setup", "run"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return _child(args)
    if args.regen_reference:
        sys.path.insert(0, str(SRC))
        import suites

        WORKDIR.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
            doc = suites.build_reference(Path(workdir))
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"wrote {REFERENCE} ({len(doc['ops'])} ops)")
        return 0

    # SIGTERM unwinds like an exception, so every child is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    WORKDIR.mkdir(exist_ok=True)
    runs = []
    try:
        for name in [args.workload] if args.workload else names:
            runs.append(run_one(name, args.seed, args.seconds,
                                bool(args.trace), spec))
            _report(runs[-1])
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"machine": _machine(), "runs": runs}, indent=1
        ) + "\n")
    failed = sum(r["failed"] for r in runs)
    metrics = (
        runs[0]["metrics"] if len(runs) == 1 else {
            f"{r['workload']}/{name}": m
            for r in runs for name, m in r["metrics"].items()
        }
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
