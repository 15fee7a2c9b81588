"""Command-line entry point.

Regenerate paper artefacts (one subcommand per entry of
``repro.experiments.artefacts.ARTEFACTS``)::

    tea-repro fig5 [--scale 1.0] [--period 293]
    tea-repro fig3 | fig6 | fig7 | fig8 | fig9 | fig10 | fig11 | fig12
    tea-repro table1 | table2 | overheads | tip | topdown | noise
    tea-repro ablation-dispatch | ablation-events
    tea-repro sensitivity-rob | sensitivity-sq
    tea-repro all                       # every artefact, report order
    tea-repro report                    # ... into one Markdown file
    tea-repro figures --out results/figures

Use the library as a profiler/tool::

    tea-repro profile lbm --technique TEA --top 5
    tea-repro profile nab --granularity function
    tea-repro diff lbm lbm:prefetch_distance=3

Engine controls (any experiment or tool command; ``profile``,
``advise``, ``diff`` and ``query`` share the run store and run log)::

    tea-repro --jobs 4 all              # parallel suite execution
    tea-repro --store PATH fig5         # explicit run-store location
    tea-repro --no-store fig5           # disable the on-disk store
    tea-repro stats                     # summarise the run log / store

Resilience controls (any experiment command)::

    tea-repro --jobs 8 --retries 2 --backoff 1 --timeout 600 all
    tea-repro --jobs 8 --keep-going all # partial results + report
    tea-repro --jobs 8 --resume all     # continue an interrupted sweep
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro import obs
from repro.core.diff import diff_profiles, render_diff
from repro.core.pics import Granularity
from repro.core.report import render_top
from repro.engine import (
    DEFAULT_RUN_LOG_NAME,
    BenchmarkRun,
    Engine,
    RunLog,
    RunSpec,
    RunStore,
    SuiteExecutionError,
    read_run_log,
    simulate_spec,
    summarize_records_json,
    summarize_run_log,
)
from repro.experiments import ExperimentRunner
from repro.experiments.artefacts import (
    ARTEFACTS,
    declared_specs,
    figure_artefacts,
    write_figures,
    write_report,
)
from repro.workloads import BUILDERS, build


# ----------------------------------------------------------------------
# Engine wiring.
# ----------------------------------------------------------------------
def make_engine(args) -> Engine:
    """Build the shared engine from the global CLI flags.

    The engine is also kept as ``args.engine`` so that :func:`main`
    can close its run log on every exit path (see :func:`_finish_obs`).
    """
    store = None if args.no_store else RunStore(args.store)
    run_log = None
    if not args.no_run_log:
        path = args.run_log
        if path is None and store is not None:
            path = store.root / DEFAULT_RUN_LOG_NAME
        if path is not None:
            run_log = RunLog(path)
    args.engine = Engine(
        store=store,
        run_log=run_log,
        jobs=args.jobs,
        retries=args.retries,
        timeout=args.timeout,
        backoff=args.backoff,
        keep_going=args.keep_going,
        heartbeat=getattr(args, "heartbeat", None),
        stall_after=getattr(args, "stall_after", None),
    )
    return args.engine


def prewarm(runner, artefacts, resume: bool = False) -> None:
    """Run every spec the artefacts read through one engine suite.

    The experiment modules themselves iterate benchmarks one run at a
    time; the engine simulates all missing runs here first -- on the
    worker pool with ``--jobs N``, in process otherwise, and once per
    machine run the specs share -- so those loops become pure memo
    hits. Completed runs checkpoint to the store as they land, so
    re-invoking after an interruption (``--resume`` reports the
    checkpoint status) re-simulates only the runs that never finished.
    """
    specs = declared_specs(runner, artefacts)
    if not specs:
        return
    if resume:
        done = sum(runner.engine.checkpointed(specs).values())
        print(
            f"resume: {done}/{len(specs)} suite run(s) already "
            f"checkpointed; simulating the rest"
        )
    runner.engine.run_suite(specs)
    report = runner.engine.last_suite_report
    if report is not None and report.failed_labels:
        # Only reachable with --keep-going (failures raise otherwise).
        print(report.summary(), file=sys.stderr)


def cmd_lint(args) -> int:
    """``tea-repro lint``: run the tea-lint invariant checkers."""
    from repro.analysis import (
        Baseline,
        DEFAULT_BASELINE_NAME,
        lint_paths,
        render_json,
        render_text,
        rule_catalogue,
    )
    from repro.analysis.runner import find_repo_root

    if args.list_rules:
        for rule in rule_catalogue():
            print(
                f"{rule['id']} {rule['name']} [{rule['severity']}]: "
                f"{rule['summary']}"
            )
        return 0

    root = find_repo_root()
    baseline_path = (
        Path(args.baseline)
        if args.baseline
        else root / DEFAULT_BASELINE_NAME
    )
    baseline = (
        Baseline() if args.no_baseline else Baseline.load(baseline_path)
    )
    try:
        result = lint_paths(
            args.paths,
            root=root,
            rules=args.rule or None,
            ignore=args.ignore or None,
            baseline=baseline,
        )
    except (FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.update_baseline:
        from repro.analysis.baseline import PLACEHOLDER_REASON

        refreshed = Baseline.from_findings(
            result.findings + result.baselined,
            reasons=baseline.entries,
            default_reason=args.reason or PLACEHOLDER_REASON,
        )
        refreshed.save(baseline_path)
        print(
            f"wrote {baseline_path} "
            f"({len(refreshed.entries)} entr(y/ies))"
        )
        placeholders = refreshed.placeholder_keys()
        if placeholders:
            print(
                f"warning: {len(placeholders)} entr(y/ies) carry the "
                f"placeholder reason; rerun with --reason TEXT or "
                f"edit {baseline_path}",
                file=sys.stderr,
            )
        return 0
    print(
        render_json(result, baseline=baseline)
        if args.json
        else render_text(result, baseline=baseline)
    )
    return result.exit_code


def cmd_stats(args) -> int:
    """``tea-repro stats``: summarise the run store and telemetry log.

    With ``--prune`` the runs of other code that the store line reports
    are deleted first (:meth:`RunStore.prune`), and what was removed is
    reported before the summary of what is left.
    """
    store = None if args.no_store else RunStore(args.store)
    log_path = args.run_log
    if log_path is None and store is not None:
        log_path = store.root / DEFAULT_RUN_LOG_NAME
    pruned = store.prune() if args.prune and store is not None else None
    if getattr(args, "json", False):
        doc = {
            "store": (
                {
                    "root": str(store.root),
                    "entries": len(store),
                    "size_bytes": store.size_bytes(),
                    "stale": store.stale(),
                    **({} if pruned is None else {"pruned": pruned}),
                }
                if store is not None
                else None
            ),
            "run_log": str(log_path) if log_path is not None else None,
            "summary": (
                summarize_records_json(read_run_log(log_path))
                if log_path is not None
                else None
            ),
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    if pruned is not None:
        print(
            f"pruned other code: {pruned['revisions']} revision(s), "
            f"{pruned['entries']} run(s), "
            f"{pruned['size_bytes'] / 1e6:.2f} MB"
        )
    if store is not None:
        stale = store.stale()
        print(
            f"store: {store.root} -- {len(store)} cached run(s), "
            f"{store.size_bytes() / 1e6:.2f} MB; other code: "
            f"{stale['revisions']} revision(s), {stale['entries']} "
            f"run(s), {stale['size_bytes'] / 1e6:.2f} MB"
        )
    if log_path is None:
        print("run log: none (store disabled and no --run-log given)")
        return 0
    print(f"run log: {log_path}")
    print(summarize_run_log(log_path))
    return 0


def _finish_obs(args) -> None:
    """End-of-command observability export, run by :func:`main` on
    every exit path (the export itself no-ops while disabled).

    Appends the collected spans/counters to the run log of the
    command's engine (when it has one) and closes that log, then
    writes the Chrome trace file named by ``--trace-out`` and the
    Prometheus textfile named by ``--metrics-out``.
    """
    engine = getattr(args, "engine", None)
    if engine is not None and engine.run_log is not None:
        if obs.enabled():
            engine.run_log.record_obs(
                obs.COLLECTOR.snapshot(), obs.COUNTERS
            )
        engine.run_log.close()
    if not obs.enabled():
        return
    trace_out = getattr(args, "trace_out", None)
    if trace_out:
        count = obs.export_chrome_trace(trace_out)
        print(f"wrote {trace_out} ({count} trace event(s))")
    metrics_out = getattr(args, "metrics_out", None)
    if metrics_out:
        count = obs.expose_prometheus(metrics_out)
        print(f"wrote {metrics_out} ({count} metric sample(s))")


def cmd_monitor(args) -> int:
    """``tea-repro monitor <run-log>``: live view over a run log.

    Tails the JSONL incrementally (complete lines only, so a suite
    writing concurrently never hands it a torn record) and redraws the
    per-label status table until the suite record lands. ``--once``
    renders the current state and exits; ``--json`` dumps the
    machine-readable snapshot instead of the table.
    """
    from repro.engine import SuiteMonitor, render_monitor

    path = str(args.run_log_path)
    monitor = SuiteMonitor()
    offset = monitor.feed_file(path)
    if args.json:
        print(json.dumps(monitor.snapshot(), indent=2, sort_keys=True))
        return 0
    if args.once:
        print(render_monitor(monitor))
        return 0
    clear = "\x1b[2J\x1b[H" if sys.stdout.isatty() else ""
    try:
        while True:
            view = f"monitor: {path}\n" + render_monitor(monitor)
            print(clear + view, flush=True)
            if monitor.suite_done:
                return 0
            time.sleep(max(args.interval, 0.05))
            offset = monitor.feed_file(path, offset)
    except KeyboardInterrupt:
        return 0


def cmd_health(args) -> int:
    """``tea-repro health <run-log> --slo FILE``: SLO gate over a log.

    Exit status: 0 when every rule passes, 1 on any violation, 2 on a
    missing or unreadable run log or a malformed rules file --
    CI-friendly semantics.
    """
    from repro.engine import check_run_log

    try:
        report = check_run_log(args.run_log_path, args.slo)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


# ----------------------------------------------------------------------
# Tool commands.
# ----------------------------------------------------------------------
def parse_workload_spec(spec: str, scale: float):
    """Parse ``name[:key=value,...]`` or a ``.asm`` path into a workload.

    Values are parsed as int, then float, then bool, then kept as str.

    Raises:
        SystemExit: On unknown workload names or malformed specs.
    """
    if spec.endswith(".asm"):
        from pathlib import Path

        from repro.isa.asmtext import parse_asm
        from repro.isa.interpreter import ArchState
        from repro.workloads.base import Workload

        path = Path(spec)
        if not path.exists():
            raise SystemExit(f"no such assembly file: {spec}")
        program = parse_asm(path.read_text(), path.stem)
        return Workload(
            name=path.stem,
            program=program,
            state_builder=ArchState,
            description=f"assembled from {spec}",
        )
    name, kwargs = parse_workload_fields(spec)
    return build(name, scale=scale, **kwargs)


def parse_workload_fields(spec: str) -> tuple[str, dict]:
    """Split ``name[:key=value,...]`` into (name, builder kwargs).

    Raises:
        SystemExit: On unknown workload names or malformed specs.
    """
    name, _, args_text = spec.partition(":")
    # The full builder registry, not WORKLOAD_NAMES: generated
    # scenarios ("synth:seed=42,iters=8") profile/diff/advise like any
    # hand-built kernel even though they are not suite members.
    if name not in BUILDERS:
        raise SystemExit(
            f"unknown workload {name!r}; choose from "
            f"{', '.join(sorted(BUILDERS))}"
        )
    kwargs = {}
    if args_text:
        for item in args_text.split(","):
            key, eq, value = item.partition("=")
            if not eq:
                raise SystemExit(f"bad workload argument {item!r}")
            for parser in (int, float):
                try:
                    value = parser(value)
                    break
                except ValueError:
                    continue
            else:
                if value in ("true", "True"):
                    value = True
                elif value in ("false", "False"):
                    value = False
            kwargs[key] = value
    return name, kwargs


def _tool_run(
    engine: Engine, args, workload_arg: str, technique: str
) -> BenchmarkRun:
    """The run ``profile``, ``advise`` and ``diff`` read: *workload_arg*
    with one *technique* attached, served by *engine*.

    A ``.asm`` file has no registered builder to key a spec by, so it
    is simulated directly on its parsed workload and never stored.
    """
    workload = None
    if workload_arg.endswith(".asm"):
        workload = parse_workload_spec(workload_arg, args.scale)
        name, kwargs = workload.name, {}
    else:
        name, kwargs = parse_workload_fields(workload_arg)
    backend = getattr(args, "backend", "detailed")
    geometry = {}
    if backend == "sampled" and args.window:
        geometry = {
            "window": args.window,
            "stride": args.stride,
            "warmup": args.warmup,
        }
    spec = RunSpec.make(
        name, kwargs, scale=args.scale, period=args.period,
        techniques=(technique,), backend=backend, **geometry,
    )
    if workload is not None:
        return simulate_spec(spec, workload)
    return engine.run(spec)


def cmd_profile(args) -> int:
    """``tea-repro profile <workload> ...``: print a PICS profile."""
    engine = make_engine(args)
    if args.stats:
        # A stored run keeps no machine state (caches, TLBs,
        # predictor, DRAM): simulate, as with --no-store.
        engine.store = None
    run = _tool_run(engine, args, args.workload, args.technique)
    workload, result = run.workload, run.result
    backend = args.backend
    if run.samplers:
        sampler = run.samplers[args.technique]
        profile = sampler.profile()
        sample_note = f"{sampler.samples_taken} samples"
        if backend == "sampled":
            sample_note += ", cycles extrapolated"
    else:
        profile = run.golden
        sample_note = "functional tier (exact counts, no timing)"
    level = Granularity(args.granularity)
    if level != Granularity.INSTRUCTION:
        profile = profile.aggregate(workload.program, level)
    print(
        f"{workload.name}: {result.cycles:,} cycles, "
        f"{result.committed:,} instructions (IPC {result.ipc:.2f}), "
        f"{sample_note}\n"
    )
    print(render_top(profile, n=args.top, program=workload.program))
    if args.stats and backend == "detailed":
        from repro.uarch.summary import render_summary

        print("\n" + render_summary(result))
    else:
        if args.stats:
            print(
                "\n(--stats reports live machine state; only the "
                "detailed tier has it)"
            )
        stack = result.cpi_stack()
        print(
            "\ncommit-state cycle stack: "
            + ", ".join(
                f"{state.name.lower()} {share:.1%}"
                for state, share in stack.items()
            )
        )
    return 0


def cmd_advise(args) -> int:
    """``tea-repro advise <workload>``: rule-based recommendations."""
    from repro.core.advisor import advise, render_findings
    from repro.predict import predict_program

    run = _tool_run(make_engine(args), args, args.workload, "TEA")
    workload = run.workload
    # The static prediction is free (no simulation); findings cite
    # the predictor's binding bottleneck per implicated block.
    prediction = predict_program(workload.program)
    findings = advise(
        run.profile("TEA"),
        workload.program,
        threshold=args.threshold,
        prediction=prediction,
    )
    print(
        f"{workload.name}: {run.result.cycles:,} cycles, "
        f"{len(findings)} finding(s)\n"
    )
    print(render_findings(findings, workload.program))
    return 0


def cmd_predict(args) -> int:
    """``tea-repro predict``: analytical bounds, optionally refined."""
    from repro.predict import (
        predict_program,
        prediction_to_json,
        render_prediction,
    )

    workload = parse_workload_spec(args.workload, args.scale)
    prediction = predict_program(workload.program)
    if not args.refine:
        if args.json:
            print(json.dumps(prediction_to_json(prediction), indent=2))
        else:
            print(render_prediction(prediction, top=args.top))
        return 0

    # Escalation tier: diff the prediction against the cycle model
    # through the engine (a warm store makes this free).
    from repro.predict.refine import refine_spec

    if args.workload.endswith(".asm"):
        raise SystemExit(
            "predict --refine works on registered workloads (runs are "
            "keyed by RunSpec); .asm files support static prediction "
            "only"
        )
    name, kwargs = parse_workload_fields(args.workload)
    spec = RunSpec.make(
        name, kwargs, scale=args.scale, period=args.period
    )
    engine = make_engine(args)
    report = refine_spec(
        spec,
        engine=engine,
        threshold=args.threshold,
        min_share=args.min_share,
    )
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render())
    return 0


def cmd_diff(args) -> int:
    """``tea-repro diff <before> <after>``: compare two profiles."""
    engine = make_engine(args)
    before = _tool_run(engine, args, args.before, args.technique)
    after = _tool_run(engine, args, args.after, args.technique)
    diff = diff_profiles(
        before.profile(args.technique), after.profile(args.technique)
    )
    before_wl, after_wl = before.workload, after.workload
    program = (
        before_wl.program
        if len(before_wl.program) == len(after_wl.program)
        else None
    )
    print(
        render_diff(
            diff,
            n=args.top,
            program=program,
            before_name=before_wl.name,
            after_name=after_wl.name,
        )
    )
    return 0


def _query_spec(spec_str: str, args):
    """The RunSpec a ``query`` workload argument describes."""
    if spec_str.endswith(".asm"):
        raise SystemExit(
            "query works on registered workloads (the trace sidecar "
            "is keyed by RunSpec); .asm files are not storable"
        )
    name, kwargs = parse_workload_fields(spec_str)
    return RunSpec.make(
        name, kwargs, scale=args.scale, period=args.period
    )


def _query_for(engine: Engine, spec: RunSpec, args):
    """A TraceQuery over *spec*'s trace (sidecar hit or fresh capture)."""
    from repro.trace import TraceQuery

    store = engine.trace(spec, refresh=args.refresh)
    return TraceQuery(store, engine.workload(spec).program)


def cmd_query(args) -> int:
    """``tea-repro query``: analytics over the columnar trace store."""
    from repro.trace.query import parse_states

    try:
        states = parse_states(args.state)
    except ValueError as exc:
        raise SystemExit(str(exc)) from None
    if args.window is not None and not args.window_cycles:
        raise SystemExit("--window needs --window-cycles")
    if args.what == "diff" and not args.baseline:
        raise SystemExit("--what diff needs --baseline <workload-spec>")
    spec = _query_spec(args.workload, args)
    base_spec = (
        _query_spec(args.baseline, args) if args.what == "diff" else None
    )
    engine = make_engine(args)
    query = _query_for(engine, spec, args)
    try:
        return _run_query(args, engine, spec, base_spec, query, states)
    finally:
        query.store.close()


def _run_query(args, engine, spec, base_spec, query, states) -> int:
    from repro.experiments.runner import format_table
    from repro.trace import diff_attribution

    what = args.what
    if what == "summary":
        state_cycles = query.state_cycles()
        total = query.total_cycles()
        doc = {
            "workload": spec.workload,
            "label": spec.label(),
            "spec_key": spec.key,
            "cycles": total,
            "states": {
                state.name.lower(): cycles
                for state, cycles in state_cycles.items()
            },
            "rows": query.store.row_counts(),
            "samplers": query.store.sampler_names(),
        }
        if args.json:
            print(json.dumps(doc, indent=2, sort_keys=True))
            return 0
        print(f"{spec.label()}: {total:,} cycles (key {spec.key[:12]})")
        print(
            "states: "
            + ", ".join(
                f"{state.name.lower()} {cycles:,} "
                f"({cycles / total:.1%})" if total else "0"
                for state, cycles in state_cycles.items()
            )
        )
        rows = doc["rows"]
        print(
            "store rows: "
            + ", ".join(f"{k} {v:,}" for k, v in rows.items())
            + f"; samplers: {', '.join(doc['samplers']) or 'none'}"
        )
        return 0

    group_by = "instruction" if args.by == "auto" else args.by
    if what == "top":
        ranked = query.top(
            k=args.k,
            states=states,
            by=group_by,
            window=args.window,
            window_cycles=args.window_cycles,
        )
        scope = args.state
        where = (
            f" in window {args.window} "
            f"(cycles [{args.window * args.window_cycles}, "
            f"{(args.window + 1) * args.window_cycles}))"
            if args.window is not None
            else ""
        )
        if args.json:
            print(json.dumps({
                "workload": spec.workload,
                "what": "top",
                "state": scope,
                "by": group_by,
                "window": args.window,
                "rows": [
                    {
                        "key": key,
                        "label": query.label(key, group_by),
                        "cycles": round(cycles, 3),
                    }
                    for key, cycles in ranked
                ],
            }, indent=2, sort_keys=True))
            return 0
        print(
            f"{spec.label()}: top {len(ranked)} {group_by}(s) "
            f"by {scope} cycles{where}"
        )
        print(format_table(
            [group_by, "cycles"],
            [
                [query.label(key, group_by), f"{cycles:,.1f}"]
                for key, cycles in ranked
            ],
        ))
        return 0

    if what == "flush-hist":
        hist = query.flush_histogram(per=group_by)
        ranked = sorted(
            hist.items(), key=lambda kv: (-kv[1], str(kv[0]))
        )
        if args.json:
            print(json.dumps({
                "workload": spec.workload,
                "what": "flush-hist",
                "by": group_by,
                "rows": [
                    {
                        "key": group,
                        "label": query.label(group, group_by),
                        "cause": cause,
                        "cycles": cycles,
                    }
                    for (group, cause), cycles in ranked
                ],
            }, indent=2, sort_keys=True))
            return 0
        flushed = sum(hist.values())
        print(
            f"{spec.label()}: flush-cause histogram per {group_by} "
            f"({flushed:,} flushed cycle(s))"
        )
        if not ranked:
            print("(no flushed cycles in this run)")
            return 0
        print(format_table(
            [group_by, "cause", "cycles"],
            [
                [query.label(group, group_by), cause, f"{cycles:,}"]
                for (group, cause), cycles in ranked[: args.k]
            ],
        ))
        return 0

    # what == "diff"
    base_query = _query_for(engine, base_spec, args)
    try:
        report = diff_attribution(
            base_query,
            query,
            by=None if args.by == "auto" else args.by,
            states=states,
            threshold=args.threshold,
            k=args.k,
        )
    finally:
        base_query.store.close()
    if args.json:
        doc = report.to_json()
        doc["baseline"] = base_spec.label()
        doc["workload"] = spec.label()
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 1 if report.flagged and args.fail_on_regression else 0
    print(
        f"diff vs {base_spec.label()} (by {report.by}, "
        f"threshold {report.threshold:.0%} share growth, "
        f"{report.before_total:,.0f} -> {report.after_total:,.0f} "
        f"attributed cycles)"
    )
    print(format_table(
        [report.by, "before", "after", "Δshare", ""],
        [
            [
                row.label,
                f"{row.before_share:.1%}",
                f"{row.after_share:.1%}",
                f"{row.delta_share:+.1%}",
                "REGRESSION" if row.regression else "",
            ]
            for row in report.rows
        ],
    ))
    if report.flagged:
        print(
            f"{len(report.regressions)} regression(s) above "
            f"{report.threshold:.0%}"
        )
        if args.fail_on_regression:
            return 1
    return 0


def cmd_artefacts(args) -> int:
    """``tea-repro <artefact> | all | report | figures``: regenerate
    paper artefacts from :data:`ARTEFACTS`."""
    if args.command == "figures":
        artefacts = figure_artefacts()
    elif args.command in ("all", "report"):
        artefacts = list(ARTEFACTS.values())
    else:
        artefacts = [ARTEFACTS[args.command]]
    engine = make_engine(args)
    runner = ExperimentRunner(
        scale=args.scale, period=args.period, engine=engine
    )
    try:
        prewarm(runner, artefacts, resume=args.resume)
    except SuiteExecutionError as exc:
        print(exc.report(), file=sys.stderr)
        return 1
    if args.command == "figures":
        for path in write_figures(runner, args.out):
            print(f"wrote {path}")
        return 0
    if args.command == "report":
        print(f"wrote {write_report(runner, args.out)}")
        return 0

    failed = 0
    for artefact in artefacts:
        start = time.time()
        try:
            print(artefact.render(runner))
        except Exception as exc:
            if not args.keep_going:
                raise
            # Partial-suite mode: a failed prewarm run resurfaces
            # here; report the artefact and move on.
            failed += 1
            print(
                f"[{artefact.name}: FAILED -- "
                f"{type(exc).__name__}: {exc}]\n",
                file=sys.stderr,
            )
            continue
        print(f"[{artefact.name}: {time.time() - start:.1f}s]\n")
    return 1 if failed else 0


def cmd_fuzz(args) -> int:
    """``tea-repro fuzz``: differential scenario fuzzing."""
    from repro.backends.sampled import WindowPlan
    from repro.fuzz import DEFAULT_PLAN, corpus, fuzz_batch

    if args.window > 0:
        plan = WindowPlan(
            window=args.window, stride=args.stride, warmup=args.warmup
        )
    else:
        plan = DEFAULT_PLAN
    corpus_dir = Path(args.corpus) if args.corpus else None
    seeds = range(args.start_seed, args.start_seed + args.seeds)
    report = fuzz_batch(
        seeds,
        scale=args.scale,
        plan=plan,
        shrink=args.shrink,
        corpus_dir=corpus_dir,
        budget=args.budget,
        max_shrink_evals=args.max_shrink_evals,
        log=print if args.verbose else None,
        note=f"tea-repro fuzz --start-seed {args.start_seed}",
    )
    print(report.summary())
    if corpus_dir is not None and not report.ok:
        stats = corpus.corpus_stats(corpus_dir)
        print(
            f"corpus: {stats.entries} reproducer(s) in {corpus_dir} "
            + ", ".join(
                f"{oracle}={n}"
                for oracle, n in sorted(stats.by_oracle.items())
            )
        )
    return 0 if report.ok else 1


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(
        prog="tea-repro",
        description="Reproduction of 'TEA: Time-Proportional Event "
        "Analysis' (ISCA 2023).",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="workload scale factor (default 1.0)",
    )
    parser.add_argument(
        "--period", type=int, default=293,
        help="sampling period in cycles (default 293)",
    )
    parser.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes for suite simulation (default 1)",
    )
    parser.add_argument(
        "--retries", type=int, default=1,
        help="re-attempts per failing suite run (default 1)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="per-attempt wall-clock bound for parallel suite runs; "
        "hung workers are cancelled and re-dispatched (default: none)",
    )
    parser.add_argument(
        "--backoff", type=float, default=0.5, metavar="SECONDS",
        help="base of the jittered exponential backoff between retry "
        "attempts (default 0.5)",
    )
    parser.add_argument(
        "--keep-going", action="store_true",
        help="on suite failures, report them and continue with "
        "partial results instead of aborting",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="report how much of the suite is already checkpointed "
        "in the run store before simulating the rest (requires the "
        "store)",
    )
    parser.add_argument(
        "--store", default=None, metavar="PATH",
        help="run-store directory (default: $TEA_REPRO_STORE or "
        "~/.cache/tea-repro)",
    )
    parser.add_argument(
        "--no-store", action="store_true",
        help="disable the on-disk run store",
    )
    parser.add_argument(
        "--run-log", default=None, metavar="PATH",
        help="tea-runlog-v1 JSONL run log (default: "
        "<store>/runs.jsonl)",
    )
    parser.add_argument(
        "--no-run-log", action="store_true",
        help="disable run telemetry",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="enable observability and write a Chrome trace-event "
        "JSON (open in Perfetto or chrome://tracing)",
    )
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECONDS",
        help="enable live telemetry: workers report progress at this "
        "interval, heartbeat/resource records land in the run log as "
        "they happen, and silently stalled workers are flagged "
        "before their timeout",
    )
    parser.add_argument(
        "--stall-after", type=float, default=None, metavar="SECONDS",
        help="heartbeat silence before a running worker is flagged "
        "stalled (default: four heartbeat intervals)",
    )
    parser.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="enable observability and write a Prometheus textfile "
        "of the collected counters and gauges at exit "
        "(node-exporter textfile-collector format)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for artefact in ARTEFACTS.values():
        sub.add_parser(artefact.name, help=artefact.title)
    sub.add_parser("all", help="regenerate every artefact")

    profile_parser = sub.add_parser(
        "profile", help="profile a workload and print its PICS"
    )
    profile_parser.add_argument(
        "workload", help="workload spec, e.g. lbm or nab:fast_math=true"
    )
    profile_parser.add_argument(
        "--technique", default="TEA",
        choices=["TEA", "TIP", "NCI-TEA", "IBS", "SPE", "RIS"],
    )
    profile_parser.add_argument(
        "--granularity", default="instruction",
        choices=[g.value for g in Granularity],
    )
    profile_parser.add_argument("--top", type=int, default=10)
    profile_parser.add_argument(
        "--backend", default="detailed",
        choices=["detailed", "functional", "sampled"],
        help="execution tier: the cycle-level core (default), atomic "
        "functional execution (exact counts, no timing), or sampled "
        "simulation (detailed windows over functional fast-forward)",
    )
    profile_parser.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="sampled tier: instructions measured in detail per "
        "window (0 = plan default)",
    )
    profile_parser.add_argument(
        "--stride", type=int, default=0, metavar="N",
        help="sampled tier: instructions fast-forwarded between "
        "windows (used when --window is set)",
    )
    profile_parser.add_argument(
        "--warmup", type=int, default=0, metavar="N",
        help="sampled tier: committed-history depth replayed to warm "
        "caches/predictor per window (used when --window is set)",
    )
    profile_parser.add_argument(
        "--stats", action="store_true",
        help="print the full machine-statistics summary",
    )
    # SUPPRESS keeps the subparser from clobbering the main-parser
    # value, so both flag positions work.
    profile_parser.add_argument(
        "--trace-out", default=argparse.SUPPRESS, metavar="PATH",
        help="enable observability and write a Chrome trace-event "
        "JSON of the run (core pipeline-stage tracks included)",
    )

    advise_parser = sub.add_parser(
        "advise",
        help="profile a workload and print optimisation recommendations",
    )
    advise_parser.add_argument(
        "workload", help="workload spec or .asm file"
    )
    advise_parser.add_argument(
        "--threshold", type=float, default=0.05,
        help="minimum share of time per finding (default 0.05)",
    )

    predict_parser = sub.add_parser(
        "predict",
        help="analytical throughput prediction (no simulation); "
        "--refine diffs it against the cycle model",
    )
    predict_parser.add_argument(
        "workload", help="workload spec or .asm file"
    )
    predict_parser.add_argument(
        "--refine", action="store_true",
        help="run the cycle model and refute failed assumptions "
        "(CounterPoint-style; a warm store makes this free)",
    )
    predict_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable report",
    )
    predict_parser.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="show only the N largest blocks (default: all)",
    )
    predict_parser.add_argument(
        "--threshold", type=float, default=0.6,
        help="relative CPI error that refutes an assumption "
        "(--refine, default 0.6)",
    )
    predict_parser.add_argument(
        "--min-share", type=float, default=0.05,
        help="minimum share of cycles a block needs to be judged "
        "(--refine, default 0.05)",
    )

    diff_parser = sub.add_parser(
        "diff", help="diff the PICS of two workload variants"
    )
    diff_parser.add_argument("before", help="baseline workload spec")
    diff_parser.add_argument("after", help="changed workload spec")
    diff_parser.add_argument(
        "--technique", default="TEA",
        choices=["TEA", "TIP", "NCI-TEA", "IBS", "SPE", "RIS"],
    )
    diff_parser.add_argument("--top", type=int, default=10)

    query_parser = sub.add_parser(
        "query",
        help="analytics over a run's columnar trace store "
        "(capture once, query many)",
    )
    query_parser.add_argument(
        "workload", help="workload spec, e.g. mcf or lbm:unroll=4"
    )
    query_parser.add_argument(
        "--what", default="top",
        choices=["summary", "top", "flush-hist", "diff"],
        help="query to run (default: top)",
    )
    query_parser.add_argument(
        "--state", default="total",
        choices=["compute", "stalled", "drained", "flushed", "total"],
        help="commit-state slice to attribute (default: total)",
    )
    query_parser.add_argument(
        "--by", default="auto",
        choices=["instruction", "bb", "function", "auto"],
        help="grouping granularity (default auto: instruction, "
        "except for diffs of differently-shaped programs, which "
        "fall back to function alignment)",
    )
    query_parser.add_argument(
        "-k", "--top", dest="k", type=int, default=5,
        help="rows to show (default 5)",
    )
    query_parser.add_argument(
        "--window", type=int, default=None, metavar="X",
        help="restrict to window index X (needs --window-cycles)",
    )
    query_parser.add_argument(
        "--window-cycles", type=int, default=None, metavar="N",
        help="window length in cycles",
    )
    query_parser.add_argument(
        "--baseline", default=None, metavar="SPEC",
        help="baseline workload spec for --what diff",
    )
    query_parser.add_argument(
        "--threshold", type=float, default=0.02,
        help="share growth that flags a diff regression "
        "(default 0.02)",
    )
    query_parser.add_argument(
        "--fail-on-regression", action="store_true",
        help="exit 1 when the diff flags a regression",
    )
    query_parser.add_argument(
        "--refresh", action="store_true",
        help="recapture even when a valid trace sidecar exists",
    )
    query_parser.add_argument(
        "--json", action="store_true",
        help="emit machine-readable JSON",
    )

    figures_parser = sub.add_parser(
        "figures", help="render all paper figures as SVG"
    )
    figures_parser.add_argument(
        "--out", default="results/figures", help="output directory"
    )

    report_parser = sub.add_parser(
        "report", help="run everything and write one Markdown report"
    )
    report_parser.add_argument(
        "--out", default="results/REPORT.md", help="output file"
    )

    stats_parser = sub.add_parser(
        "stats", help="summarise the run store and telemetry log"
    )
    stats_parser.add_argument(
        "--json", action="store_true",
        help="emit the summary as machine-readable JSON "
        "(tea-stats-v2 schema)",
    )
    stats_parser.add_argument(
        "--prune", action="store_true",
        help="first delete the runs stored for other code (what the "
        "store line reports as 'other code'); the current code's runs "
        "stay",
    )

    monitor_parser = sub.add_parser(
        "monitor",
        help="live status table over a run log (tails heartbeats)",
    )
    monitor_parser.add_argument(
        "run_log_path", metavar="run-log",
        help="JSONL run log to tail (e.g. <store>/runs.jsonl)",
    )
    monitor_parser.add_argument(
        "--interval", type=float, default=1.0, metavar="SECONDS",
        help="refresh interval (default 1.0)",
    )
    monitor_parser.add_argument(
        "--once", action="store_true",
        help="render the current state once and exit",
    )
    monitor_parser.add_argument(
        "--json", action="store_true",
        help="dump the machine-readable snapshot once and exit",
    )

    health_parser = sub.add_parser(
        "health",
        help="check a run log against declarative SLO rules "
        "(tea-slo-v1); non-zero exit on violation",
    )
    health_parser.add_argument(
        "run_log_path", metavar="run-log",
        help="JSONL run log to evaluate",
    )
    health_parser.add_argument(
        "--slo", required=True, metavar="PATH",
        help="tea-slo-v1 rules file (max_stall_s, min_insts_per_sec, "
        "max_retry_rate, max_rss_kb, max_failed_labels)",
    )
    health_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable health report",
    )

    lint_parser = sub.add_parser(
        "lint",
        help="run the tea-lint invariant checkers (see "
        "docs/internals.md)",
    )
    lint_parser.add_argument(
        "paths", nargs="*", default=["src", "tests"],
        help="files or directories to lint (default: src tests)",
    )
    lint_parser.add_argument(
        "--json", action="store_true",
        help="emit the machine-readable JSON report",
    )
    lint_parser.add_argument(
        "--baseline", default=None, metavar="PATH",
        help="baseline file of grandfathered findings "
        "(default: <repo>/tealint-baseline.json)",
    )
    lint_parser.add_argument(
        "--no-baseline", action="store_true",
        help="report baselined findings as active",
    )
    lint_parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline from the current findings "
        "(existing reasons are kept)",
    )
    lint_parser.add_argument(
        "--reason", default=None, metavar="TEXT",
        help="justification recorded for entries newly added by "
        "--update-baseline (otherwise they carry a placeholder that "
        "is warned about on every run)",
    )
    lint_parser.add_argument(
        "--rule", action="append", metavar="ID",
        help="run only this rule (repeatable)",
    )
    lint_parser.add_argument(
        "--ignore", action="append", metavar="ID",
        help="skip this rule (repeatable)",
    )
    lint_parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )

    fuzz_parser = sub.add_parser(
        "fuzz",
        help="differential scenario fuzzing: generated workloads vs "
        "the cross-backend oracle set (see docs/internals.md)",
    )
    fuzz_parser.add_argument(
        "--seeds", type=int, default=50, metavar="N",
        help="number of scenario seeds to run (default 50)",
    )
    fuzz_parser.add_argument(
        "--start-seed", type=int, default=0, metavar="S",
        help="first scenario seed (default 0); batches over disjoint "
        "ranges explore disjoint scenarios",
    )
    fuzz_parser.add_argument(
        "--budget", type=float, default=None, metavar="SECONDS",
        help="wall-clock budget; no new scenario starts after it is "
        "spent (default: none)",
    )
    fuzz_parser.add_argument(
        "--shrink", action=argparse.BooleanOptionalAction, default=True,
        help="minimise failing scenarios to a reproducer "
        "(--no-shrink reports them raw)",
    )
    fuzz_parser.add_argument(
        "--max-shrink-evals", type=int, default=256, metavar="N",
        help="oracle-set evaluations allowed per shrink (default 256)",
    )
    fuzz_parser.add_argument(
        "--corpus", default=None, metavar="DIR",
        help="write shrunk reproducers to this corpus directory "
        "(commit them under tests/fuzz_corpus/ to pin the fix)",
    )
    fuzz_parser.add_argument(
        "--window", type=int, default=0, metavar="N",
        help="sampled-oracle window length (0 = fuzz default, 256)",
    )
    fuzz_parser.add_argument(
        "--stride", type=int, default=0, metavar="N",
        help="sampled-oracle fast-forward stride (used when --window "
        "is set)",
    )
    fuzz_parser.add_argument(
        "--warmup", type=int, default=0, metavar="N",
        help="sampled-oracle warm-up replay depth (used when "
        "--window is set)",
    )
    fuzz_parser.add_argument(
        "--verbose", action="store_true",
        help="print a line per scenario and shrink step",
    )

    args = parser.parse_args(argv)

    if args.resume and args.no_store:
        parser.error(
            "--resume needs the run store (drop --no-store)"
        )

    if (
        getattr(args, "trace_out", None)
        or getattr(args, "metrics_out", None)
        or getattr(args, "heartbeat", None)
    ):
        obs.enable()

    try:
        code = _dispatch(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader left early (``tea-repro ... | head``). Point stdout
        # at devnull so the exit-time flush cannot raise again (the
        # SIGPIPE note in the Python docs), and exit 1 quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    finally:
        _finish_obs(args)


def _dispatch(args) -> int:
    """Route the parsed arguments to their command."""
    if args.command == "monitor":
        return cmd_monitor(args)
    if args.command == "health":
        return cmd_health(args)
    if args.command == "profile":
        return cmd_profile(args)
    if args.command == "advise":
        return cmd_advise(args)
    if args.command == "predict":
        return cmd_predict(args)
    if args.command == "diff":
        return cmd_diff(args)
    if args.command == "query":
        return cmd_query(args)
    if args.command == "stats":
        return cmd_stats(args)
    if args.command == "lint":
        return cmd_lint(args)
    if args.command == "fuzz":
        return cmd_fuzz(args)
    return cmd_artefacts(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
