"""Compare two sets of benchmark runs.

    python bench/compare.py BASE.json... --vs NEW.json...
    python bench/compare.py bench/results/baseline.json

Inputs are ``run.py --out`` files; a file holding ``"sets"`` (as the
committed baseline does) is compared set against set. For every
(workload, metric) the report gives each side's median and quartiles,
the fraction of same-seed pairs the new side wins, and a verdict:

* ``improved`` -- over at least ten pairs, the new side wins at least
  nine in ten and the medians differ by more than the base side's
  inter-quartile distance;
* ``regressed`` -- the new median is worse than the base median by more
  than the metric's bound, or, over at least ten pairs, the new side
  loses at least nine in ten and the medians differ by more than the
  base side's inter-quartile distance;
* ``unresolved`` -- the base side's own spread is wider than the bound,
  so no regression can be ruled out (unless every new run is better
  than every base run);
* ``unchanged`` -- none of the above.

Deterministic metrics (counts and accuracy) are compared exactly;
any difference at the same seed is reported as ``model changed``.
Exits 1 when any pair regressed or the model changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from metrics import (
    DETERMINISTIC,
    EXTRA_END_TO_END,
    benchmark_spec,
    quartiles,
    spread,
)

#: Same-seed pairs a gain needs before it can be claimed.
MIN_PAIRS = 10


def load_sets(paths: list[Path]) -> list[list[dict]]:
    """The run lists in *paths*: one set, or a file's own sets."""
    docs = [json.loads(p.read_text()) for p in paths]
    if len(docs) == 1 and "sets" in docs[0]:
        return docs[0]["sets"]
    return [[run for doc in docs for run in doc["runs"]]]


def _by_seed(runs: list[dict], workload: str, name: str) -> dict[int, float]:
    values = {}
    for run in runs:
        if run["workload"] != workload:
            continue
        metric = (run["metrics"].get(name)
                  or run.get("extra_metrics", {}).get(name))
        if metric is not None and metric["value"] is not None:
            values.setdefault(run["seed"], metric["value"])
    return values


def verdict(
    base: list[float], new: list[float], pairs: list[tuple[float, float]],
    better: str, bound: float | None, deterministic: bool,
) -> tuple[str, float]:
    """``(verdict, win fraction)`` for one (workload, metric)."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    losses = sum(1 for b, n in pairs if sign * (n - b) < 0)
    win = wins / len(pairs) if pairs else 0.0
    if deterministic:
        same = all(b == n for b, n in pairs)
        return ("identical" if same else "model changed"), win
    q1, base_med, q3 = quartiles(base)
    gain = sign * (statistics.median(new) - base_med)
    enough = len(pairs) >= MIN_PAIRS
    if enough and win >= 0.9 and gain > q3 - q1:
        return "improved", win
    if bound is None:
        return "-", win
    # The gain rule mirrored: same-seed pairs run back to back share the
    # machine's drift, so they resolve a slowdown smaller than the bound.
    if enough and losses >= 0.9 * len(pairs) and -gain > q3 - q1:
        return "regressed", win
    if spread(base) > bound:
        all_better = all(sign * (n - b) > 0 for n in new for b in base)
        return ("unchanged" if all_better else "unresolved"), win
    worse = -gain / abs(base_med) if base_med else -gain
    return ("regressed" if worse > bound else "unchanged"), win


def compare(base_runs: list[dict], new_runs: list[dict]) -> list[dict]:
    """One row per (workload, metric) present on both sides."""
    spec = benchmark_spec()
    rows = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for metric in [*spec["end_to_end"], *EXTRA_END_TO_END,
                       *spec["per_layer"]]:
            name = metric["name"]
            base = _by_seed(base_runs, workload, name)
            new = _by_seed(new_runs, workload, name)
            if not base or not new:
                continue
            pairs = [(base[s], new[s]) for s in sorted(base) if s in new]
            result, win = verdict(
                list(base.values()), list(new.values()), pairs,
                metric["better"], metric.get("bound"), name in DETERMINISTIC,
            )
            rows.append({
                "workload": workload, "metric": name,
                "base": quartiles(list(base.values())),
                "new": quartiles(list(new.values())),
                "win": win, "verdict": result,
            })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base", type=Path, nargs="+")
    parser.add_argument("--vs", type=Path, nargs="+", default=[],
                        help="the new side's files")
    args = parser.parse_args(argv)
    base_sets = load_sets(args.base)
    if args.vs:
        base_runs, new_runs = base_sets[0], load_sets(args.vs)[0]
    elif len(base_sets) == 2:
        base_runs, new_runs = base_sets
    else:
        parser.error("give --vs files, or one file holding two sets")

    def fmt(q):
        return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]".rjust(34)

    print(f"{'workload':18s} {'metric':30s} {'base median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'win':>5s}  verdict")
    counts: dict[str, int] = {}
    for r in compare(base_runs, new_runs):
        print(f"{r['workload']:18s} {r['metric']:30s} {fmt(r['base'])} "
              f"{fmt(r['new'])} {r['win']:5.2f}  {r['verdict']}")
        counts[r["verdict"]] = counts.get(r["verdict"], 0) + 1
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
    bad = counts.get("regressed", 0) + counts.get("model changed", 0)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
