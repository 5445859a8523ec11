"""Compare two sets of interaction-benchmark results.

    python benchmarks/interaction/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``*.result.json`` files that ``run.py --out``
wrote for one commit (untraced runs only are compared).  Make the two
sets by alternating the commits, one run at a time, with the same
seeds:

    for s in 1 2 3 4 5 6 7 8 9 10; do
        (cd parent && python benchmarks/interaction/run.py --seed $s --out ../P)
        (cd change && python benchmarks/interaction/run.py --seed $s --out ../C)
    done

The script prints one row per workload and end-to-end metric, plus a
``failed_frac`` row per workload.  Each row gets one verdict:

* ``improved``: at least 10 pairs, run in alternating order.  The
  change wins at least 9 of every 10 pairs (ties count for neither).
  The medians are apart by more than the parent's interquartile range.
* ``worse``: the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``.  For ``failed_frac``,
  any rise counts as worse.
* ``unresolved``: not worse, but one side's interquartile range,
  relative to its median, is wider than the bound.  The exception is
  when every change run reads better than every parent run.
* ``unchanged``: everything else.

The i-th parent run is paired with the i-th change run, in start-time
order.  The exit code is 1 if any row is ``worse``, and 2 if the runs
differ in length or size, since those are not comparable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any

sys.path.insert(0, str(Path(__file__).resolve().parent))
from run import describe, load_spec  # noqa: E402

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(directory: Path, shapes: set[tuple[float, bool]]
              ) -> dict[str, list[dict[str, Any]]]:
    """Untraced runs per workload, in start-time order.  Adds each
    file's (run length, smoke) pair to ``shapes``."""
    runs: dict[str, list[dict[str, Any]]] = {}
    for path in sorted(directory.glob("*.result.json")):
        data = json.loads(path.read_text())
        if data["trace"]:
            continue
        shapes.add((data["seconds"], data["smoke"]))
        for run in data["runs"]:
            runs.setdefault(data["workload"], []).append(run)
    for rs in runs.values():
        rs.sort(key=lambda r: r["started"])
    return runs


def alternating(parent: list[dict[str, Any]], change: list[dict[str, Any]]) -> bool:
    """Did each side run first in about half of the pairs?"""
    firsts = [p["started"] < c["started"] for p, c in zip(parent, change)]
    return abs(2 * sum(firsts) - len(firsts)) <= 1


def verdict(p: list[float], c: list[float], lower_is_better: bool, bound: float,
            can_improve: bool) -> str:
    def better(a: float, b: float) -> bool:
        return a < b if lower_is_better else a > b

    ps, cs = describe(p), describe(c)
    pm, cm = ps["median"], cs["median"]
    wins = sum(better(cv, pv) for pv, cv in zip(p, c))
    if (can_improve and wins >= WIN_SHARE * min(len(p), len(c)) and better(cm, pm)
            and abs(cm - pm) > ps["q3"] - ps["q1"]):
        return "improved"
    worse_by = (cm - pm) / pm if lower_is_better else (pm - cm) / pm
    if worse_by > bound:
        return "worse"
    wide = any(s["median"] and (s["q3"] - s["q1"]) / abs(s["median"]) > bound
               for s in (ps, cs))
    if wide and not all(better(cv, pv) for cv in c for pv in p):
        return "unresolved"
    return "unchanged"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Compare parent and change benchmark results.")
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    spec = load_spec()
    shapes: set[tuple[float, bool]] = set()
    parent, change = load_runs(args.parent, shapes), load_runs(args.change, shapes)
    if len(shapes) > 1:
        print("error: the results mix run lengths or sizes (seconds, smoke): "
              f"{sorted(shapes)}", file=sys.stderr)
        return 2

    rows = []
    any_worse = False
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if not p_runs or not c_runs:
            print(f"{workload}: no runs on one side, skipped")
            continue
        n = min(len(p_runs), len(c_runs))
        p_runs, c_runs = p_runs[:n], c_runs[:n]
        can_improve = n >= MIN_PAIRS and alternating(p_runs, c_runs)
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["end_to_end"][name] for r in p_runs]
            c = [r["end_to_end"][name] for r in c_runs]
            v = verdict(p, c, metric["better"] == "lower", metric["bound"], can_improve)
            rows.append((workload, name, describe(p), describe(c), n, v))
        p_fail = sum(r["failed"] for r in p_runs) / sum(r["attempted"] for r in p_runs)
        c_fail = sum(r["failed"] for r in c_runs) / sum(r["attempted"] for r in c_runs)
        v = "worse" if c_fail > p_fail else "unchanged"
        rows.append((workload, "failed_frac", describe([p_fail]), describe([c_fail]), n, v))

    def cell(s: dict[str, float]) -> str:
        return f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}]"

    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'delta':>8} {'pairs':>5}  verdict")
    for workload, name, ps, cs, n, v in rows:
        delta = (cs["median"] - ps["median"]) / ps["median"] if ps["median"] else 0.0
        print(f"{workload:<16} {name:<12} {cell(ps):>32} {cell(cs):>32} "
              f"{delta:>+8.1%} {n:>5}  {v}")
        any_worse = any_worse or v == "worse"
    seeds = {r["seed"] for rs in parent.values() for r in rs}
    if seeds != {r["seed"] for rs in change.values() for r in rs}:
        print("note: the two sides were run with different seeds")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
