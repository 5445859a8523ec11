"""Interaction-tick benchmark: the repository's one benchmark.

    python benchmarks/interaction/run.py --seed 1 [--workload W]
        [--seconds N] [--trace [0|1]] [--repeats N] [--out DIR] [--smoke]

Runs each workload (all four by default) ``--repeats`` times, each run
in a fresh process (``workloads.py``).  For each workload it prints
every metric by name with its unit, checks the program's outputs
against the program's own oracles, and prints one JSON result line:

    {"correct": true, "attempted": 23, "failed": 0,
     "metrics": {"tick_ms.p50": {"value": 951.2, "unit": "ms"}, ...}}

With ``--trace 0`` (the default) the metrics are the end-to-end metrics
of ``BENCHMARK.json``.  With ``--trace 1`` they are its per-layer
metrics, and the per-tick ledger is printed above.  Over several
repeats each value is the median.  The exit code is non-zero if a run
crashed, timed out, or failed an oracle.

``--out DIR`` also writes one ``*.result.json`` per workload: the host
block, every run's metrics, and min/quartiles/median over the repeats.
``compare.py`` reads two such directories.  Traced runs also write
their spans there, as JSONL and as Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: The command, one workload or all four, must end inside the 180 s a
#: benchmark command gets; every run's timeout comes out of this budget.
#: ``--repeats N`` gives the command N budgets.
COMMAND_BUDGET_S = 170.0
SHM_DIR = Path("/dev/shm")


def load_spec(root: Path = ROOT) -> dict[str, Any]:
    return json.loads((root / "BENCHMARK.json").read_text())


def shm_blocks() -> set[str]:
    """Names of the program's shared-memory blocks currently in /dev/shm."""
    if not SHM_DIR.is_dir():
        return set()
    return {p.name for p in SHM_DIR.glob("repro_*")}


def host_block(seed: int) -> dict[str, Any]:
    import numpy

    try:
        n_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on Linux
        n_cpus = os.cpu_count() or 0
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "n_cpus": n_cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
        "git_commit": commit,
        "seed": seed,
    }


def describe(values: list[float]) -> dict[str, float]:
    """min / quartiles / median / max, as ``statistics.quantiles`` gives them."""
    v = sorted(values)
    q1, _, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0], v[0], v[0])
    return {"n": len(v), "min": v[0], "q1": q1, "median": statistics.median(v),
            "q3": q3, "max": v[-1]}


def _kill_group(proc: subprocess.Popen[str]) -> None:
    """SIGKILL whatever is left of the child's process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def run_child(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
              out: Path | None, deadline: float) -> dict[str, Any]:
    """One workload run in a fresh process; raises RuntimeError if it
    crashed or was still running at ``deadline`` (``time.monotonic``)."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError(f"{workload}: not started, the command's time budget is spent")
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    if smoke:
        cmd.append("--smoke")
    if out is not None:
        cmd += ["--out", str(out)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    before = shm_blocks()
    # its own session, so that a timed-out run's pool workers die with it
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        _kill_group(proc)
        proc.communicate()
        raise RuntimeError(f"{workload}: timed out after {timeout:.0f} s") from None
    finally:
        _kill_group(proc)
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: run exited with code {proc.returncode}")
    result: dict[str, Any] = json.loads(lines[-1])
    leaked = sorted(shm_blocks() - before)
    if leaked:
        result["failed"] += len(leaked)
        result["errors"].append(f"shared-memory blocks left behind: {leaked}")
    return result


def summarize(workload: str, runs: list[dict[str, Any]], metrics: list[dict[str, Any]],
              trace: int) -> dict[str, Any]:
    """Repeat statistics of one workload; raises if a metric is missing."""
    section = "per_layer" if trace else "end_to_end"
    stats = {}
    for metric in metrics:
        name = metric["name"]
        missing = [r for r in runs if name not in r.get(section, {})]
        if missing:
            raise RuntimeError(f"{workload}: runs did not report {name}")
        stats[name] = {"unit": metric["unit"],
                       **describe([r[section][name] for r in runs])}
    return stats


def report(workload: str, runs: list[dict[str, Any]], stats: dict[str, dict[str, Any]],
           seconds: float, trace: int) -> dict[str, Any]:
    """Print the human table; return the JSON result line."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    checks = sum(r["oracle_checks"] for r in runs)
    print(f"== {workload}: {len(runs)} run(s) x {seconds:g} s, trace {trace} ==")
    width = max(len(n) for n in stats)
    for name, s in stats.items():
        spread = f"  [min {s['min']:.6g}, q1 {s['q1']:.6g}, q3 {s['q3']:.6g}]" if s["n"] > 1 else ""
        print(f"  {name:<{width}} {s['median']:>14.6g} {s['unit']}{spread}")
    diag = runs[-1]["diagnostics"]
    print("  diagnostics (last run): " + ", ".join(f"{k} {v:.6g}" for k, v in diag.items()))
    print(f"  oracle checks {checks}; failed {failed} of {attempted} attempted")
    for run in runs:
        for err in run["errors"]:
            print(f"  ERROR: {err.strip()}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": s["median"], "unit": s["unit"]} for n, s in stats.items()},
    }


def write_result(out: Path, workload: str, args: argparse.Namespace, seconds: float,
                 runs: list[dict[str, Any]], stats: dict[str, Any]) -> Path:
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{workload}-s{args.seed}-t{args.trace}-{int(time.time() * 1000)}.result.json"
    path.write_text(json.dumps({
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": seconds,
        "smoke": args.smoke,
        "host": host_block(args.seed),
        "runs": runs,
        "stats": stats,
    }, indent=1))
    return path


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True,
                   help="drives the generated inputs and the oracle samples")
    p.add_argument("--workload", choices=names, help="one workload (default: all)")
    p.add_argument("--seconds", type=float,
                   help=f"measured loop length (BENCHMARK.json run_seconds, "
                        f"{spec['run_seconds']}; smoke 1)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
                   help="1: traced run reporting the per-layer metrics")
    p.add_argument("--repeats", type=int, default=1, help="runs per workload")
    p.add_argument("--out", type=Path, help="directory for result files and spans")
    p.add_argument("--smoke", action="store_true",
                   help="tiny dataset and wall, for tests; numbers are not comparable")
    args = p.parse_args(argv)
    if args.repeats < 1:
        p.error("--repeats must be >= 1")
    seconds = args.seconds or (1.0 if args.smoke else float(spec["run_seconds"]))
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + COMMAND_BUDGET_S * args.repeats
    ok = True
    for workload in [args.workload] if args.workload else names:
        runs = []
        crashed = 0
        for _ in range(args.repeats):
            started = time.time()
            try:
                result = run_child(workload, args.seed, seconds, args.trace, args.smoke,
                                   args.out, deadline)
            except RuntimeError as exc:
                print(f"ERROR: {exc}", file=sys.stderr)
                crashed += 1
                continue
            result["started"] = started
            runs.append(result)
        ok = ok and not crashed
        if not runs:
            continue
        try:
            stats = summarize(workload, runs, metrics, args.trace)
        except RuntimeError as exc:
            print(f"ERROR: {exc}", file=sys.stderr)
            ok = False
            continue
        line = report(workload, runs, stats, seconds, args.trace)
        if crashed:  # a run that died counts as one failed operation
            line.update(correct=False, attempted=line["attempted"] + crashed,
                        failed=line["failed"] + crashed)
        if args.out is not None:
            print(f"  result file: {write_result(args.out, workload, args, seconds, runs, stats)}")
        ok = ok and line["correct"]
        print(json.dumps(line), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
