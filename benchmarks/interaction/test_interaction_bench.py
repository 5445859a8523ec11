"""Checks of the interaction benchmark itself, at smoke size.

    PYTHONPATH=src python -m pytest benchmarks/interaction

Each workload runs untraced and traced through ``run.py --smoke``.
The tests check three things: every ``BENCHMARK.json`` metric is
printed with its unit, the oracles pass, and the span wrappers are
gone after a traced run.  The command also has to fail cleanly when
the program is missing, and ``compare.py`` has to give the verdicts
its docstring promises.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import trace as span_trace  # noqa: E402
import workloads  # noqa: E402
from run import load_spec  # noqa: E402

SPEC = load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "benchmarks/interaction/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_unit_and_oracles_pass(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], float)
        # the human table names the metric next to its unit, too
        assert any(metric["name"] in line and line.rstrip().endswith(metric["unit"])
                   for line in lines[:-1]), metric["name"]
    if trace == "1":
        assert any(line.startswith("per-tick ledger") for line in lines)
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def _attributes() -> list[tuple[object, str, object]]:
    out = []
    for module_name, path, _, _ in span_trace.WRAPPED:
        owner: object = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        out.append((owner, attr, vars(owner)[attr]))
    return out


@pytest.mark.parametrize("workload", ["brush-pooled", "analysts-ingest"])
def test_wrappers_are_removed_after_a_traced_run(workload):
    before = _attributes()
    result = workloads.run_workload(workload, 1, 0.3, True, workloads.SMOKE)
    assert result["failed"] == 0, result["errors"]
    assert result["per_layer"]["trace.attributed_frac.min"] > 0
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still wrapped"


def test_restore_undoes_every_patch_when_the_traced_code_raises():
    before = _attributes()
    rec = span_trace.SpanRecorder()
    with pytest.raises(RuntimeError), rec.traced():
        assert all(vars(owner)[attr] is not orig for owner, attr, orig in before)
        raise RuntimeError("boom")
    assert not rec.installed
    assert all(vars(owner)[attr] is orig for owner, attr, orig in before)


def test_ledger_layers_add_up_to_the_tick_wall():
    rec = span_trace.SpanRecorder()
    with rec.tick(0) as tick:
        with rec.span("outer") as outer, rec.span("inner"):
            pass
        rec.add_child(tick, "reported", outer.end, 1e-6)
    row = span_trace.tick_ledger(rec.spans)[0]
    assert set(row) == {"wall", "unattributed", "outer", "inner", "reported"}
    parts = sum(v for k, v in row.items() if k != "wall")
    assert parts == pytest.approx(row["wall"], abs=1e-12)


def test_query_oracle_detects_a_flipped_segment():
    ds = workloads.generate_study_dataset(workloads.AntStudyConfig(n_trajectories=20))
    engine = workloads.CoordinatedBrushingEngine(ds, use_index=False)
    canvas = workloads.BrushCanvas()
    canvas.add(workloads.StrokeStream(np.random.default_rng(0)).next("red"))
    a = engine.query(canvas, "red")
    b = engine.query(workloads.copy_canvas(canvas), "red")
    assert workloads.result_mismatch(a, b) is None
    flipped = a.segment_mask.copy()
    flipped[0] = ~flipped[0]
    assert workloads.result_mismatch(a, replace(b, segment_mask=flipped)) == "segment_mask"


def test_fails_without_printing_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "interaction",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "brush-frame", "--seed", "1", "--smoke", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _result_file(directory: Path, name: str, values: list[float], t0: float,
                 seconds: float = 25.0) -> None:
    runs = [{"started": t0 + 2 * i, "seed": i, "attempted": 10, "failed": 0,
             "end_to_end": {m["name"]: v for m in SPEC["end_to_end"]}}
            for i, v in enumerate(values)]
    directory.mkdir(exist_ok=True)
    (directory / f"{name}.result.json").write_text(json.dumps({
        "workload": "brush-frame", "trace": 0, "seconds": seconds, "smoke": False,
        "runs": runs}))


def test_compare_verdicts(tmp_path, capsys):
    noise = [1.0, 1.01, 0.99, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0, 1.0]
    _result_file(tmp_path / "parent", "p", noise, 0.0)
    _result_file(tmp_path / "same", "c", noise, 1.0)
    _result_file(tmp_path / "slow", "c", [v * 1.5 for v in noise], 1.0)
    # alternate which side ran first: odd pairs start with the change
    _result_file(tmp_path / "fast", "c", [v * 0.5 for v in noise], 1.0)
    runs = json.loads((tmp_path / "fast" / "c.result.json").read_text())
    for i, run in enumerate(runs["runs"]):
        run["started"] = 2 * i + (1.0 if i % 2 == 0 else -1.0)
    (tmp_path / "fast" / "c.result.json").write_text(json.dumps(runs))

    def verdicts(change: str) -> dict[str, str]:
        """metric -> verdict of the brush-frame rows."""
        capsys.readouterr()
        compare.main([str(tmp_path / "parent"), str(tmp_path / change)])
        rows = capsys.readouterr().out.splitlines()[1:]
        return {r.split()[1]: r.split()[-1] for r in rows if r.startswith("brush-frame")}

    assert set(verdicts("same").values()) == {"unchanged"}
    assert verdicts("slow")["tick_ms.p50"] == "worse"
    assert verdicts("fast")["tick_ms.p50"] == "improved"

    _result_file(tmp_path / "short", "c", noise, 1.0, seconds=10.0)
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "short")]) == 2
