"""Shared benchmark fixtures and the experiment-report sink.

Every benchmark regenerates one table/figure of the paper (see
DESIGN.md §4).  Besides timing, each writes its reproduction table to
``benchmarks/out/<exp>.txt`` and echoes it to stdout (visible with
``pytest -s`` or in the captured output of a failing run) so the
paper-vs-measured comparison in EXPERIMENTS.md can be regenerated from
the files.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from repro.display.presets import cyber_commons_wall, paper_viewport
from repro.synth import AntStudyConfig, Arena, generate_study_dataset

OUT_DIR = Path(__file__).parent / "out"


class Host(NamedTuple):
    """The host a benchmark ran on: its JSON artifact records
    ``host._asdict()`` and its report prints :attr:`line`."""

    n_cpus: int  # usable CPUs (this process's affinity)
    python: str
    numpy: str

    @property
    def line(self) -> str:
        return f"host: {self.n_cpus} usable CPUs, Python {self.python}, NumPy {self.numpy}"


@pytest.fixture(scope="session")
def arena() -> Arena:
    return Arena()


@pytest.fixture(scope="session")
def full_dataset():
    """The paper-scale dataset: ~500 trajectories, default seed."""
    return generate_study_dataset(AntStudyConfig(n_trajectories=500))


@pytest.fixture(scope="session")
def wall():
    return cyber_commons_wall()


@pytest.fixture(scope="session")
def viewport(wall):
    return paper_viewport(wall)


@pytest.fixture(scope="session")
def host() -> Host:
    return Host(len(os.sched_getaffinity(0)), platform.python_version(), np.__version__)


@pytest.fixture(scope="session")
def report_sink():
    """Write an experiment table to benchmarks/out/ and stdout."""
    OUT_DIR.mkdir(exist_ok=True)

    def write(exp_id: str, title: str, lines: list[str]) -> None:
        text = "\n".join([f"=== {exp_id}: {title} ===", *lines, ""])
        (OUT_DIR / f"{exp_id}.txt").write_text(text)
        print("\n" + text)

    return write
