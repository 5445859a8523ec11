"""Shared fixtures.

Session-scoped datasets keep the suite fast: the behavioural generator
is deterministic, so sharing is safe as long as tests never mutate
(trajectory arrays are read-only by construction, which tests verify).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.aggregate import SummaryPyramid
from repro.core.engine import CoordinatedBrushingEngine
from repro.display.presets import cyber_commons_wall, paper_viewport
from repro.synth import AntStudyConfig, Arena, generate_study_dataset
from repro.trajectory.dataset import TrajectoryDataset
from repro.trajectory.model import Trajectory, TrajectoryMeta


@pytest.fixture(scope="session")
def arena() -> Arena:
    return Arena()


@pytest.fixture(scope="session")
def study_dataset() -> TrajectoryDataset:
    """A mid-size study dataset (150 trajectories, fixed seed)."""
    return generate_study_dataset(AntStudyConfig(n_trajectories=150, seed=7))


@pytest.fixture()
def unbuilt_engine(study_dataset, monkeypatch):
    """An engine over ``study_dataset`` whose summary-pyramid build
    failed: it answers every query by brute force."""

    def fail(*args, **kwargs):
        raise RuntimeError("no memory for the pyramid")

    monkeypatch.setattr(SummaryPyramid, "build", fail)
    engine = CoordinatedBrushingEngine(study_dataset)
    monkeypatch.undo()
    assert engine.pyramid is None
    return engine


@pytest.fixture(scope="session")
def full_dataset() -> TrajectoryDataset:
    """The paper-scale 500-trajectory dataset (default seed)."""
    return generate_study_dataset(AntStudyConfig(n_trajectories=500))


@pytest.fixture(scope="session")
def wall():
    return cyber_commons_wall()


@pytest.fixture(scope="session")
def viewport(wall):
    return paper_viewport(wall)


@pytest.fixture()
def simple_traj() -> Trajectory:
    """A deterministic, hand-checkable trajectory: straight east walk,
    1 m in 10 s, 11 samples."""
    t = np.linspace(0.0, 10.0, 11)
    pos = np.stack([np.linspace(0.0, 1.0, 11), np.zeros(11)], axis=1)
    return Trajectory(pos, t, TrajectoryMeta(capture_zone="east"), traj_id=0)


@pytest.fixture()
def l_shaped_traj() -> Trajectory:
    """East 1 m then north 1 m, 21 samples over 20 s."""
    xs = np.concatenate([np.linspace(0, 1, 11), np.full(10, 1.0)])
    ys = np.concatenate([np.zeros(11), np.linspace(0.1, 1.0, 10)])
    t = np.linspace(0.0, 20.0, 21)
    return Trajectory(np.stack([xs, ys], axis=1), t, TrajectoryMeta(), traj_id=1)


@pytest.fixture()
def tiny_dataset(simple_traj, l_shaped_traj) -> TrajectoryDataset:
    ds = TrajectoryDataset(name="tiny")
    ds.append(
        Trajectory(simple_traj.positions, simple_traj.times, simple_traj.meta, -1)
    )
    ds.append(
        Trajectory(l_shaped_traj.positions, l_shaped_traj.times, l_shaped_traj.meta, -1)
    )
    return ds
