"""Chaos-harness tests (PR 6): seeded fault storms over the streaming
ingest lifecycle, asserting the crash-safety invariants end to end.

Every run checks, continuously:

* **conservation** — resident + pending trajectories always account
  for everything fed in (no lost or duplicated segments);
* **oracle agreement** — each session's query matches a brute-force
  engine over that session's pinned epoch (no stale-epoch cache hits);
* **store lifetime** — every store handle the run was given attaches
  exactly while its epoch is live in the service;
* **no leaks** — harness close asserts zero leftover shared blocks.

Runs are small (tier-1 executes these); the CI ``chaos`` job re-runs
the marked subset on its own leg.
"""

from __future__ import annotations

import pytest

from repro.resilience import (
    ROLLOVER_POINTS,
    ChaosHarness,
    ChaosInterrupt,
    ChaosMonkey,
    FaultPlan,
    FaultSpec,
)
from repro.synth import AntStudyConfig, generate_study_dataset

pytestmark = pytest.mark.chaos


def _dataset(n: int = 12, seed: int = 13):
    return generate_study_dataset(AntStudyConfig(n_trajectories=n, seed=seed))


def _stream(n: int = 30, seed: int = 14):
    return list(generate_study_dataset(AntStudyConfig(n_trajectories=n, seed=seed)))


# ChaosMonkey unit behavior --------------------------------------------------

class TestChaosMonkey:
    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown rollover point"):
            ChaosMonkey({"mid_swap": FaultPlan()})

    def test_targeted_crash_fires_once_and_records(self):
        monkey = ChaosMonkey(
            {"pre_swap": FaultPlan(specs=(FaultSpec("crash", job=1),))}
        )
        monkey("pre_swap")  # ordinal 0: no fault
        with pytest.raises(ChaosInterrupt) as exc:
            monkey("pre_swap")  # ordinal 1: crash
        assert (exc.value.point, exc.value.ordinal) == ("pre_swap", 1)
        monkey("pre_swap")  # ordinal 2: quiet again
        assert monkey.calls["pre_swap"] == 3
        assert monkey.fired == [("pre_swap", 1, "crash")]

    def test_error_kind_raises_injected_fault(self):
        from repro.resilience import InjectedFault

        monkey = ChaosMonkey(
            {"post_stage": FaultPlan(specs=(FaultSpec("error", job=0),))}
        )
        with pytest.raises(InjectedFault):
            monkey("post_stage")


# Harness runs ---------------------------------------------------------------

class TestChaosHarness:
    def test_fault_free_baseline(self):
        with ChaosHarness(_dataset(), _stream(), seed=3) as harness:
            report = harness.run(25)
        assert report.steps == 25
        assert report.crashes == 0
        assert report.queries > 0
        assert report.rollovers > 0
        # the store lifetime rule was checked both ways: kept handles of
        # live epochs attached, those of retired epochs were stale
        assert report.attaches > 0 and report.stale_attaches > 0

    @pytest.mark.parametrize("point", ROLLOVER_POINTS)
    def test_targeted_crash_at_every_point(self, point):
        """Kill the coordinator at each lifecycle point in turn; the
        harness must absorb the crash and keep every invariant."""
        monkey = ChaosMonkey(
            {point: FaultPlan(specs=(FaultSpec("crash", job=1),))}
        )
        with ChaosHarness(_dataset(), _stream(), seed=5, monkey=monkey) as harness:
            report = harness.run(25)
        if point == "post_swap":
            # the swap already happened; the interrupt lands after and
            # the batch was committed, so nothing needs recovery
            assert report.crashes >= 0
        else:
            assert report.crashes == len(report.fired)
        assert all(p == point for p, _ordinal, _kind in report.fired)

    def test_probabilistic_crash_storm(self):
        monkey = ChaosMonkey(
            {
                "post_stage": FaultPlan.crash_fraction(0.4, seed=11),
                "pre_swap": FaultPlan.crash_fraction(0.25, seed=12),
            }
        )
        with ChaosHarness(_dataset(), _stream(40), seed=7, monkey=monkey) as harness:
            report = harness.run(30)
        assert report.crashes > 0  # the storm actually fired
        assert report.queries > 0  # and queries kept answering correctly

    def test_same_seed_reproduces_schedule(self):
        def run(seed: int):
            monkey = ChaosMonkey({"pre_swap": FaultPlan.crash_fraction(0.3, seed=2)})
            with ChaosHarness(
                _dataset(), _stream(), seed=seed, monkey=monkey
            ) as harness:
                r = harness.run(20)
            return (
                r.steps, r.appended, r.rollovers, r.crashes, r.queries,
                r.rebinds, r.sessions_opened, tuple(r.fired),
            )

        assert run(21) == run(21)
        # and the seed actually steers the schedule
        assert run(21) != run(22)
