"""Fault-plan determinism and the worker wrapper."""

import pytest

from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    run_with_faults,
)

pytestmark = pytest.mark.resilience


def _square(x):
    return x * x


class TestFaultSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            FaultSpec("frobnicate", p=0.5)
        with pytest.raises(ValueError):
            FaultSpec("crash", p=1.5)
        with pytest.raises(ValueError):
            FaultSpec("crash")  # targets nothing
        with pytest.raises(ValueError):
            FaultSpec("crash", job=1, times=0)

    def test_roundtrip(self):
        spec = FaultSpec("slow", job=3, times=2, delay_s=0.5)
        assert FaultSpec.from_dict(spec.to_dict()) == spec


class TestFaultPlanDeterminism:
    def test_same_seed_same_fires(self):
        a = FaultPlan.crash_fraction(0.5, seed=42)
        b = FaultPlan.crash_fraction(0.5, seed=42)
        fires_a = [a.fires(j, t) is not None for j in range(200) for t in range(3)]
        fires_b = [b.fires(j, t) is not None for j in range(200) for t in range(3)]
        assert fires_a == fires_b

    def test_different_seed_different_fires(self):
        a = FaultPlan.crash_fraction(0.5, seed=1)
        b = FaultPlan.crash_fraction(0.5, seed=2)
        assert a.planned_jobs(200) != b.planned_jobs(200)

    def test_fire_rate_near_p(self):
        plan = FaultPlan.crash_fraction(0.3, seed=7)
        rate = len(plan.planned_jobs(2000)) / 2000
        assert 0.25 < rate < 0.35

    def test_attempts_draw_independently(self):
        plan = FaultPlan.crash_fraction(0.5, seed=9)
        at0 = set(plan.planned_jobs(200, attempt=0))
        at1 = set(plan.planned_jobs(200, attempt=1))
        assert at0 != at1  # retries get a fresh draw

    def test_job_targeting(self):
        plan = FaultPlan(specs=(FaultSpec("error", job=3, times=2),))
        assert plan.fires(3, 0) is not None
        assert plan.fires(3, 1) is not None
        assert plan.fires(3, 2) is None  # times exhausted
        assert plan.fires(2, 0) is None

    def test_worker_targeting_needs_ordinal(self):
        plan = FaultPlan(specs=(FaultSpec("error", worker=1),))
        assert plan.fires(0, 0) is None  # ordinal unknown: cannot fire
        assert plan.fires(0, 0, worker=1) is not None
        assert plan.fires(0, 0, worker=0) is None

    def test_json_roundtrip(self):
        plan = FaultPlan(
            specs=(FaultSpec("crash", p=0.3), FaultSpec("slow", job=1, delay_s=0.1)),
            seed=5,
        )
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan

    def test_from_env(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert FaultPlan.from_env() is None
        plan = FaultPlan.crash_fraction(0.25, seed=3)
        monkeypatch.setenv(FAULTS_ENV_VAR, plan.to_json())
        assert FaultPlan.from_env() == plan

    def test_from_env_malformed(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "{not json")
        with pytest.raises(ValueError):
            FaultPlan.from_env()


class TestRunWithFaults:
    def test_no_plan_passthrough(self):
        assert run_with_faults(_square, 6, 0, 0, None) == 36

    def test_no_fire_passthrough(self):
        plan = FaultPlan(specs=(FaultSpec("error", job=5),))
        assert run_with_faults(_square, 6, 0, 0, plan) == 36

    def test_error_fault_raises(self):
        plan = FaultPlan(specs=(FaultSpec("error", job=0),))
        with pytest.raises(InjectedFault) as ei:
            run_with_faults(_square, 6, 0, 0, plan)
        assert ei.value.kind == "error"
        assert ei.value.job == 0

    def test_slow_fault_still_correct(self):
        plan = FaultPlan(specs=(FaultSpec("slow", job=0, delay_s=0.01),))
        assert run_with_faults(_square, 6, 0, 0, plan) == 36

    def test_injected_fault_survives_pickling(self):
        import pickle

        exc = InjectedFault("error", 4, 1)
        back = pickle.loads(pickle.dumps(exc))
        assert (back.kind, back.job, back.attempt) == ("error", 4, 1)
