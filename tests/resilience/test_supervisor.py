"""Supervisor behaviour: respawn, retry, serial fallback — always the
same results a plain serial loop would produce."""

import pytest

from repro.resilience.faults import FaultPlan, FaultSpec
from repro.resilience.retry import RetryPolicy
from repro.resilience.supervisor import SupervisedPool

pytestmark = pytest.mark.resilience

FAST = RetryPolicy(max_attempts=3, base_delay_s=0.0)


def _square(x):
    return x * x


def _expected(n):
    return [x * x for x in range(n)]


class TestHealthyPath:
    def test_matches_serial(self):
        with SupervisedPool(2, policy=FAST) as pool:
            assert pool.map(_square, list(range(10))) == _expected(10)
        assert not pool.report.degraded

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisedPool(0)

    def test_workers_live_across_maps(self):
        with SupervisedPool(2, policy=FAST) as pool:
            assert pool.map(_square, list(range(4))) == _expected(4)
            pids = pool.pids
            assert len(pids) == 2
            assert pool.map(_square, list(range(6))) == _expected(6)
            assert pool.pids == pids
        assert pool.pids == ()

    def test_an_aborted_map_leaves_no_stale_reply(self):
        """Workers still owing replies when ``map`` raises are dropped,
        so the next ``map`` never reads the aborted one's answers.

        Worker 0 has its request (10, 12, 14) when worker 1's fails to
        pickle (a lambda), so worker 0 owes three replies."""
        with SupervisedPool(2, policy=FAST) as pool:
            with pytest.raises(Exception, match="pickle"):
                pool.map(_square, [10, lambda: 1, 12, 13, 14, 15])
            assert pool.map(_square, list(range(6))) == _expected(6)


class TestFaultAbsorption:
    def test_error_fault_retried(self):
        plan = FaultPlan(specs=(FaultSpec("error", job=2, times=1),))
        with SupervisedPool(2, policy=FAST, fault_plan=plan) as pool:
            assert pool.map(_square, list(range(6))) == _expected(6)
        assert pool.report.degraded
        assert pool.report.n_retried == 1
        assert pool.report.jobs_touched() == {2}
        [event] = pool.report.events
        assert event.kind == "injected-error"
        assert event.attempt == 0

    def test_exhausted_job_falls_back_serial(self):
        # every attempt fails -> the job must complete in-process
        plan = FaultPlan(specs=(FaultSpec("error", job=1, times=99),))
        with SupervisedPool(2, policy=FAST, fault_plan=plan) as pool:
            assert pool.map(_square, list(range(4))) == _expected(4)
        assert pool.report.n_fallbacks == 1
        actions = [e.action for e in pool.report.events if e.job == 1]
        assert actions == ["retried", "retried", "serial-fallback"]

    def test_hard_crash_respawns_pool(self):
        plan = FaultPlan(specs=(FaultSpec("crash", job=0, times=1),))
        with SupervisedPool(2, policy=FAST, fault_plan=plan) as pool:
            assert pool.map(_square, list(range(6))) == _expected(6)
        kinds = pool.report.by_kind()
        assert any("crash" in k for k in kinds)
        assert 0 in pool.report.jobs_touched()

    def test_hang_killed_by_timeout(self):
        plan = FaultPlan(specs=(FaultSpec("hang", job=1, times=1, delay_s=30.0),))
        policy = RetryPolicy(
            max_attempts=3, base_delay_s=0.0, attempt_timeout_s=0.5
        )
        with SupervisedPool(2, policy=policy, fault_plan=plan) as pool:
            assert pool.map(_square, list(range(4))) == _expected(4)
        assert "timeout" in pool.report.by_kind()

    def test_probabilistic_crashes_all_jobs_complete(self):
        plan = FaultPlan.crash_fraction(0.3, seed=5, kind="error")
        with SupervisedPool(2, policy=FAST, fault_plan=plan) as pool:
            assert pool.map(_square, list(range(20))) == _expected(20)
        # every planned first-attempt fault is accounted for
        planned = set(plan.planned_jobs(20))
        assert planned, "plan must actually fire for this test to bite"
        assert planned <= pool.report.jobs_touched()

    def test_backoff_uses_policy_schedule(self):
        delays = []
        plan = FaultPlan(specs=(FaultSpec("error", job=0, times=2),))
        policy = RetryPolicy(max_attempts=3, base_delay_s=0.2)
        with SupervisedPool(
            2, policy=policy, fault_plan=plan, sleep=delays.append
        ) as pool:
            assert pool.map(_square, [5]) == [25]
        assert delays == [0.2, 0.4]
