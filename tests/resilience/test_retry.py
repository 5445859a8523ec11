"""Retry policy unit tests: the backoff schedule and validation."""

import pytest

from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy

pytestmark = pytest.mark.resilience


class TestPolicy:
    def test_defaults(self):
        assert DEFAULT_POLICY.max_attempts == 3
        assert DEFAULT_POLICY.base_delay_s == 0.05
        assert DEFAULT_POLICY.multiplier == 2.0
        assert DEFAULT_POLICY.max_delay_s == 2.0
        assert DEFAULT_POLICY.attempt_timeout_s is None

    def test_exponential_schedule_no_jitter(self):
        p = RetryPolicy(base_delay_s=0.1, multiplier=2.0, max_delay_s=10.0)
        assert [p.delay_for(i) for i in range(4)] == [0.1, 0.2, 0.4, 0.8]

    def test_delay_capped(self):
        p = RetryPolicy(base_delay_s=1.0, multiplier=10.0, max_delay_s=3.0)
        assert p.delay_for(5) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(attempt_timeout_s=0.0)
        with pytest.raises(ValueError):
            RetryPolicy().delay_for(-1)
