"""How hard the supervisor tries: the retry policy.

A :class:`RetryPolicy` governs :class:`repro.resilience.SupervisedPool`:
up to ``max_attempts`` tries per item, a backoff sleep between retry
rounds that grows geometrically from ``base_delay_s`` and is capped at
``max_delay_s``, and an optional per-attempt timeout after which the
worker running the item is killed and respawned.  The schedule is
deterministic, so tests assert exact backoff delays through the pool's
injectable sleep without waiting real time.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy", "DEFAULT_POLICY"]


@dataclass(frozen=True)
class RetryPolicy:
    """How hard to try.

    Attributes
    ----------
    max_attempts:
        Total tries including the first (>= 1).
    base_delay_s:
        Delay before the first retry.
    multiplier:
        Geometric backoff factor per further retry.
    max_delay_s:
        Delay ceiling.
    attempt_timeout_s:
        Per-attempt wall-clock budget (None = unbounded); the
        supervisor kills a worker whose attempt outlives it.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    multiplier: float = 2.0
    max_delay_s: float = 2.0
    attempt_timeout_s: float | None = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay_s < 0 or self.max_delay_s < 0:
            raise ValueError("delays must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.attempt_timeout_s is not None and self.attempt_timeout_s <= 0:
            raise ValueError("attempt_timeout_s must be positive")

    def delay_for(self, retry_index: int) -> float:
        """Backoff delay before retry ``retry_index`` (0 = first retry):
        ``min(base * multiplier**i, max)``."""
        if retry_index < 0:
            raise ValueError("retry_index must be >= 0")
        return min(self.base_delay_s * self.multiplier**retry_index, self.max_delay_s)


#: Library-wide defaults: 3 attempts, 50 ms base delay doubling to a
#: 2 s cap, no per-attempt timeout.
DEFAULT_POLICY = RetryPolicy()
