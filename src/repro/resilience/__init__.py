"""Resilience layer: fault injection, retry, supervision, degradation.

The paper's wall is a distributed system — a cluster of render nodes
drives 18 tiles — and production-scale visual analytics treats partial
failure as the normal case.  This subpackage is the robustness
substrate the reproduction's scaling work builds on:

* :mod:`faults` — a deterministic, seedable fault-injection harness
  (:class:`FaultPlan`) usable from tests and benchmarks, plus the
  ``REPRO_FAULTS`` environment hook;
* :mod:`retry` — :class:`RetryPolicy`: attempts per item, exponential
  backoff between retry rounds and the per-attempt timeout;
* :mod:`supervisor` — :class:`SupervisedPool`, the one process pool:
  long-lived worker processes (one channel each, so an item always runs
  on the same worker) that detect crashes, errors and hangs, respawn
  the failed worker and retry under the policy, and fall back to
  in-process serial execution (bit-identical results) when retries are
  exhausted;
* :mod:`health` — :class:`DegradationReport`, the "no silent drops"
  ledger attached to render and query results;
* :mod:`chaos` — :class:`ChaosHarness` / :class:`ChaosMonkey`, a
  seeded storm generator for the streaming-ingest rollover path
  (crash-at-boundary, attach-during-swap, stores outliving sessions)
  with conservation, stale-read, store-lifetime and shm-leak
  invariants.

The degradation ladder, top to bottom: **aggregate** (pyramid-
accelerated query) → **brute-force** (full scan, when the pyramid
failed to build) → **serial** (in-process execution of pool work).  Every step down is
recorded, never silent, and preserves exact results.
"""

from repro.resilience.chaos import (
    ROLLOVER_POINTS,
    ChaosHarness,
    ChaosInterrupt,
    ChaosMonkey,
    ChaosReport,
)
from repro.resilience.faults import (
    FAULTS_ENV_VAR,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    run_with_faults,
)
from repro.resilience.health import DegradationReport, FaultEvent
from repro.resilience.retry import DEFAULT_POLICY, RetryPolicy
from repro.resilience.supervisor import SupervisedPool

__all__ = [
    "ROLLOVER_POINTS",
    "ChaosHarness",
    "ChaosInterrupt",
    "ChaosMonkey",
    "ChaosReport",
    "FAULTS_ENV_VAR",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "run_with_faults",
    "DegradationReport",
    "FaultEvent",
    "DEFAULT_POLICY",
    "RetryPolicy",
    "SupervisedPool",
]
