"""Deterministic fault injection.

A :class:`FaultPlan` is a seeded, fully deterministic description of
which faults fire where: at a specific job index, at a specific worker
ordinal, or with probability ``p`` per (job, attempt) draw.  Both the
parent (the supervisor, for attribution) and the workers (for actually
misbehaving) evaluate the same plan and agree exactly on what fires,
which is what lets tests assert "the report accounts for every injected
fault" without any cross-process bookkeeping.

Fault kinds:

* ``"crash"``   — the worker process hard-exits (``os._exit``) before
  replying, and whatever it held in memory dies with it (the ugliest
  real-world failure);
* ``"error"``   — the job raises :class:`InjectedFault`;
* ``"hang"``    — the job sleeps ``delay_s`` (pair with a per-attempt
  timeout to exercise the kill-and-respawn path), then raises;
* ``"slow"``    — the job sleeps ``delay_s`` and then completes
  normally (latency injection, results stay correct).

There is no torn-payload kind: a reply torn on the pipe surfaces in the
parent as end of file or an ``OSError``, which is the ``crash`` case.

Plans also load from the environment (``REPRO_FAULTS`` holding the JSON
form) so any benchmark or example can run under faults without code
changes::

    REPRO_FAULTS='{"seed": 7, "specs": [{"kind": "crash", "p": 0.3}]}'
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = [
    "FAULT_KINDS",
    "FAULTS_ENV_VAR",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "run_with_faults",
]

#: Recognized fault kinds.
FAULT_KINDS = ("crash", "error", "hang", "slow")

#: Environment variable holding a JSON fault plan.
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Worker ordinal installed when a supervised worker starts
#: (None in the parent / serial execution).
_WORKER_ORDINAL: int | None = None


class InjectedFault(RuntimeError):
    """Raised by a job when an injected ``error``/``hang`` fault fires."""

    def __init__(self, kind: str, job: int, attempt: int) -> None:
        super().__init__(f"injected {kind} fault (job {job}, attempt {attempt})")
        self.kind = kind
        self.job = job
        self.attempt = attempt

    def __reduce__(self):
        # exceptions pickle via ``args``; rebuild from our real fields so
        # the instance crosses the process boundary intact (a failed
        # unpickle would kill the executor's result thread — a fake
        # pool crash)
        return (type(self), (self.kind, self.job, self.attempt))


@dataclass(frozen=True)
class FaultSpec:
    """One fault rule.

    Exactly one targeting mode is active: an explicit ``job`` and/or
    ``worker`` target (fires on attempts ``< times``), or a probability
    ``p`` drawn deterministically per (job, attempt).
    """

    kind: str
    job: int | None = None
    worker: int | None = None
    p: float = 0.0
    times: int = 1
    delay_s: float = 0.25

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if not (0.0 <= self.p <= 1.0):
            raise ValueError(f"p must lie in [0, 1], got {self.p}")
        if self.job is None and self.worker is None and self.p == 0.0:
            raise ValueError("spec targets nothing: set job, worker, or p")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.delay_s < 0:
            raise ValueError("delay_s must be >= 0")

    @property
    def targeted(self) -> bool:
        """True for explicit job/worker targeting (vs. probabilistic)."""
        return self.job is not None or self.worker is not None

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "kind": self.kind,
            "job": self.job,
            "worker": self.worker,
            "p": self.p,
            "times": self.times,
            "delay_s": self.delay_s,
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "FaultSpec":
        return cls(
            kind=d["kind"],
            job=d.get("job"),
            worker=d.get("worker"),
            p=float(d.get("p", 0.0)),
            times=int(d.get("times", 1)),
            delay_s=float(d.get("delay_s", 0.25)),
        )


def _draw(seed: int, job: int, attempt: int, salt: int) -> float:
    """Deterministic uniform [0, 1) draw for one (job, attempt, spec).

    blake2b rather than crc32: crc is linear, so bumping the attempt
    digit XORs a constant into the hash and barely moves it across the
    ``< p`` threshold — retries would re-fire the same faults forever.
    """
    digest = hashlib.blake2b(
        f"{seed}:{job}:{attempt}:{salt}".encode("ascii"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class FaultPlan:
    """A seeded set of fault rules, identical wherever it is evaluated."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        # tolerate list input
        object.__setattr__(self, "specs", tuple(self.specs))

    # Construction helpers -------------------------------------------------
    @classmethod
    def crash_fraction(cls, p: float, *, seed: int = 0, kind: str = "crash") -> "FaultPlan":
        """Plan crashing (or ``kind``-ing) a fraction ``p`` of first
        attempts — the seeded shape of the chaos storms (benchmark R6) and
        the fault-absorption tests."""
        return cls(specs=(FaultSpec(kind, p=p),), seed=seed)

    # Evaluation -----------------------------------------------------------
    def fires(self, job: int, attempt: int, worker: int | None = None) -> FaultSpec | None:
        """The first spec firing for this (job, attempt, worker), or None.

        Deterministic: the parent calls this for attribution, workers
        call it to misbehave, and both see the same answer.  Worker-
        targeted specs only fire where the worker ordinal is known.
        """
        for salt, spec in enumerate(self.specs):
            if spec.targeted:
                if spec.job is not None and spec.job != job:
                    continue
                if spec.worker is not None and (worker is None or spec.worker != worker):
                    continue
                if attempt < spec.times:
                    return spec
            elif spec.p > 0.0 and _draw(self.seed, job, attempt, salt) < spec.p:
                return spec
        return None

    def planned_jobs(self, n_jobs: int, attempt: int = 0) -> list[int]:
        """Job indices whose attempt-``attempt`` run a fault hits
        (worker-targeted specs excluded — those depend on scheduling)."""
        return [j for j in range(n_jobs) if self.fires(j, attempt) is not None]

    # Serialization --------------------------------------------------------
    def to_json(self) -> str:
        """Serialize for the ``REPRO_FAULTS`` environment hook."""
        return json.dumps(
            {"seed": self.seed, "specs": [s.to_dict() for s in self.specs]}
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"malformed fault plan JSON: {exc}") from exc
        return cls(
            specs=tuple(FaultSpec.from_dict(d) for d in doc.get("specs", ())),
            seed=int(doc.get("seed", 0)),
        )

    @classmethod
    def from_env(cls, env_var: str = FAULTS_ENV_VAR) -> "FaultPlan | None":
        """Plan from the ``REPRO_FAULTS`` environment hook, or None."""
        text = os.environ.get(env_var)
        if not text:
            return None
        return cls.from_json(text)


def run_with_faults(
    fn: Callable[[Any], Any],
    item: Any,
    job: int,
    attempt: int,
    plan: FaultPlan | None,
) -> Any:
    """Run one job under a fault plan — the supervisor's worker wrapper.

    Module-level (hence picklable) so :class:`SupervisedPool` can ship
    it to pool workers; with ``plan=None`` it is a plain call.
    """
    spec = plan.fires(job, attempt, _WORKER_ORDINAL) if plan is not None else None
    if spec is None:
        return fn(item)
    if spec.kind == "slow":
        time.sleep(spec.delay_s)
        return fn(item)
    if spec.kind == "crash":
        os._exit(13)
    if spec.kind == "hang":
        time.sleep(spec.delay_s)
    raise InjectedFault(spec.kind, job, attempt)  # error, or a hang's end
