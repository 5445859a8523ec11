"""Process-local metrics: counters, gauges, fixed-bucket histograms.

The registry is built for hot paths shared by many threads (the
multi-session service drives one engine from N sessions):

* **No locks on the hot path.**  Every thread owns a private *shard*
  (plain dicts reached through ``threading.local``); an increment is a
  dict update on data no other thread touches.  The registry lock is
  taken only on the cold paths — shard creation, histogram-bound
  declaration, and :meth:`MetricsRegistry.snapshot`.
* **Mergeable snapshots.**  :meth:`snapshot` folds all shards into one
  immutable :class:`Snapshot`; snapshots from different registries
  (processes, benchmark runs) merge commutatively and associatively
  with counts conserved — the property suite pins this.
* **Off is free.**  :data:`NULL_REGISTRY` is a no-op object with the
  same surface; a disabled process pays one attribute check per emit
  and allocates nothing on the span fast path.

Instruments are addressed by ``(name, labels)`` where labels are a
sorted tuple of ``(key, value)`` string pairs — the same identity the
Prometheus exposition renders.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, NamedTuple

__all__ = [
    "DEFAULT_BOUNDS",
    "LabelTuple",
    "MetricKey",
    "HistogramSnapshot",
    "Snapshot",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "TimedFamily",
    "labels_key",
]

#: Sorted ``((key, value), ...)`` form of a label set.
LabelTuple = tuple[tuple[str, str], ...]
#: Instrument identity: metric name plus its label tuple.
MetricKey = tuple[str, LabelTuple]

#: Default histogram bucket upper bounds, tuned for seconds-scale
#: latencies from ~50µs (warm cache-hit stages) to tens of seconds.
DEFAULT_BOUNDS: tuple[float, ...] = (
    5e-05, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def labels_key(labels: "Mapping[str, object] | LabelTuple | None") -> LabelTuple:
    """Canonical sorted tuple form of a label set.

    A tuple argument is assumed already canonical (sorted ``(key,
    value)`` string pairs) and passes through untouched — the hot-path
    escape hatch that lets per-stage spans skip dict building and
    sorting on every emit.
    """
    if not labels:
        return ()
    if isinstance(labels, tuple):
        return labels
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _HistCell:
    """One histogram instrument inside one thread's shard."""

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)  # last slot: +Inf bucket
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        # bisect_left: a value equal to a bound lands in that bound's
        # bucket — Prometheus `le` (less-or-equal) semantics
        self.counts[bisect_left(self.bounds, value)] += 1
        self.total += value
        self.count += 1


class TimedFamily(NamedTuple):
    """A latency histogram with one label key, and the event counters
    that go with it, emitted together by
    :meth:`MetricsRegistry.observe_timed`.  A degraded event also bumps
    the last counter."""

    seconds: str
    label: str
    counters: tuple[str, ...]


class _TimedCell:
    """One (family, label value)'s instruments inside one thread's
    shard: the latency histogram cell (also in the shard's ``hists``),
    the bucket a 0.0 observation lands in, and the event counts that
    :meth:`MetricsRegistry.snapshot` folds into the family's counters."""

    __slots__ = ("family", "hist", "zero_bucket", "counts")

    def __init__(self, family: TimedFamily, hist: _HistCell) -> None:
        self.family = family
        self.hist = hist
        self.zero_bucket = bisect_left(hist.bounds, 0.0)
        self.counts = [0] * len(family.counters)


class _Shard:
    """One thread's private instrument cells (never shared)."""

    __slots__ = ("counters", "hists", "timed")

    def __init__(self) -> None:
        self.counters: dict[MetricKey, float] = {}
        self.hists: dict[MetricKey, _HistCell] = {}
        self.timed: dict[tuple[str, str], _TimedCell] = {}


@dataclass(frozen=True)
class HistogramSnapshot:
    """Immutable, mergeable state of one histogram instrument.

    ``counts`` has ``len(bounds) + 1`` entries; the final entry is the
    overflow (``+Inf``) bucket.  ``sum(counts) == count`` always.
    """

    bounds: tuple[float, ...]
    counts: tuple[int, ...]
    sum: float
    count: int

    @classmethod
    def empty(cls, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> "HistogramSnapshot":
        return cls(bounds=bounds, counts=(0,) * (len(bounds) + 1), sum=0.0, count=0)

    @classmethod
    def of(
        cls,
        values: Iterable[float],
        bounds: tuple[float, ...] = DEFAULT_BOUNDS,
    ) -> "HistogramSnapshot":
        """Snapshot of a value collection (test/property helper)."""
        cell = _HistCell(bounds)
        for v in values:
            cell.observe(float(v))
        return cls(
            bounds=bounds, counts=tuple(cell.counts), sum=cell.total, count=cell.count
        )

    def merge(self, other: "HistogramSnapshot") -> "HistogramSnapshot":
        """Bucket-wise sum; commutative, associative, count-conserving.

        Merging histograms observed with different bucket boundaries is
        a programming error and raises.
        """
        if self.bounds != other.bounds:
            raise ValueError(
                f"cannot merge histograms with different bounds: "
                f"{self.bounds} vs {other.bounds}"
            )
        return HistogramSnapshot(
            bounds=self.bounds,
            counts=tuple(a + b for a, b in zip(self.counts, other.counts)),
            sum=self.sum + other.sum,
            count=self.count + other.count,
        )

    def quantile(self, q: float) -> float:
        """Conservative quantile estimate (bucket upper bound).

        Returns the upper bound of the first bucket whose cumulative
        count reaches ``q * count`` — monotone non-decreasing in ``q``
        and in the observed data.  The overflow bucket reports the
        largest finite bound (there is no tighter upper bound to give).
        Empty histograms return 0.0.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cum = 0
        for i, c in enumerate(self.counts):
            cum += c
            if cum >= rank and (cum > 0 if rank == 0 else True):
                return self.bounds[i] if i < len(self.bounds) else self.bounds[-1]
        return self.bounds[-1]


@dataclass(frozen=True)
class Snapshot:
    """One coherent, immutable view of every instrument's state."""

    counters: dict[MetricKey, float] = field(default_factory=dict)
    gauges: dict[MetricKey, float] = field(default_factory=dict)
    histograms: dict[MetricKey, HistogramSnapshot] = field(default_factory=dict)

    def merge(self, other: "Snapshot") -> "Snapshot":
        """Combine two snapshots (cross-thread already done; this is
        for cross-registry/cross-process aggregation).

        Counters and histogram buckets add; gauges are last-write-wins
        with ``other`` (the right operand) taken as newer.
        """
        counters = dict(self.counters)
        for key, value in other.counters.items():
            counters[key] = counters.get(key, 0.0) + value
        gauges = {**self.gauges, **other.gauges}
        hists = dict(self.histograms)
        for key, h in other.histograms.items():
            mine = hists.get(key)
            hists[key] = h if mine is None else mine.merge(h)
        return Snapshot(counters=counters, gauges=gauges, histograms=hists)

    # Convenience accessors (tests, status views) ------------------------
    def counter_total(self, name: str) -> float:
        """Sum of one counter family across all label sets."""
        return sum(v for (n, _), v in self.counters.items() if n == name)

    def counter(self, name: str, /, **labels: object) -> float:
        """One counter cell's value (0.0 when never incremented)."""
        return self.counters.get((name, labels_key(labels)), 0.0)

    def gauge(self, name: str, /, **labels: object) -> float | None:
        """One gauge's last-set value (None when never set)."""
        return self.gauges.get((name, labels_key(labels)))

    def histogram(self, name: str, /, **labels: object) -> HistogramSnapshot | None:
        """One histogram cell (None when never observed).

        ``name`` is positional-only so a label literally called
        ``name`` (the ``span.seconds`` convention) stays addressable.
        """
        return self.histograms.get((name, labels_key(labels)))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready nested form (stable ordering) for status views."""

        def render_key(key: MetricKey) -> str:
            name, labels = key
            if not labels:
                return name
            inner = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{inner}}}"

        return {
            "counters": {render_key(k): self.counters[k] for k in sorted(self.counters)},
            "gauges": {render_key(k): self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                render_key(k): {
                    "count": h.count,
                    "sum": h.sum,
                    "p50": h.quantile(0.5),
                    "p95": h.quantile(0.95),
                }
                for k, h in ((k, self.histograms[k]) for k in sorted(self.histograms))
            },
        }


class MetricsRegistry:
    """Thread-sharded instrument store with lock-free emission.

    Parameters
    ----------
    event_sink:
        Optional object with a ``write_event(dict)`` method (e.g.
        :class:`repro.obs.export.JsonlExporter`); span ends and other
        discrete events are forwarded to it.  Sink failures are
        swallowed by the facade's guards, never raised into hot paths.
    """

    #: Enabled registries emit; the facade checks this one attribute
    #: before doing any work.
    enabled: bool = True

    def __init__(self, *, event_sink: Any | None = None) -> None:
        self._lock = threading.Lock()
        self._shards: list[_Shard] = []
        self._local = threading.local()
        self._gauges: dict[MetricKey, float] = {}
        self._hist_bounds: dict[str, tuple[float, ...]] = {}
        self.event_sink = event_sink

    # Cold paths ---------------------------------------------------------
    def _shard(self) -> _Shard:
        shard: _Shard | None = getattr(self._local, "shard", None)
        if shard is None:
            shard = _Shard()
            with self._lock:
                self._shards.append(shard)
            self._local.shard = shard
        return shard

    def declare_histogram(self, name: str, bounds: Iterable[float]) -> None:
        """Fix non-default bucket bounds for one histogram name.

        Must be called before the first ``observe`` of ``name`` in any
        thread; later observations in every thread use these bounds.
        """
        bt = tuple(sorted(float(b) for b in bounds))
        if not bt:
            raise ValueError("histogram needs at least one bucket bound")
        with self._lock:
            self._hist_bounds[name] = bt

    # Hot paths (no locks) ----------------------------------------------
    def counter_add(
        self,
        name: str,
        value: float = 1.0,
        labels: "Mapping[str, object] | LabelTuple | None" = None,
    ) -> None:
        """Add ``value`` to one counter cell (monotone by convention)."""
        counters = self._shard().counters
        key = (name, labels_key(labels))
        counters[key] = counters.get(key, 0.0) + value

    def gauge_set(
        self,
        name: str,
        value: float,
        labels: "Mapping[str, object] | LabelTuple | None" = None,
    ) -> None:
        """Set a gauge to its latest value (last write wins)."""
        # single dict store: atomic under the GIL, no shard needed
        self._gauges[(name, labels_key(labels))] = float(value)

    def observe(
        self,
        name: str,
        value: float,
        labels: "Mapping[str, object] | LabelTuple | None" = None,
    ) -> None:
        """Record one observation into a fixed-bucket histogram."""
        hists = self._shard().hists
        key = (name, labels_key(labels))
        cell = hists.get(key)
        if cell is None:
            bounds = self._hist_bounds.get(name, DEFAULT_BOUNDS)
            cell = hists[key] = _HistCell(bounds)
        cell.observe(float(value))

    def observe_timed(
        self,
        family: TimedFamily,
        label: str,
        seconds: float,
        counter: int,
        degraded: bool,
    ) -> None:
        """One timed event: ``seconds`` into the family's histogram,
        ``+1`` on its counter number ``counter`` and, when degraded,
        ``+1`` on its last counter, all labelled ``family.label=label``.

        The query path emits one per stage and one per query, so the
        cells are resolved once per thread and label, and the counts
        reach the counters only at snapshot time.  A cache hit records
        exactly 0.0 seconds, which needs no bisect and no sum update.
        """
        shard = getattr(self._local, "shard", None) or self._shard()
        cell = shard.timed.get((family.seconds, label))
        if cell is None:
            key = (family.seconds, ((family.label, label),))
            hist = shard.hists.get(key)
            if hist is None:
                bounds = self._hist_bounds.get(family.seconds, DEFAULT_BOUNDS)
                hist = shard.hists[key] = _HistCell(bounds)
            cell = shard.timed[(family.seconds, label)] = _TimedCell(family, hist)
        hist = cell.hist
        if seconds == 0.0:
            hist.counts[cell.zero_bucket] += 1
        else:
            hist.counts[bisect_left(hist.bounds, seconds)] += 1
            hist.total += seconds
        hist.count += 1
        counts = cell.counts
        counts[counter] += 1
        if degraded:
            counts[-1] += 1

    def emit_event(self, event: Mapping[str, Any]) -> None:
        """Forward one discrete event to the configured sink, if any."""
        sink = self.event_sink
        if sink is not None:
            sink.write_event(event)

    # Aggregation --------------------------------------------------------
    def snapshot(self) -> Snapshot:
        """Lock-guarded merge of every thread's shard plus gauges.

        The one place cross-thread aggregation happens; emission never
        waits on it (writers touch only their own shard).
        """
        with self._lock:
            shards = list(self._shards)
            gauges = dict(self._gauges)
        counters: dict[MetricKey, float] = {}
        hists: dict[MetricKey, HistogramSnapshot] = {}
        for shard in shards:
            # dict()/list() copies are C-level and atomic under the GIL;
            # the owning thread may insert new cells mid-snapshot and
            # this merge must not see a resizing dict
            for key, value in dict(shard.counters).items():
                counters[key] = counters.get(key, 0.0) + value
            for (_, label), timed in dict(shard.timed).items():
                family = timed.family
                for name, n in zip(family.counters, list(timed.counts)):
                    if n:
                        key = (name, ((family.label, label),))
                        counters[key] = counters.get(key, 0.0) + float(n)
            for key, cell in dict(shard.hists).items():
                snap = HistogramSnapshot(
                    bounds=cell.bounds,
                    counts=tuple(cell.counts),
                    sum=cell.total,
                    count=cell.count,
                )
                mine = hists.get(key)
                hists[key] = snap if mine is None else mine.merge(snap)
        return Snapshot(counters=counters, gauges=gauges, histograms=hists)

    def reset(self) -> None:
        """Drop every instrument (benchmarks and tests between phases).

        Threads keep their shard objects; the cells are cleared in
        place so in-flight emitters continue into empty dicts.
        """
        with self._lock:
            for shard in self._shards:
                shard.counters.clear()
                shard.hists.clear()
                shard.timed.clear()
            self._gauges.clear()

    def __repr__(self) -> str:
        with self._lock:
            n = len(self._shards)
        return f"MetricsRegistry(shards={n}, enabled={self.enabled})"


class NullRegistry:
    """The disabled registry: same surface, does nothing, costs nothing.

    A single module-level instance (:data:`NULL_REGISTRY`) backs every
    disabled process; the facade's emit helpers check ``enabled`` and
    return before building labels, so the hot-path cost of "telemetry
    off" is one attribute load and one branch.
    """

    enabled: bool = False
    event_sink: Any | None = None

    def counter_add(
        self,
        name: str,
        value: float = 1.0,
        labels: "Mapping[str, object] | LabelTuple | None" = None,
    ) -> None:
        """No-op."""

    def gauge_set(
        self,
        name: str,
        value: float,
        labels: "Mapping[str, object] | LabelTuple | None" = None,
    ) -> None:
        """No-op."""

    def observe(
        self,
        name: str,
        value: float,
        labels: "Mapping[str, object] | LabelTuple | None" = None,
    ) -> None:
        """No-op."""

    def observe_timed(
        self,
        family: TimedFamily,
        label: str,
        seconds: float,
        counter: int,
        degraded: bool,
    ) -> None:
        """No-op."""

    def emit_event(self, event: Mapping[str, Any]) -> None:
        """No-op."""

    def declare_histogram(self, name: str, bounds: Iterable[float]) -> None:
        """No-op."""

    def snapshot(self) -> Snapshot:
        """Always-empty snapshot."""
        return Snapshot()

    def reset(self) -> None:
        """No-op."""

    def __repr__(self) -> str:
        return "NullRegistry()"


#: The process-wide disabled registry (telemetry's default state).
NULL_REGISTRY = NullRegistry()
