"""Sliders.

The application exposes three continuous controls (§IV-C.2): the
temporal range slider, the depth-position slider, and the time-scale
(de)exaggeration slider.  :class:`Slider` is a clamped scalar control
with change callbacks; :class:`RangeSlider` a two-thumb interval
control that cannot invert.

:class:`IncrementalRequery` closes the loop the paper describes
("adjust the time slider, watch the highlight answer in seconds"): it
binds a :class:`RangeSlider` to an exploration session so every thumb
move updates the temporal window *and* re-runs the active queries.
Because a window move leaves the brush stages' keys unchanged, the
engine's stage cache turns each drag step into the cheap
``agg_temporal → classify → drilldown → aggregate`` re-execution,
reusing the expensive brush hit-test outright.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable

from repro import obs
from repro.core.temporal import TimeWindow

if TYPE_CHECKING:
    from repro.core.result import QueryResult
    from repro.core.session import ExplorationSession

__all__ = ["Slider", "RangeSlider", "IncrementalRequery"]


class Slider:
    """A clamped scalar control.

    Parameters
    ----------
    lo, hi:
        Bounds.
    value:
        Initial value (clamped).
    on_change:
        Optional callback invoked with the new value after every
        effective change.
    """

    def __init__(
        self,
        lo: float,
        hi: float,
        value: float | None = None,
        on_change: Callable[[float], None] | None = None,
    ) -> None:
        if hi <= lo:
            raise ValueError(f"slider needs hi > lo, got [{lo}, {hi}]")
        self.lo = float(lo)
        self.hi = float(hi)
        self._value = self._clamp(value if value is not None else lo)
        self.on_change = on_change

    def _clamp(self, v: float) -> float:
        return min(self.hi, max(self.lo, float(v)))

    @property
    def value(self) -> float:
        return self._value

    def set(self, v: float) -> float:
        """Set (clamped); fires the callback if the value changed."""
        new = self._clamp(v)
        if new != self._value:
            self._value = new
            if self.on_change is not None:
                self.on_change(new)
        return self._value

    def step(self, delta: float) -> float:
        """Nudge by ``delta`` (keyboard arrows)."""
        return self.set(self._value + delta)

    @property
    def fraction(self) -> float:
        """Position as a fraction of the range."""
        return (self._value - self.lo) / (self.hi - self.lo)

    def set_fraction(self, f: float) -> float:
        """Set from a [0, 1] fraction (pointer drag)."""
        return self.set(self.lo + f * (self.hi - self.lo))


class RangeSlider:
    """A two-thumb interval control with a minimum gap.

    Thumbs clamp to the bounds and to each other — the selected
    interval can narrow to ``min_gap`` but never invert.
    """

    def __init__(
        self,
        lo: float,
        hi: float,
        *,
        low: float | None = None,
        high: float | None = None,
        min_gap: float = 0.0,
        on_change: Callable[[float, float], None] | None = None,
    ) -> None:
        if hi <= lo:
            raise ValueError(f"range slider needs hi > lo, got [{lo}, {hi}]")
        if min_gap < 0 or min_gap > hi - lo:
            raise ValueError("min_gap must be in [0, hi-lo]")
        self.lo = float(lo)
        self.hi = float(hi)
        self.min_gap = float(min_gap)
        self._low = float(lo if low is None else max(lo, low))
        self._high = float(hi if high is None else min(hi, high))
        if self._high - self._low < min_gap:
            raise ValueError("initial interval narrower than min_gap")
        self.on_change = on_change

    @property
    def interval(self) -> tuple[float, float]:
        return (self._low, self._high)

    def set_low(self, v: float) -> tuple[float, float]:
        """Move the lower thumb (clamped against bounds and the upper)."""
        new = min(max(float(v), self.lo), self._high - self.min_gap)
        if new != self._low:
            self._low = new
            self._fire()
        return self.interval

    def set_high(self, v: float) -> tuple[float, float]:
        """Move the upper thumb."""
        new = max(min(float(v), self.hi), self._low + self.min_gap)
        if new != self._high:
            self._high = new
            self._fire()
        return self.interval

    def set(self, low: float, high: float) -> tuple[float, float]:
        """Move both thumbs atomically."""
        low = max(self.lo, float(low))
        high = min(self.hi, float(high))
        if high - low < self.min_gap:
            raise ValueError(
                f"interval [{low}, {high}] narrower than min_gap {self.min_gap}"
            )
        changed = (low, high) != (self._low, self._high)
        self._low, self._high = low, high
        if changed:
            self._fire()
        return self.interval

    def _fire(self) -> None:
        if self.on_change is not None:
            self.on_change(self._low, self._high)

    @property
    def span_fraction(self) -> float:
        """Selected width as a fraction of the full range."""
        return (self._high - self._low) / (self.hi - self.lo)


class IncrementalRequery:
    """Drives incremental re-query from a temporal range slider.

    Takes over the slider's ``on_change``: every effective thumb move
    sets the session's fractional time window and — when the canvas
    has strokes — re-runs the query for each active color through the
    engine's stage cache.  Slider-only moves therefore re-execute just
    the temporal stages and what depends on them (see the traces
    collected in :attr:`last_traces`).

    Parameters
    ----------
    slider:
        The two-thumb temporal control (values in [0, 1] fractions).
    session:
        The exploration session whose window/engine the slider drives.
    colors:
        Colors to re-evaluate per move; default: every color painted
        on the canvas at move time.
    on_results:
        Optional callback receiving ``{color: QueryResult}`` after
        each re-query (the application uses it to refresh its render
        cache).
    """

    def __init__(
        self,
        slider: RangeSlider,
        session: "ExplorationSession",
        *,
        colors: list[str] | None = None,
        on_results: Callable[[dict[str, "QueryResult"]], None] | None = None,
    ) -> None:
        self.slider = slider
        self.session = session
        self.colors = colors
        self.on_results = on_results
        self.last_results: dict[str, QueryResult] = {}
        self.n_requeries = 0
        slider.on_change = self._moved

    @property
    def last_traces(self) -> dict[str, object]:
        """Per-color traces of the most recent re-query."""
        return {
            color: res.trace
            for color, res in self.last_results.items()
            if res.trace is not None
        }

    def _moved(self, lo: float, hi: float) -> None:
        self.session.set_time_window(TimeWindow.fraction(lo, hi))
        self.requery()

    def requery(self) -> dict[str, "QueryResult"]:
        """Re-evaluate the active colors under the current window.

        Each effective move lands in the telemetry plane
        (``interaction.requery.count`` / ``.seconds``) — the
        end-to-end latency the researcher actually feels while
        scrubbing, as opposed to the per-stage numbers the query
        trace reports.
        """
        t_move = time.perf_counter()
        colors = self.colors or self.session.canvas.colors()
        results = {color: self.session.run_query(color) for color in colors}
        if results:
            self.last_results = results
            self.n_requeries += 1
            obs.counter_add("interaction.requery.count", 1)
            obs.observe("interaction.requery.seconds", time.perf_counter() - t_move)
            if self.on_results is not None:
                self.on_results(results)
        return results
