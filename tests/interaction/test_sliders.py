"""Tests for slider controls."""

import pytest

from repro.interaction.sliders import RangeSlider, Slider


class TestSlider:
    def test_validation(self):
        with pytest.raises(ValueError):
            Slider(1.0, 1.0)

    def test_clamping(self):
        s = Slider(0.0, 10.0, value=5.0)
        assert s.set(15.0) == 10.0
        assert s.set(-3.0) == 0.0

    def test_step(self):
        s = Slider(0.0, 1.0, value=0.5)
        assert s.step(0.3) == pytest.approx(0.8)
        assert s.step(1.0) == 1.0

    def test_fraction_roundtrip(self):
        s = Slider(2.0, 4.0)
        s.set_fraction(0.25)
        assert s.value == pytest.approx(2.5)
        assert s.fraction == pytest.approx(0.25)

    def test_callback_fires_on_change_only(self):
        calls = []
        s = Slider(0.0, 1.0, value=0.5, on_change=calls.append)
        s.set(0.7)
        s.set(0.7)   # no-op
        s.set(9.0)   # clamps to 1.0
        assert calls == [0.7, 1.0]


class TestRangeSlider:
    def test_validation(self):
        with pytest.raises(ValueError):
            RangeSlider(1.0, 0.0)
        with pytest.raises(ValueError):
            RangeSlider(0.0, 1.0, min_gap=2.0)
        with pytest.raises(ValueError):
            RangeSlider(0.0, 1.0, low=0.4, high=0.5, min_gap=0.2)

    def test_defaults_full_range(self):
        rs = RangeSlider(0.0, 10.0)
        assert rs.interval == (0.0, 10.0)
        assert rs.span_fraction == 1.0

    def test_thumbs_cannot_invert(self):
        rs = RangeSlider(0.0, 10.0, low=2.0, high=8.0, min_gap=1.0)
        rs.set_low(9.5)
        assert rs.interval[0] == pytest.approx(7.0)  # clamped to high - gap
        rs.set_high(0.0)
        assert rs.interval[1] == pytest.approx(8.0)  # clamped to low + gap

    def test_set_atomic(self):
        rs = RangeSlider(0.0, 10.0)
        rs.set(3.0, 7.0)
        assert rs.interval == (3.0, 7.0)
        with pytest.raises(ValueError):
            rs.set(5.0, 4.0)

    def test_callback(self):
        calls = []
        rs = RangeSlider(0.0, 1.0, on_change=lambda lo, hi: calls.append((lo, hi)))
        rs.set_low(0.2)
        rs.set_high(0.8)
        rs.set_high(0.8)  # no-op
        assert calls == [(0.2, 1.0), (0.2, 0.8)]

    def test_bounds_clamped(self):
        rs = RangeSlider(0.0, 1.0)
        rs.set(-5.0, 5.0)
        assert rs.interval == (0.0, 1.0)


class TestIncrementalRequery:
    @pytest.fixture()
    def session(self, study_dataset, viewport, arena):
        from repro.core.brush import stroke_from_rect
        from repro.core.session import ExplorationSession

        session = ExplorationSession(study_dataset, viewport)
        r = arena.radius
        session.brush(
            stroke_from_rect((-r, -0.6 * r), (-0.7 * r, 0.6 * r), 0.12 * r, "red")
        )
        return session

    def test_thumb_move_updates_window_and_requeries(self, session):
        from repro.interaction.sliders import IncrementalRequery

        slider = RangeSlider(0.0, 1.0, min_gap=0.01)
        driver = IncrementalRequery(slider, session)
        slider.set(0.6, 1.0)
        assert session.window.cache_key() == ("frac", 0.6, 1.0)
        assert driver.n_requeries == 1
        assert "red" in driver.last_results

    def test_slider_scrub_is_incremental(self, session):
        from repro.interaction.sliders import IncrementalRequery

        slider = RangeSlider(0.0, 1.0, min_gap=0.01)
        driver = IncrementalRequery(slider, session)
        slider.set(0.5, 1.0)  # cold: all stages run
        slider.set_low(0.6)   # scrub: only temporal stages re-run
        trace = driver.last_traces["red"]
        assert trace.executed_stages() == [
            "agg_temporal", "drilldown", "aggregate", "group_support",
        ]
        assert trace["agg_brush"].cache_hit

    def test_on_results_callback(self, session):
        from repro.interaction.sliders import IncrementalRequery

        seen = {}
        slider = RangeSlider(0.0, 1.0, min_gap=0.01)
        IncrementalRequery(slider, session, on_results=seen.update)
        slider.set(0.2, 0.9)
        assert set(seen) == {"red"}

    def test_empty_canvas_sets_window_without_querying(self, study_dataset, viewport):
        from repro.core.session import ExplorationSession
        from repro.interaction.sliders import IncrementalRequery

        session = ExplorationSession(study_dataset, viewport)
        slider = RangeSlider(0.0, 1.0, min_gap=0.01)
        driver = IncrementalRequery(slider, session)
        slider.set(0.3, 0.7)
        assert session.window.cache_key() == ("frac", 0.3, 0.7)
        assert driver.n_requeries == 0
