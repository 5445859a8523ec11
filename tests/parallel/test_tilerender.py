"""Tests for process-parallel tile rendering."""

import numpy as np
import pytest

from repro.display.bezel import BezelSpec
from repro.display.viewport import Viewport
from repro.display.wall import DisplayWall
from repro.layout.cells import assign_sequential
from repro.layout.grid import BezelAwareGrid
from repro.parallel.tilerender import render_viewport_parallel
from repro.render.pipeline import WallRenderer
from repro.stereo.camera import Eye
from repro.synth.arena import Arena


@pytest.fixture(scope="module")
def setup(study_dataset):
    wall = DisplayWall(
        cols=2, rows=1, panel_width=0.3, panel_height=0.16875,
        panel_px_width=120, panel_px_height=68, bezel=BezelSpec(),
    )
    viewport = Viewport(wall)
    grid = BezelAwareGrid(viewport, 4, 2)
    renderer = WallRenderer(study_dataset, Arena(), viewport)
    assignment = assign_sequential(study_dataset, grid)
    return renderer, assignment


class TestSerialPath:
    def test_report_structure(self, setup):
        renderer, assignment = setup
        report = render_viewport_parallel(renderer, assignment, max_workers=0)
        assert report.workers == 1
        assert report.n_jobs == 4  # 2 tiles x 2 eyes
        assert set(report.frames) == {Eye.LEFT, Eye.RIGHT}
        assert report.elapsed_s > 0

    def test_matches_pipeline_serial(self, setup):
        renderer, assignment = setup
        direct = renderer.render_viewport(assignment, eyes=(Eye.LEFT,))
        report = render_viewport_parallel(
            renderer, assignment, eyes=(Eye.LEFT,), max_workers=0
        )
        np.testing.assert_array_equal(
            direct[Eye.LEFT][(0, 0)].data, report.frames[Eye.LEFT][(0, 0)].data
        )


class TestParallelPath:
    def test_parallel_matches_serial_exactly(self, setup):
        renderer, assignment = setup
        serial = render_viewport_parallel(renderer, assignment, max_workers=0)
        parallel = render_viewport_parallel(renderer, assignment, max_workers=2)
        assert parallel.workers == 2
        for eye in (Eye.LEFT, Eye.RIGHT):
            for key in serial.frames[eye]:
                np.testing.assert_array_equal(
                    serial.frames[eye][key].data, parallel.frames[eye][key].data
                )


class TestSharedStoreTransport:
    def test_store_path_bit_identical(self, setup, study_dataset):
        from repro.store import SharedArenaStore

        renderer, assignment = setup
        serial = render_viewport_parallel(renderer, assignment, max_workers=0)
        with SharedArenaStore.publish(study_dataset) as store:
            shm = render_viewport_parallel(
                renderer, assignment, max_workers=2, store=store
            )
            assert not shm.degraded  # the handle attached; no fallback
            for eye in (Eye.LEFT, Eye.RIGHT):
                for key in serial.frames[eye]:
                    np.testing.assert_array_equal(
                        serial.frames[eye][key].data, shm.frames[eye][key].data
                    )

    def test_unattachable_store_falls_back_to_pickle(self, setup, study_dataset):
        from repro.store import SharedArenaStore

        renderer, assignment = setup
        serial = render_viewport_parallel(renderer, assignment, max_workers=0)
        store = SharedArenaStore.publish(study_dataset)
        handle = store.handle
        store.unlink()
        store.close()  # the handle is now stale
        report = render_viewport_parallel(
            renderer, assignment, max_workers=2, store=handle
        )
        # degradation ladder: attach failure recorded, pickle path taken,
        # frames still bit-identical
        assert report.degradation.by_kind() == {"shm-attach-failure": 1}
        assert report.degradation.by_action() == {"pickle-fallback": 1}
        for eye in (Eye.LEFT, Eye.RIGHT):
            for key in serial.frames[eye]:
                np.testing.assert_array_equal(
                    serial.frames[eye][key].data, report.frames[eye][key].data
                )
