"""Degradation figure at reduced scale: structure, shape, and caching.

The acceptance surface for the reliability extension's analysis layer:
the (organisation x fault rate) and (FgNVM x kill count) sweeps run
through the cached engine, retention is normalised per-organisation,
and the graceful-degradation shape claims hold.
"""

import pytest

from repro.analysis.figure_degradation import (
    DEFAULT_BENCHMARKS,
    FAULT_RATES,
    KILL_COUNTS,
    SERIES,
    check_figure_degradation_shape,
    figure_degradation_configs,
    render_figure_degradation,
    run_figure_degradation,
)
from repro.sim.parallel import ParallelExperimentEngine

REQUESTS = 1000


@pytest.fixture(scope="module")
def cache():
    return ParallelExperimentEngine()


@pytest.fixture(scope="module")
def fig(cache):
    return run_figure_degradation(list(DEFAULT_BENCHMARKS), REQUESTS, cache)


class TestFigureDegradation:
    def test_all_series_and_points_present(self, fig):
        for bench in DEFAULT_BENCHMARKS:
            assert set(fig.retention[bench]) == set(SERIES)
            for series in SERIES:
                assert set(fig.retention[bench][series]) == set(FAULT_RATES)
            assert set(fig.kill_retention[bench]) == set(KILL_COUNTS)

    def test_healthy_anchor_is_exactly_one(self, fig):
        for bench in DEFAULT_BENCHMARKS:
            for series in SERIES:
                assert fig.retention[bench][series][0.0] == 1.0
            assert fig.kill_retention[bench][0] == 1.0

    def test_shape_checks_pass(self, fig):
        assert check_figure_degradation_shape(fig) == []

    def test_faults_actually_cost_retries(self, fig):
        for bench in DEFAULT_BENCHMARKS:
            for series in SERIES:
                assert fig.retries_at_max[bench][series] > 0

    def test_kills_actually_retire_tiles(self, fig):
        for bench in DEFAULT_BENCHMARKS:
            assert fig.tiles_retired_at_max[bench] >= 1

    def test_render_contains_both_panels(self, fig):
        text = render_figure_degradation(fig)
        assert "retention vs write-verify failure rate" in text
        assert "retention vs seeded tile kills" in text
        for series in SERIES:
            assert series in text

    def test_configs_are_distinctly_named(self):
        configs = figure_degradation_configs()
        # One healthy anchor per organisation plus each faulted point;
        # kills=0 reuses the healthy FgNVM anchor.
        expected = (len(SERIES) * len(FAULT_RATES)
                    + len(KILL_COUNTS) - 1)
        assert len(configs) == expected
        for name, config in configs.items():
            assert config.name == name

    def test_grid_is_fully_cached(self, cache, fig):
        before = cache.stats.executed
        again = run_figure_degradation(list(DEFAULT_BENCHMARKS), REQUESTS,
                                       cache)
        assert cache.stats.executed == before
        assert again.retention == fig.retention
        assert again.kill_retention == fig.kill_retention
