"""Policy-zoo figure at reduced scale: structure, shape, and caching.

The acceptance surface for the policy registry's analysis layer: the
(benchmark x policy) grid runs through the cached parallel engine and
the qualitative shape claims (FgNVM wins, PALP tracks it, full-row
SALP cannot touch its energy) hold on the default workload pair.
"""

import pytest

from repro.analysis.figure_policies import (
    DEFAULT_BENCHMARKS,
    SERIES,
    check_figure_policies_shape,
    figure_policies_configs,
    render_figure_policies,
    run_figure_policies,
)
from repro.sim.parallel import ParallelExperimentEngine

REQUESTS = 800


@pytest.fixture(scope="module")
def cache():
    return ParallelExperimentEngine()


@pytest.fixture(scope="module")
def fig(cache):
    return run_figure_policies(list(DEFAULT_BENCHMARKS), REQUESTS, cache)


class TestFigurePolicies:
    def test_all_series_present(self, fig):
        for bench in DEFAULT_BENCHMARKS:
            assert set(fig.speedups[bench]) == set(SERIES)
            assert set(fig.relative_energy[bench]) == set(SERIES)

    def test_shape_checks_pass(self, fig):
        assert check_figure_policies_shape(fig) == []

    def test_summary_rows_added(self, fig):
        assert "gmean" in fig.speedup_rows()
        assert "average" in fig.energy_rows()

    def test_salp_cannot_match_fgnvm_energy(self, fig):
        for bench in DEFAULT_BENCHMARKS:
            row = fig.relative_energy[bench]
            assert row["salp"] > row["fgnvm"]

    def test_render_contains_both_panels(self, fig):
        text = render_figure_policies(fig)
        assert "IPC speedup" in text
        assert "Energy relative to baseline" in text
        for series in SERIES:
            assert series in text

    def test_configs_cover_expected_systems(self):
        configs = figure_policies_configs()
        assert set(configs) == {"baseline", "fgnvm", "palp", "salp"}
        assert configs["palp"].controller.policy == "palp"
        assert configs["salp"].org.column_divisions == 1

    def test_grid_is_fully_cached(self, cache, fig):
        """One run() per (config, bench) cell — re-running the figure
        must hit the cache for every cell, not simulate."""
        before = cache.stats.executed
        again = run_figure_policies(list(DEFAULT_BENCHMARKS), REQUESTS,
                                    cache)
        assert cache.stats.executed == before
        assert again.speedups == fig.speedups
        assert again.relative_energy == fig.relative_energy
