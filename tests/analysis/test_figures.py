"""Figure 4/5 regenerators at reduced scale: structure and shape.

Full-scale figure runs live in ``benchmarks/``; here a 3-benchmark,
short-trace subset checks the machinery and the headline shape fast.
"""

import pytest

from repro.analysis.calibration import render_headline, run_headline
from repro.analysis.figure4 import (
    SERIES,
    check_figure4_shape,
    render_figure4,
    run_figure4,
)
from repro.analysis.figure5 import (
    check_figure5_shape,
    render_figure5,
    run_figure5,
)
from repro.sim.parallel import ParallelExperimentEngine

BENCHES = ["mcf", "lbm", "sphinx3"]
REQUESTS = 1200


@pytest.fixture(scope="module")
def cache():
    return ParallelExperimentEngine()


@pytest.fixture(scope="module")
def fig4(cache):
    return run_figure4(BENCHES, REQUESTS, cache)


@pytest.fixture(scope="module")
def fig5(cache):
    return run_figure5(BENCHES, REQUESTS, cache)


class TestFigure4:
    def test_all_series_present(self, fig4):
        for bench in BENCHES:
            assert set(fig4.speedups[bench]) == set(SERIES)

    def test_shape_checks_pass(self, fig4):
        assert check_figure4_shape(fig4) == []

    def test_gmean_row_added(self, fig4):
        rows = fig4.rows()
        assert "gmean" in rows
        assert rows["gmean"]["fgnvm"] == pytest.approx(
            fig4.gmean("fgnvm")
        )

    def test_fgnvm_beats_baseline_on_memory_bound(self, fig4):
        assert fig4.speedups["mcf"]["fgnvm"] > 1.2

    def test_render(self, fig4):
        text = render_figure4(fig4)
        assert "Figure 4" in text and "gmean" in text


class TestFigure5:
    def test_shape_checks_pass(self, fig5):
        assert check_figure5_shape(fig5) == []

    def test_energy_monotone_in_cds(self, fig5):
        for bench in BENCHES:
            row = fig5.relative_energy[bench]
            assert row["8x2"] > row["8x8"] > row["8x32"] * 0.999

    def test_perfect_is_lower_bound(self, fig5):
        for bench in BENCHES:
            row = fig5.relative_energy[bench]
            assert row["8x32"] >= row["8x32-perfect"] - 1e-9

    def test_render(self, fig5):
        text = render_figure5(fig5)
        assert "Figure 5" in text and "average" in text


class TestHeadline:
    def test_headline_aggregates(self, cache):
        result = run_headline(REQUESTS, BENCHES, cache)
        assert result.combined_speedup > 1.2
        assert 0.4 < result.best_energy_reduction < 0.9
        best, worst = result.area_band
        assert best < 0.1
        assert worst == pytest.approx(0.36, rel=0.1)
        text = render_headline(result)
        assert "56.5%" in text and "73%" in text
