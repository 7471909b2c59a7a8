"""Figure 5 — energy normalised to the baseline NVM prototype.

Regenerates the CD sweep (8x2 / 8x8 / 8x32 / 8x32-Perfect) and verifies
the published shape: every configuration saves energy, savings grow
monotonically with column divisions, 8x32 sits just above its Perfect
pricing, and averages land near the paper's -37% / -65% / -73%.
"""

from repro.analysis.figure5 import (
    check_figure5_shape,
    render_figure5,
    run_figure5,
)

from conftest import publish


def bench_figure5(benchmark, engine, requests, results_dir):
    result = benchmark.pedantic(
        lambda: run_figure5(requests=requests, engine=engine),
        rounds=1,
        iterations=1,
    )
    text = render_figure5(result)
    summary = result.series_summary()
    text += (
        "\n\npaper averages: 8x2 0.63, 8x8 0.35, 8x32 0.27"
        f"\nmeasured averages: 8x2 {summary['8x2']:.3f}, "
        f"8x8 {summary['8x8']:.3f}, 8x32 {summary['8x32']:.3f}, "
        f"perfect {summary['8x32-perfect']:.3f}"
    )
    publish(results_dir, "figure5_energy", text)
    problems = check_figure5_shape(result)
    assert problems == [], problems
