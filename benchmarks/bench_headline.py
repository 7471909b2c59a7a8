"""Section 7 headline claims: +56.5% perf, up to -73% energy, <=0.36% area.

Aggregates the Figure 4 / Figure 5 / Table 1 regenerations (shared via
the session cache, so this bench reuses their simulations) into the
paper-vs-measured summary recorded in EXPERIMENTS.md.
"""

from repro.analysis.calibration import render_headline, run_headline

from conftest import publish


def bench_headline(benchmark, engine, requests, results_dir):
    result = benchmark.pedantic(
        lambda: run_headline(requests=requests, engine=engine),
        rounds=1,
        iterations=1,
    )
    text = render_headline(result)
    publish(results_dir, "headline", text)
    # The reproduction bands: ordering preserved, magnitudes in range.
    assert result.combined_speedup > 1.25
    assert result.best_energy_reduction > 0.55
    best, worst = result.area_band
    assert best < 0.1
    assert 0.3 < worst < 0.45
