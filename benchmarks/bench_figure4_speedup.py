"""Figure 4 — IPC speedup over the baseline PCM design.

Regenerates the paper's per-benchmark speedup series for FgNVM (8x2),
the 128-bank design and FgNVM+Multi-Issue, plus the geometric mean, and
verifies the published shape: FgNVM >= baseline everywhere, 128 banks
ahead of plain FgNVM (column conflicts + underfetch), Multi-Issue ahead
of plain FgNVM, substantial combined improvement (paper: +56.5%).
"""

from repro.analysis.figure4 import (
    check_figure4_shape,
    render_figure4,
    run_figure4,
)

from conftest import publish


def bench_figure4(benchmark, engine, requests, results_dir):
    result = benchmark.pedantic(
        lambda: run_figure4(requests=requests, engine=engine),
        rounds=1,
        iterations=1,
    )
    text = render_figure4(result)
    summary = result.series_summary()
    text += (
        "\n\npaper averages: combined improvement 56.5%"
        f"\nmeasured gmeans: fgnvm {summary['fgnvm']:.3f}, "
        f"128-banks {summary['128-banks']:.3f}, "
        f"multi-issue {summary['fgnvm-multi-issue']:.3f}"
    )
    publish(results_dir, "figure4_speedup", text)
    problems = check_figure4_shape(result)
    assert problems == [], problems
