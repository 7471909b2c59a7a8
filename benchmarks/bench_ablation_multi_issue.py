"""Ablation — Multi-Issue width (commands/cycle and data-bus lanes).

The paper's Multi-Issue bars use "multiple memory commands ... during
the same cycle and multiple data ... via larger data bus" without
giving a width; this sweep shows the return curve.  Expected shape:
monotone non-decreasing IPC with diminishing returns (the bank tiles,
not the buses, are the binding resource past a few lanes).
"""

from repro.config import baseline_nvm, fgnvm, fgnvm_multi_issue
from repro.sim.reporting import series_table

from conftest import publish

WIDTHS = (1, 2, 4, 8)
BENCHES = ("mcf", "lbm")


def config_for(width):
    if width == 1:
        return fgnvm(8, 2)
    cfg = fgnvm_multi_issue(8, 2, issue_width=width, data_bus_width=width)
    cfg.name = f"fgnvm-8x2-mi{width}"
    return cfg


def run_sweep(requests, cache):
    rows = {}
    for bench in BENCHES:
        base = cache.run(baseline_nvm(), bench, requests)
        for width in WIDTHS:
            run = cache.run(config_for(width), bench, requests)
            rows[f"{bench}-w{width}"] = {
                "speedup": run.ipc / base.ipc,
                "avg_read_latency": run.stats.avg_read_latency,
            }
    return rows


def bench_multi_issue_width(benchmark, cache, requests, results_dir):
    rows = benchmark.pedantic(
        lambda: run_sweep(requests, cache), rounds=1, iterations=1
    )
    text = (
        "Ablation — Multi-Issue width sweep on FgNVM 8x2\n"
        + series_table(rows)
    )
    publish(results_dir, "ablation_multi_issue", text)
    for bench in BENCHES:
        speedups = [rows[f"{bench}-w{w}"]["speedup"] for w in WIDTHS]
        # Width never hurts beyond noise and width-4 beats width-1.
        assert speedups[2] >= speedups[0] * 0.995, (bench, speedups)
        assert min(speedups[1:]) >= speedups[0] * 0.98, (bench, speedups)
