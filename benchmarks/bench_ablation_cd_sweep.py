"""Ablation — column-division count: performance vs energy trade-off.

Figure 5 sweeps CDs for energy; this ablation adds the performance side
the paper discusses qualitatively: more CDs buy parallelism but expose
streaming workloads to underfetch (the 128-bank text calls this out).
Expected shape: random/pointer workloads gain monotonically with CDs;
the streaming benchmark's gain flattens or reverses while its
underfetch rate climbs.
"""

from repro.config import baseline_nvm, fgnvm
from repro.sim.experiment import run_cells
from repro.sim.reporting import series_table

from conftest import publish

CD_COUNTS = (1, 2, 4, 8)
BENCHES = ("mcf", "libquantum")


def run_sweep(requests, engine):
    configs = {"baseline": baseline_nvm()}
    configs.update({f"8x{cds}": fgnvm(8, cds) for cds in CD_COUNTS})
    runs = run_cells(engine, configs, BENCHES, requests,
                     label="ablation_cd_sweep")
    rows = {}
    for bench in BENCHES:
        base = runs[bench, "baseline"]
        for cds in CD_COUNTS:
            run = runs[bench, f"8x{cds}"]
            rows[f"{bench}-8x{cds}"] = {
                "speedup": run.ipc / base.ipc,
                "underfetch_rate": run.stats.underfetch_rate,
                "rel_energy": (
                    run.energy.total_pj / base.energy.total_pj
                ),
            }
    return rows


def bench_cd_sweep(benchmark, engine, requests, results_dir):
    rows = benchmark.pedantic(
        lambda: run_sweep(requests, engine), rounds=1, iterations=1
    )
    text = (
        "Ablation — CD count sweep on FgNVM (8 SAGs)\n" + series_table(rows)
    )
    publish(results_dir, "ablation_cd_sweep", text)
    # Energy falls monotonically with CDs for every benchmark.
    for bench in BENCHES:
        energies = [rows[f"{bench}-8x{c}"]["rel_energy"] for c in CD_COUNTS]
        assert energies == sorted(energies, reverse=True), (bench, energies)
    # Underfetch grows with CDs (even 8x1 re-senses a little: 8 SAGs
    # share the single CD slice of the row buffer).
    for bench in BENCHES:
        assert (
            rows[f"{bench}-8x8"]["underfetch_rate"]
            >= rows[f"{bench}-8x2"]["underfetch_rate"] * 0.99
        )
        assert rows[f"{bench}-8x8"]["underfetch_rate"] > (
            rows[f"{bench}-8x1"]["underfetch_rate"]
        )
    # The random-access benchmark keeps gaining from added parallelism.
    assert rows["mcf-8x8"]["speedup"] > rows["mcf-8x1"]["speedup"]
