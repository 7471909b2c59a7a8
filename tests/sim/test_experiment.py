"""Experiment runner: sweeps, normalisation, caching."""

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.sim.experiment import (
    compare_architectures,
    geometric_mean,
    run_benchmark,
    run_trace,
    speedup,
    speedup_table,
    sweep_benchmarks,
)
from repro.sim.parallel import ParallelExperimentEngine
from repro.workloads.synthetic import stream_kernel

REQUESTS = 400


class TestGeometricMean:
    def test_known_value(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert geometric_mean([1.5]) == pytest.approx(1.5)

    def test_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])


class TestRunners:
    def test_run_benchmark_is_deterministic(self):
        cfg = baseline_nvm()
        a = run_benchmark(cfg, "sphinx3", REQUESTS)
        b = run_benchmark(cfg, "sphinx3", REQUESTS)
        assert a.ipc == b.ipc

    def test_run_trace(self):
        result = run_trace(baseline_nvm(), stream_kernel(100))
        assert result.stats.reads == 100

    def test_speedup(self):
        base = run_benchmark(baseline_nvm(), "mcf", REQUESTS)
        fast = run_benchmark(fgnvm(8, 2), "mcf", REQUESTS)
        assert speedup(fast, base) == pytest.approx(fast.ipc / base.ipc)

    def test_unknown_benchmark_raises(self):
        with pytest.raises(KeyError):
            run_benchmark(baseline_nvm(), "doom", REQUESTS)


class TestCache:
    def test_cache_avoids_reruns(self):
        cache = ParallelExperimentEngine()
        cfg = baseline_nvm()
        first = cache.run(cfg, "sphinx3", REQUESTS)
        second = cache.run(cfg, "sphinx3", REQUESTS)
        assert first is second
        assert cache.stats.executed == 1

    def test_cache_keys_on_name_bench_and_length(self):
        cache = ParallelExperimentEngine()
        cache.run(baseline_nvm(), "sphinx3", REQUESTS)
        cache.run(baseline_nvm(), "sphinx3", REQUESTS // 2)
        cache.run(fgnvm(8, 2), "sphinx3", REQUESTS)
        assert cache.stats.executed == 3


class TestTables:
    def test_compare_architectures(self):
        results = compare_architectures(
            {"baseline": baseline_nvm(), "fgnvm": fgnvm(8, 2)},
            "sphinx3",
            REQUESTS,
        )
        assert set(results) == {"baseline", "fgnvm"}

    def test_sweep_benchmarks_shares_cache(self):
        cache = ParallelExperimentEngine()
        sweep_benchmarks(baseline_nvm(), ["sphinx3", "astar"], REQUESTS,
                         cache)
        assert cache.stats.executed == 2

    def test_speedup_table_adds_gmean(self):
        cache = ParallelExperimentEngine()
        configs = {"baseline": baseline_nvm(), "fgnvm": fgnvm(8, 2)}
        nest = {
            bench: compare_architectures(configs, bench, REQUESTS, cache)
            for bench in ("sphinx3", "astar")
        }
        table = speedup_table(nest)
        assert set(table) == {"sphinx3", "astar", "gmean"}
        assert "baseline" not in table["sphinx3"]
        gmean = geometric_mean(
            [table["sphinx3"]["fgnvm"], table["astar"]["fgnvm"]]
        )
        assert table["gmean"]["fgnvm"] == pytest.approx(gmean)
