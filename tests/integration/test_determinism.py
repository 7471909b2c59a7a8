"""Determinism across execution strategies: serial == pool == cache.

The parallel engine's whole contract is that *how* a job runs — in
process, in a pool worker, or replayed from a pickled disk-cache blob —
is unobservable in the results.  These tests pin that contract, plus
the acceptance criterion for figure regeneration: a warm cache performs
zero new simulations.
"""

import pytest

from repro.analysis.figure4 import run_figure4
from repro.config import fgnvm
from repro.obs.perf import PhaseTimer, attached
from repro.sim.experiment import run_benchmark
from repro.sim.parallel import ExperimentJob, ParallelExperimentEngine

REQUESTS = 400
BENCHMARKS = ["mcf", "lbm"]


def small(cfg):
    cfg.org.rows_per_bank = 1024
    return cfg


def jobs():
    return [
        ExperimentJob(small(fgnvm(4, 4)), bench, REQUESTS, seed)
        for bench in BENCHMARKS
        for seed in (None, 11)
    ]


def summaries(results):
    return [r.summary() for r in results]


class TestExecutionStrategyEquivalence:
    def test_serial_pool_and_cache_round_trip_identical(self, tmp_path):
        serial = ParallelExperimentEngine(workers=1).run_jobs(jobs())

        pooled_engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path
        )
        pooled = pooled_engine.run_jobs(jobs())
        assert pooled_engine.stats.executed == len(jobs())

        # Fresh engine, warm disk: every result replays from pickle.
        replay_engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path
        )
        replayed = replay_engine.run_jobs(jobs())
        assert replay_engine.stats.executed == 0
        assert replay_engine.stats.disk_hits == len(jobs())

        assert summaries(pooled) == summaries(serial)
        assert summaries(replayed) == summaries(serial)
        # Bit-identical, not merely approximately equal.
        for a, b, c in zip(serial, pooled, replayed):
            assert a.ipc == b.ipc == c.ipc
            assert a.cycles == b.cycles == c.cycles
            assert a.energy.total_pj == b.energy.total_pj == c.energy.total_pj

    def test_engine_matches_direct_run_benchmark(self):
        direct = run_benchmark(small(fgnvm(4, 4)), "mcf", REQUESTS)
        pooled = ParallelExperimentEngine(workers=2).run_jobs(
            [ExperimentJob(small(fgnvm(4, 4)), "mcf", REQUESTS)] * 2
        )
        assert pooled[0].summary() == direct.summary()

    def test_profiled_run_matches_unprofiled(self):
        """Wall-time attribution is outside the simulated machine:
        enabling the phase profiler must not perturb any result."""
        plain = run_benchmark(small(fgnvm(4, 4)), "mcf", REQUESTS)
        timer = PhaseTimer()
        with attached(timer):
            profiled = run_benchmark(small(fgnvm(4, 4)), "mcf", REQUESTS)
        assert profiled.summary() == plain.summary()
        assert profiled.cycles == plain.cycles
        assert profiled.energy.total_pj == plain.energy.total_pj
        assert timer.total_s > 0


class TestFigureRegeneration:
    """The acceptance criterion, at figure granularity."""

    def test_figure4_pool_identical_to_serial_and_warm_cache_free(
        self, tmp_path
    ):
        serial = run_figure4(["mcf"], REQUESTS)

        pooled_engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path
        )
        pooled = run_figure4(["mcf"], REQUESTS, engine=pooled_engine)
        assert pooled.speedups == serial.speedups
        assert pooled.baseline_ipc == serial.baseline_ipc
        assert pooled_engine.stats.executed == 4  # baseline + 3 series

        warm_engine = ParallelExperimentEngine(
            workers=2, cache_dir=tmp_path
        )
        warm = run_figure4(["mcf"], REQUESTS, engine=warm_engine)
        assert warm_engine.stats.executed == 0
        assert warm_engine.stats.cache_hits > 0
        assert warm.speedups == serial.speedups
