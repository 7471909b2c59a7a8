"""Property tests: the device fault model is deterministic and blamed.

Two contracts from :mod:`repro.memsys.reliability`:

* **Determinism without RNG state** — a seeded reliability config
  produces the identical result on every run and on every engine path
  (serial, pooled, disk-cached), because each verify draw is a pure
  hash of (seed, tile, wear, attempt).
* **Blame stays gap-free** — with retries and maintenance in the
  pipeline, every sampled request's blame segments still tile
  [arrival, completion) exactly, across every registered scheduling
  policy, with the new ``write_retry``/``maintenance`` causes in the
  vocabulary.
"""

import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fgnvm, with_reliability
from repro.memsys.policies import apply_policy, policy_names
from repro.obs import make_probe
from repro.obs.trace import (
    BLAME_CAUSES,
    BLAME_SERVICE,
    BLAME_WRITE_RETRY,
    RequestTracer,
)
from repro.sim.experiment import run_benchmark
from repro.sim.parallel import ExperimentJob, ParallelExperimentEngine

POLICY_NAMES = policy_names()


def reliability_config(prob, seed, rotate=None, endurance=None,
                       policy=None):
    base = fgnvm(4, 2)
    base.org.rows_per_bank = 256
    if policy is not None:
        base = apply_policy(base, policy)
    return with_reliability(
        base, write_fail_prob=prob, max_write_retries=4,
        endurance_writes=endurance, wear_rotate_every=rotate, seed=seed,
    )


class TestSeededDeterminism:
    @settings(max_examples=10, deadline=None)
    @given(
        prob=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        rotate=st.one_of(st.none(), st.integers(min_value=8, max_value=64)),
        endurance=st.one_of(st.none(),
                            st.integers(min_value=20, max_value=200)),
        benchmark=st.sampled_from(["mcf", "milc"]),
        requests=st.integers(min_value=100, max_value=500),
    )
    def test_same_seed_same_everything(self, prob, seed, rotate,
                                       endurance, benchmark, requests):
        config = reliability_config(prob, seed, rotate, endurance)
        first = run_benchmark(config, benchmark, requests).summary()
        second = run_benchmark(config, benchmark, requests).summary()
        assert first == second

    def test_serial_pooled_and_cached_agree(self):
        config = reliability_config(0.2, seed=11, rotate=32, endurance=80)
        jobs = [ExperimentJob(config, "mcf", 500, seed=s) for s in (0, 1)]
        serial = [
            r.summary()
            for r in ParallelExperimentEngine(workers=1).run_jobs(jobs)
        ]
        pooled = [
            r.summary()
            for r in ParallelExperimentEngine(workers=2).run_jobs(jobs)
        ]
        assert pooled == serial
        with tempfile.TemporaryDirectory() as cache_dir:
            warm = ParallelExperimentEngine(workers=1, cache_dir=cache_dir)
            assert [r.summary() for r in warm.run_jobs(jobs)] == serial
            replay = ParallelExperimentEngine(workers=1,
                                              cache_dir=cache_dir)
            assert [r.summary() for r in replay.run_jobs(jobs)] == serial
            assert replay.stats.disk_hits == len(jobs)
            assert replay.stats.executed == 0


class TestBlameStaysGapFree:
    @settings(max_examples=10, deadline=None)
    @given(
        policy=st.sampled_from(POLICY_NAMES),
        prob=st.floats(min_value=0.05, max_value=0.6),
        seed=st.integers(min_value=0, max_value=2**16),
        requests=st.integers(min_value=80, max_value=300),
    )
    def test_segments_tile_latency_under_faults(self, policy, prob, seed,
                                                requests):
        config = reliability_config(prob, seed, rotate=16, endurance=None,
                                    policy=policy)
        tracer = RequestTracer(sample_every=1, seed=seed)
        run_benchmark(config, "mcf", requests,
                      probe=make_probe(tracer=tracer))
        assert not tracer.active
        assert tracer.finished
        for span in tracer.finished:
            assert span.check() == [], span.check()
            assert sum(
                end - start for start, end, _ in span.segments
            ) == span.latency
            cursor = span.arrival
            for start, end, cause in span.segments:
                assert start == cursor and end > start
                assert cause in BLAME_CAUSES
                cursor = end
            assert cursor == span.completion
            assert span.segments[-1][2] == BLAME_SERVICE

    def test_write_retry_blame_actually_appears(self):
        """At a high failure rate the new cause must show up in spans —
        the vocabulary is load-bearing, not decorative."""
        config = reliability_config(0.9, seed=3)
        tracer = RequestTracer(sample_every=1, seed=0)
        result = run_benchmark(config, "mcf", 600,
                               probe=make_probe(tracer=tracer))
        assert result.stats.write_retries > 0
        causes = {
            cause
            for span in tracer.finished
            for _, _, cause in span.segments
        }
        assert BLAME_WRITE_RETRY in causes

    def test_maintenance_competes_and_is_attributed(self):
        """Rotation migrations occupy tiles: the stats must count them
        and the run must still complete with blame intact."""
        config = reliability_config(0.0, seed=0, rotate=8)
        tracer = RequestTracer(sample_every=1, seed=0)
        result = run_benchmark(config, "mcf", 600,
                               probe=make_probe(tracer=tracer))
        assert result.stats.maintenance_ops > 0
        assert result.stats.maintenance_cycles > 0
        for span in tracer.finished:
            assert span.check() == [], span.check()
