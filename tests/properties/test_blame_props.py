"""Property tests: blame attribution tiles every span exactly.

The tracer's core structural contract, stated in
:mod:`repro.obs.trace`: for every sampled request, the blame segments
are non-overlapping, gap-free from queue admission to completion, and
sum exactly to the measured latency — no cycle is double-blamed and no
cycle escapes attribution.  Hypothesis drives the claim across every
registered scheduling policy, both benchmark extremes, and randomized
(sample_every, seed) pairs, so no policy's stall pattern (PALP's
overlap ranking, RBLA's adaptive feedback, FCFS head-of-line blocking)
can open a gap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import fgnvm
from repro.memsys.policies import apply_policy, policy_names
from repro.obs import make_probe
from repro.obs.trace import BLAME_CAUSES, BLAME_SERVICE, RequestTracer
from repro.sim.experiment import run_benchmark

POLICY_NAMES = policy_names()


def traced_run(policy, benchmark, requests, sample_every, seed):
    config = apply_policy(fgnvm(4, 2), policy)
    config.org.rows_per_bank = 256
    tracer = RequestTracer(sample_every=sample_every, seed=seed)
    result = run_benchmark(config, benchmark, requests,
                           probe=make_probe(tracer=tracer))
    return tracer, result


class TestBlameTilesLatency:
    @settings(max_examples=12, deadline=None)
    @given(
        policy=st.sampled_from(POLICY_NAMES),
        benchmark=st.sampled_from(["mcf", "milc"]),
        requests=st.integers(min_value=50, max_value=400),
        sample_every=st.integers(min_value=1, max_value=7),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_segments_are_gap_free_and_sum_to_latency(
        self, policy, benchmark, requests, sample_every, seed
    ):
        tracer, _ = traced_run(
            policy, benchmark, requests, sample_every, seed
        )
        # Every admitted sampled request completed (no span leaks) ...
        assert not tracer.active
        # ... the deterministic 1-in-N arithmetic held ...
        phase = seed % sample_every
        expected = len([
            i for i in range(requests)  # every request is admitted once
            if i % sample_every == phase
        ])
        assert len(tracer.finished) == expected
        assert tracer.finished, "sample must not be empty"
        # ... and each span's segments tile [arrival, completion).
        for span in tracer.finished:
            assert span.check() == [], span.check()
            assert span.completion > span.arrival
            assert sum(
                end - start for start, end, _ in span.segments
            ) == span.latency
            cursor = span.arrival
            for start, end, cause in span.segments:
                assert start == cursor and end > start
                assert cause in BLAME_CAUSES
                cursor = end
            assert cursor == span.completion
            # Every request ends in actual service of some kind.
            assert span.segments[-1][2] == BLAME_SERVICE
            assert span.service != ""

    @settings(max_examples=6, deadline=None)
    @given(
        policy=st.sampled_from(POLICY_NAMES),
        sample_every=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_sampling_is_reproducible(self, policy, sample_every, seed):
        """Two identical traced runs sample the identical request set
        and attribute the identical segments — the property that keeps
        cached results comparable to traced re-runs."""
        first, _ = traced_run(policy, "mcf", 150, sample_every, seed)
        second, _ = traced_run(policy, "mcf", 150, sample_every, seed)
        assert [
            (s.arrival, s.completion, s.segments) for s in first.finished
        ] == [
            (s.arrival, s.completion, s.segments) for s in second.finished
        ]

    def test_tracing_never_perturbs_results_across_policies(self):
        """Per-policy belt-and-braces for the overhead guard: the traced
        and untraced runs of every registered policy are bit-identical."""
        for policy in POLICY_NAMES:
            tracer, traced = traced_run(policy, "mcf", 200, 2, 1)
            config = apply_policy(fgnvm(4, 2), policy)
            config.org.rows_per_bank = 256
            plain = run_benchmark(config, "mcf", 200)
            assert plain.summary() == traced.summary(), policy
