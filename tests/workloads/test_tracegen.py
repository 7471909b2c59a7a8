"""Profile-driven trace generation: determinism and statistics."""

import pytest

from repro.memsys.request import OpType
from repro.workloads.packed import read_fraction, trace_mpki
from repro.workloads.spec_profiles import BenchmarkProfile, get_profile
from repro.workloads.tracegen import ProfileTraceGenerator, generate_trace


def profile(**overrides):
    base = dict(name="test", mpki=25.0, write_fraction=0.3, streams=4,
                p_seq=0.7, footprint_mib=16, gap_burstiness=0.2, seed=42)
    base.update(overrides)
    return BenchmarkProfile(**base)


class TestDeterminism:
    def test_same_profile_same_trace(self):
        first = generate_trace(profile(), 500)
        second = generate_trace(profile(), 500)
        assert first == second

    def test_different_seeds_differ(self):
        first = generate_trace(profile(seed=1), 500)
        second = generate_trace(profile(seed=2), 500)
        assert first != second

    def test_spec_profiles_are_reproducible(self):
        assert generate_trace(get_profile("mcf"), 100) == generate_trace(
            get_profile("mcf"), 100
        )


class TestStatisticalTargets:
    def test_write_fraction_tracks_profile(self):
        trace = generate_trace(profile(write_fraction=0.4), 4000)
        assert 1.0 - read_fraction(trace) == pytest.approx(0.4, abs=0.03)

    def test_mpki_tracks_profile(self):
        trace = generate_trace(profile(mpki=25.0), 4000)
        # Bursts pull realised MPKI above the geometric baseline a bit.
        assert trace_mpki(trace) == pytest.approx(25.0, rel=0.35)

    def test_streaming_profile_is_sequential(self):
        trace = generate_trace(profile(p_seq=1.0, streams=1), 1000)
        addresses = trace.addresses
        deltas = [b - a for a, b in zip(addresses, addresses[1:])]
        assert all(d == 64 for d in deltas)

    def test_random_profile_jumps(self):
        trace = generate_trace(profile(p_seq=0.0, streams=1), 1000)
        addresses = trace.addresses
        deltas = [abs(b - a) for a, b in zip(addresses, addresses[1:])]
        assert sum(1 for d in deltas if d != 64) > 900

    def test_addresses_stay_inside_footprint(self):
        footprint = 16 * 1024 * 1024
        trace = generate_trace(profile(footprint_mib=16), 2000)
        assert all(0 <= r.address < footprint for r in trace)

    def test_addresses_are_line_aligned(self):
        trace = generate_trace(profile(), 500)
        assert all(r.address % 64 == 0 for r in trace)


class TestGeneratorApi:
    def test_packed_length_is_counted(self):
        gen = ProfileTraceGenerator(profile())
        assert len(gen.packed(17)) == 17

    def test_negative_count_rejected(self):
        gen = ProfileTraceGenerator(profile())
        with pytest.raises(ValueError):
            gen.packed(-1)

    def test_generate_trace_is_the_packed_generator(self):
        from repro.workloads.tracegen import generate_packed_trace

        assert generate_trace is generate_packed_trace

    def test_zero_write_fraction_is_read_only(self):
        trace = generate_trace(profile(write_fraction=0.0), 500)
        assert all(r.op is OpType.READ for r in trace)
