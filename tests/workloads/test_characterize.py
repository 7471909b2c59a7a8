"""Trace characterisation: measured statistics match construction."""

import pytest

from repro.config import fgnvm
from repro.memsys.request import OpType
from repro.workloads.characterize import (
    TraceCharacter,
    characterize,
    fidelity_report,
)
from repro.workloads.packed import PackedTrace
from repro.workloads.record import TraceRecord
from repro.workloads.spec_profiles import PROFILES
from repro.workloads.synthetic import (
    multi_stream_kernel,
    random_kernel,
    stream_kernel,
)
from repro.workloads.tracegen import generate_trace


class TestKernelsHaveKnownCharacter:
    def test_stream_has_high_row_locality(self):
        character = characterize(stream_kernel(500, gap=10))
        assert character.row_locality > 0.8
        assert character.write_fraction == 0.0
        assert character.footprint_lines == 500

    def test_random_has_low_row_locality_and_high_spread(self):
        # Footprint spans the full default capacity so rows roam every
        # SAG (the default org is 8 banks x 32768 rows x 1KB = 256 MiB).
        character = characterize(
            random_kernel(1500, footprint_bytes=1 << 28, gap=10, seed=1)
        )
        assert character.row_locality < 0.05
        assert character.bank_spread > 0.95
        assert character.sag_spread > 0.9

    def test_single_stream_concentrates_resources(self):
        # One short sequential run stays inside one row/bank at first.
        character = characterize(stream_kernel(8, gap=10))
        assert character.bank_spread == 0.0
        assert character.cd_spread > 0.0  # walks the row's CDs

    def test_burstiness_counts_small_gaps(self):
        trace = PackedTrace.from_records(
            [TraceRecord(0, OpType.READ, i * 64) for i in range(10)]
            + [TraceRecord(50, OpType.READ, i * 64) for i in range(10)]
        )
        character = characterize(trace)
        assert character.burstiness == pytest.approx(0.5)

    def test_multi_stream_spreads_sags(self):
        # 1024 rows / 4 SAGs = 256 rows per SAG; one row spans 8 KiB of
        # address space, so the SAG stride is 2 MiB.
        trace = multi_stream_kernel(
            400, streams=4, gap=5, stream_spacing_bytes=(1 << 21) + 128,
        )
        cfg = fgnvm(4, 4)
        cfg.org.rows_per_bank = 1024
        character = characterize(trace, cfg.org)
        assert character.sag_spread > 0.9

    def test_empty_trace(self):
        character = characterize(PackedTrace())
        assert character.accesses == 0
        assert character.row_locality == 0.0
        assert character.burstiness == 0.0


class TestProfileFidelity:
    @pytest.mark.parametrize("name", list(PROFILES), ids=list(PROFILES))
    def test_generated_traces_hit_their_targets(self, name):
        profile = PROFILES[name]
        trace = generate_trace(profile, 3000)
        character = characterize(trace)
        assert fidelity_report(
            character, profile.mpki, profile.write_fraction
        ) == [], name

    def test_streaming_profiles_measure_more_row_local(self):
        streamer = characterize(generate_trace(PROFILES["libquantum"], 2000))
        chaser = characterize(generate_trace(PROFILES["mcf"], 2000))
        assert streamer.row_locality > chaser.row_locality


class TestFidelityReport:
    def character(self, mpki=20.0, writes=0.3):
        return TraceCharacter(
            accesses=100, mpki=mpki, write_fraction=writes,
            row_locality=0.5, footprint_lines=100, bank_spread=0.9,
            sag_spread=0.9, cd_spread=0.9, burstiness=0.2,
        )

    def test_clean_when_on_target(self):
        assert fidelity_report(self.character(), 20.0, 0.3) == []

    def test_flags_mpki_drift(self):
        problems = fidelity_report(self.character(mpki=40.0), 20.0, 0.3)
        assert any("mpki" in p for p in problems)

    def test_flags_write_drift(self):
        problems = fidelity_report(self.character(writes=0.5), 20.0, 0.3)
        assert any("write fraction" in p for p in problems)
