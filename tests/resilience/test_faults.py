"""Unit tests for the deterministic fault plan and its applicators."""

import errno

import pytest

from repro.config import fgnvm
from repro.errors import (
    ExperimentError,
    TransientJobError,
    WorkerCrashError,
)
from repro.resilience import (
    CACHE_FAULTS,
    CORRUPT,
    CRASH,
    DISK_FULL,
    FAULT_KINDS,
    HANG,
    INTERRUPT,
    TORN,
    TRANSIENT,
    WORKER_FAULTS,
    FaultPlan,
    FaultSpec,
    apply_worker_fault,
    disk_full_error,
    mangle_blob,
)
from repro.sim.parallel import ExperimentJob, _timed_execute_job, execute_job

REQUESTS = 300


def small(cfg):
    cfg.org.rows_per_bank = 512
    return cfg


def job(benchmark="sphinx3"):
    return ExperimentJob(small(fgnvm(4, 4)), benchmark, REQUESTS)


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ExperimentError, match="unknown fault kind"):
            FaultSpec(kind="meteor", job_index=0)

    def test_negative_index_rejected(self):
        with pytest.raises(ExperimentError, match="job_index"):
            FaultSpec(kind=CRASH, job_index=-1)

    def test_kind_taxonomy_is_complete(self):
        assert set(FAULT_KINDS) == (
            set(WORKER_FAULTS) | set(CACHE_FAULTS) | {INTERRUPT}
        )


class TestFaultPlan:
    def test_seeded_is_deterministic(self):
        a = FaultPlan.seeded(7, 10, crashes=2, hangs=1, corrupt=1)
        b = FaultPlan.seeded(7, 10, crashes=2, hangs=1, corrupt=1)
        assert a == b
        assert a != FaultPlan.seeded(8, 10, crashes=2, hangs=1, corrupt=1)

    def test_seeded_uses_distinct_indices(self):
        plan = FaultPlan.seeded(
            3, 6, crashes=2, hangs=1, transients=1, corrupt=1, disk_full=1
        )
        indices = [spec.job_index for spec in plan.faults]
        assert len(indices) == len(set(indices)) == 6

    def test_seeded_overflow_rejected(self):
        with pytest.raises(ExperimentError, match="cannot place"):
            FaultPlan.seeded(0, 2, crashes=3)

    def test_worker_fault_respects_attempts(self):
        plan = FaultPlan(faults=(FaultSpec(kind=CRASH, job_index=4),))
        assert plan.worker_fault(4, 0) is not None
        assert plan.worker_fault(4, 1) is None  # retry must succeed
        assert plan.worker_fault(3, 0) is None

    def test_cache_fault_lookup(self):
        plan = FaultPlan(faults=(FaultSpec(kind=TORN, job_index=2),))
        assert plan.cache_fault(2).kind == TORN
        assert plan.cache_fault(1) is None
        assert plan.worker_fault(2, 0) is None  # cache faults aren't worker

    def test_interrupt_after(self):
        plan = FaultPlan(faults=(FaultSpec(kind=INTERRUPT, job_index=1),))
        assert plan.interrupt_after(1)
        assert not plan.interrupt_after(0)

    def test_json_round_trip(self):
        plan = FaultPlan.seeded(5, 8, crashes=1, corrupt=1, hangs=1)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_malformed_json_rejected(self):
        with pytest.raises(ExperimentError, match="malformed fault plan"):
            FaultPlan.from_json("{not json")
        with pytest.raises(ExperimentError, match="malformed fault plan"):
            FaultPlan.from_json('{"faults": [{"bogus": 1}]}')

    def test_describe_names_every_fault(self):
        plan = FaultPlan.seeded(0, 4, crashes=1, hangs=1)
        text = plan.describe()
        assert "crash" in text and "hang" in text
        assert "no faults" in FaultPlan().describe()


class TestApplicators:
    def test_serial_crash_softens_to_exception(self):
        spec = FaultSpec(kind=CRASH, job_index=0)
        with pytest.raises(WorkerCrashError):
            apply_worker_fault(spec, in_process=True)

    def test_transient_raises_transient(self):
        spec = FaultSpec(kind=TRANSIENT, job_index=0)
        with pytest.raises(TransientJobError):
            apply_worker_fault(spec, in_process=True)

    def test_serial_hang_is_capped(self):
        import time

        spec = FaultSpec(kind=HANG, job_index=0, seconds=0.01)
        t0 = time.monotonic()
        apply_worker_fault(spec, in_process=True)
        assert time.monotonic() - t0 < 1.0

    def test_faulted_execute_without_fault_matches_plain(self):
        result, wall_s = _timed_execute_job(job(), None)
        assert wall_s > 0
        assert result.summary() == execute_job(job()).summary()

    def test_disk_full_error_is_enospc(self):
        exc = disk_full_error(FaultSpec(kind=DISK_FULL, job_index=3))
        assert isinstance(exc, OSError)
        assert exc.errno == errno.ENOSPC

    def test_mangle_blob_torn_truncates(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x" * 100)
        mangle_blob(path, TORN)
        assert len(path.read_bytes()) == 50

    def test_mangle_blob_corrupt_keeps_length(self, tmp_path):
        path = tmp_path / "blob"
        original = bytes(range(64))
        path.write_bytes(original)
        mangle_blob(path, CORRUPT)
        mangled = path.read_bytes()
        assert len(mangled) == len(original)
        assert mangled != original

    def test_mangle_blob_rejects_other_kinds(self, tmp_path):
        path = tmp_path / "blob"
        path.write_bytes(b"x")
        with pytest.raises(ExperimentError):
            mangle_blob(path, CRASH)
