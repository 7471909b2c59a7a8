"""Run manifests: schema, serialization, and utilization math."""

import json
import platform
import subprocess
import sys

import pytest

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    JobRecord,
    RunManifest,
    read_manifest,
)


def record(source="simulated", wall_s=1.0):
    return JobRecord(
        key="ab" * 32, config="fgnvm-8x2", config_digest="cd" * 32,
        benchmark="mcf", requests=1000, seed=None, source=source,
        wall_s=wall_s,
    )


class TestManifest:
    def test_defaults_capture_environment(self):
        manifest = RunManifest(code_version="fgnvm-sim-1")
        assert manifest.schema == MANIFEST_SCHEMA
        assert manifest.host
        assert manifest.python
        assert "T" in manifest.created_utc

    @pytest.mark.skipif(
        not sys.platform.startswith("linux")
        or platform.libc_ver()[0] != "glibc",
        reason="the stamp equals platform.platform() on Linux/glibc",
    )
    def test_platform_stamp_forks_nothing(self, monkeypatch):
        """``platform.platform()`` forks ``uname -p`` on Linux; the
        manifest's stamp says the same without a subprocess."""
        def no_fork(*args, **kwargs):
            raise AssertionError("the platform stamp started a subprocess")

        with monkeypatch.context() as patch:
            # Forget what platform() cached earlier in this process, so
            # a stamp that calls it would fork here.
            patch.setattr(platform, "_platform_cache", {}, raising=False)
            patch.setattr(platform, "_uname_cache", None, raising=False)
            patch.setattr(subprocess, "Popen", no_fork)
            manifest = RunManifest(code_version="x")
        assert manifest.platform == platform.platform()

    def test_worker_utilization(self):
        manifest = RunManifest(
            code_version="x", workers=4, wall_s=10.0, busy_s=20.0
        )
        assert manifest.worker_utilization == pytest.approx(0.5)

    def test_worker_utilization_zero_wall(self):
        assert RunManifest(code_version="x").worker_utilization == 0.0

    def test_round_trip(self, tmp_path):
        manifest = RunManifest(
            code_version="x", workers=2, wall_s=3.0, busy_s=4.0,
            engine={"submitted": 2, "simulations": 1},
            jobs=[record(), record(source="disk", wall_s=0.001)],
        )
        path = manifest.write(tmp_path / "nested" / "manifest.json")
        data = read_manifest(path)
        assert data["engine"]["submitted"] == 2
        assert len(data["jobs"]) == 2
        assert data["jobs"][0]["benchmark"] == "mcf"
        assert data["worker_utilization"] == pytest.approx(
            4.0 / 6.0, abs=1e-3
        )

    def test_read_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other"}))
        with pytest.raises(ValueError, match="schema"):
            read_manifest(path)
