"""One-shot reproduction against a warm cache."""

import pytest

from repro.analysis.reproduce import reproduce_all
from repro.resilience import engine as resilient
from repro.resilience.engine import resilient_engine
from repro.sim import parallel

REQUESTS = 300
BENCHMARKS = ["sphinx3"]


def _artifacts(out_dir):
    # MANIFEST.txt names the output directory, so it differs per run.
    return {path.name: path.read_bytes() for path in out_dir.iterdir()
            if path.name != "MANIFEST.txt"}


@pytest.mark.timeout(300)
def test_warm_reproduction_forks_no_pool(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    reproduce_all(tmp_path / "cold", REQUESTS, BENCHMARKS,
                  engine=resilient_engine(workers=1, cache_dir=cache))

    def no_pool(*args, **kwargs):
        raise AssertionError("a warm reproduction forked a process pool")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(resilient, "ProcessPoolExecutor", no_pool)
    engine = resilient_engine(workers=2, cache_dir=cache)
    reproduce_all(tmp_path / "warm", REQUESTS, BENCHMARKS, engine=engine)

    assert engine.stats.simulations == 0
    assert engine.stats.disk_hits > 0
    assert _artifacts(tmp_path / "warm") == _artifacts(tmp_path / "cold")
