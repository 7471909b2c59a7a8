"""One-shot reproduction against a warm cache."""

import json

import pytest

from repro.analysis.reproduce import reproduce_all
from repro.config import salp
from repro.sim import parallel
from repro.sim.experiment import compare_architectures
from repro.sim.parallel import ParallelExperimentEngine

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
                  engine=ParallelExperimentEngine(workers=1, cache_dir=cache))

    def no_pool(*args, **kwargs):
        raise AssertionError("a warm reproduction forked a process pool")

    monkeypatch.setattr(parallel, "_new_pool", no_pool)
    engine = ParallelExperimentEngine(workers=2, cache_dir=cache)
    reproduce_all(tmp_path / "warm", REQUESTS, BENCHMARKS, engine=engine)

    assert engine.stats.simulations == 0
    assert engine.stats.disk_hits > 0
    assert _artifacts(tmp_path / "warm") == _artifacts(tmp_path / "cold")


def _journal_batches(cache):
    lines = (cache / "sweep-journal.jsonl").read_text().splitlines()
    return [json.loads(line)["batch"] for line in lines]


@pytest.mark.timeout(300)
def test_every_journaled_batch_is_labelled(tmp_path):
    """Each batch tags its journal entries with its own name, also
    after a labelled batch ran on the same engine: the Figure 4 and
    Figure 5 grids run as one batch, ``headline``."""
    cache = tmp_path / "cache"
    engine = ParallelExperimentEngine(workers=1, cache_dir=cache)
    # salp-8 is in neither figure grid, so its run is journaled alone.
    compare_architectures({"salp": salp(8)}, BENCHMARKS[0], REQUESTS,
                          cache=engine)
    reproduce_all(tmp_path / "out", REQUESTS, BENCHMARKS, engine=engine)

    batches = _journal_batches(cache)
    assert batches[0] == f"compare:{BENCHMARKS[0]}"
    assert "" not in batches
    assert set(batches[1:]) == {"headline"}
