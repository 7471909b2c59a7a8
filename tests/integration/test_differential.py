"""Differential tests: independent implementations must agree exactly.

Two families of guarantee live here:

* **Degenerate equivalence** — an FgNVM bank subdivided 1 SAG x 1 CD
  is, by construction, the state-of-the-art baseline bank: one open
  row, the whole row sensed per activation, writes blocking the bank.
  The two implementations live in different modules
  (`repro.core.fgnvm_bank` vs `repro.memsys.bank_baseline`), so this
  suite pins them against each other cycle-for-cycle.
* **Per-policy sweep identity** — every policy in the registry ships a
  fast scheduler and a brute-force reference oracle.  Forcing
  ``REPRO_SCHEDULER=reference`` swaps every controller onto the oracle;
  a whole parameter sweep must then reproduce the fast path's summaries
  bit-for-bit, for every registered policy.

Any drift in a bank model, a scheduler, the controller, or the
experiment plumbing shows up as a summary mismatch here before it can
silently shift a figure.
"""

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.config.params import BankArchitecture
from repro.config.validate import validate_config
from repro.memsys.policies import apply_policy, policy_names
from repro.memsys.scheduler import SCHEDULER_ENV
from repro.obs import make_probe
from repro.obs.trace import (
    RequestTracer,
    blame_report,
    render_blame,
    seed_from_digest,
)
from repro.sim.experiment import run_benchmark
from repro.sim.parallel import config_digest
from repro.sim.sweeps import parameter_sweep

REQUESTS = 600
BENCHMARKS = ("mcf", "lbm", "milc")
SEEDS = (None, 7, 1234)


def small(cfg):
    cfg.org.rows_per_bank = 1024
    return cfg


def degenerate_fgnvm():
    """The baseline config re-architected as a 1x1 FgNVM bank.

    Everything else — controller policy, timing, geometry — is the
    baseline's, so the only difference under test is the bank model
    implementation itself.
    """
    cfg = small(baseline_nvm())
    cfg.org.architecture = BankArchitecture.FGNVM
    cfg.org.subarray_groups = 1
    cfg.org.column_divisions = 1
    cfg.name = "fgnvm-1x1-degenerate"
    return validate_config(cfg)


class TestDegenerateEquivalence:
    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cycle_identical_summaries(self, bench, seed):
        base = run_benchmark(small(baseline_nvm()), bench, REQUESTS,
                             seed=seed)
        deg = run_benchmark(degenerate_fgnvm(), bench, REQUESTS,
                            seed=seed)
        base_summary = base.summary()
        deg_summary = deg.summary()
        # The config label legitimately differs; everything else must not.
        base_summary.pop("config")
        deg_summary.pop("config")
        assert deg_summary == base_summary
        assert deg.cycles == base.cycles
        assert deg.ipc == base.ipc
        assert deg.energy.total_pj == base.energy.total_pj

    def test_epoch_series_identical(self):
        base_cfg = small(baseline_nvm())
        base_cfg.sim.epoch_cycles = 500
        deg_cfg = degenerate_fgnvm()
        deg_cfg.sim.epoch_cycles = 500
        base = run_benchmark(base_cfg, "mcf", REQUESTS)
        deg = run_benchmark(deg_cfg, "mcf", REQUESTS)
        assert deg.epochs == base.epochs


class TestSubdivisionNeverHurts:
    """More tiles can only add parallelism, never serialise anything.

    The degenerate 1x1 FgNVM preset (eager-write controller included) is
    the floor: every real subdivision must meet or beat its IPC on every
    benchmark.
    """

    @pytest.mark.parametrize("bench", BENCHMARKS)
    @pytest.mark.parametrize("sags,cds", [(4, 4), (8, 2), (8, 8)])
    def test_multi_tile_not_slower_than_degenerate(self, bench, sags, cds):
        floor = run_benchmark(small(fgnvm(1, 1)), bench, REQUESTS)
        tiled = run_benchmark(small(fgnvm(sags, cds)), bench, REQUESTS)
        assert tiled.ipc >= floor.ipc


class TestPolicySweepIdentity:
    """End-to-end fast-vs-oracle identity for every registered policy.

    A whole subarray-group sweep is run twice per policy: once on the
    policy's fast scheduler (env unset), once with
    ``REPRO_SCHEDULER=reference`` forcing its brute-force oracle.  The
    summaries must match exactly — cycles, energy, every counter.
    """

    SWEEP_SAGS = [2, 4]

    def sweep(self, policy, bench="mcf"):
        base = apply_policy(small(fgnvm(4, 4)), policy)
        return parameter_sweep(base, "org.subarray_groups",
                               self.SWEEP_SAGS, bench, REQUESTS)

    @pytest.mark.parametrize("policy", policy_names())
    def test_sweep_summaries_identical_to_oracle(self, policy,
                                                 monkeypatch):
        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        fast = self.sweep(policy)
        monkeypatch.setenv(SCHEDULER_ENV, "reference")
        oracle = self.sweep(policy)
        assert len(fast.results) == len(self.SWEEP_SAGS)
        for fast_run, oracle_run in zip(fast.results, oracle.results):
            assert fast_run.summary() == oracle_run.summary()
            assert fast_run.cycles == oracle_run.cycles
            assert fast_run.energy.total_pj == oracle_run.energy.total_pj


class TestTracedCappedIdentity:
    """Traced fast-vs-oracle identity on the write-throttled preset.

    ``fgnvm-8x2`` caps in-flight writes at one per bank.  The fast
    path memoizes quiet cycles under that cap, except while sampled
    writes are queued: blame attribution reads the cap on the cycle it
    runs, so skipping cycles would move ``write_cap`` blame.  Every
    span must therefore match the oracle's segment for segment, as
    ``repro run --trace-sample 2`` samples them.
    """

    REQUESTS = 1500

    def traced(self, policy):
        config = apply_policy(fgnvm(8, 2), policy)
        tracer = RequestTracer(
            sample_every=2, seed=seed_from_digest(config_digest(config))
        )
        result = run_benchmark(config, "lbm", self.REQUESTS,
                               probe=make_probe(tracer=tracer))
        # Request ids come from a process-global counter; everything
        # else in a span is per-run deterministic.
        spans = [
            (s.op, s.arrival, s.channel, s.bank, s.sag, s.cd, s.issue,
             s.completion, s.service, s.segments)
            for s in tracer.finished
        ]
        report = render_blame(blame_report(tracer.finished,
                                           tracer.queue_full))
        return result, spans, report

    @pytest.mark.parametrize("policy", ["frfcfs-incremental", "palp",
                                        "rbla"])
    def test_spans_identical_to_oracle(self, policy, monkeypatch):
        monkeypatch.delenv(SCHEDULER_ENV, raising=False)
        fast, fast_spans, fast_report = self.traced(policy)
        monkeypatch.setenv(SCHEDULER_ENV, "reference")
        oracle, oracle_spans, oracle_report = self.traced(policy)
        assert fast.summary() == oracle.summary()
        assert len(fast_spans) == len(oracle_spans) > 0
        for fast_span, oracle_span in zip(fast_spans, oracle_spans):
            assert fast_span == oracle_span
        assert fast_report == oracle_report
        assert "write_cap" in fast_report
