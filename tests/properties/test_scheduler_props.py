"""Property tests: every fast policy is observationally its oracle.

The event-driven controller replaces sort-based ranking with
single-pass min-scans over memoized per-bank (kind, constraint)
lookups.  These properties pin each registered policy's fast
implementation against its brute-force reference oracle
(:mod:`repro.memsys.policies`):

* on randomized scripted candidate sets (arrival ties broken by req_id,
  row-hit flips, blocked candidates mixed in, banks with in-flight
  writes for the PALP overlap signal), including the blocked-candidate
  horizon the controller memoizes quiet cycles on;
* on a live :class:`~repro.core.fgnvm_bank.FgNvmBank`, where the memo
  churns across real issues and stateful policies (RBLA) receive the
  ``note_issued`` feedback stream; and
* end-to-end: for every registered policy the same configuration
  produces cycle-identical run summaries whether the controller runs
  the fast implementation (the default) or
  ``REPRO_SCHEDULER=reference`` forces the oracle.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import baseline_nvm, fgnvm, fgnvm_multi_issue
from repro.core.fgnvm_bank import make_fgnvm_bank
from repro.memsys.address import AddressMapper
from repro.memsys.policies import apply_policy, get_policy, policy_names
from repro.memsys.request import (
    SERVICE_ROW_HIT,
    SERVICE_ROW_MISS,
    SERVICE_UNDERFETCH,
    SERVICE_WRITE,
    MemRequest,
    OpType,
)
from repro.memsys.scheduler import candidate_groups
from repro.memsys.stats import StatsCollector
from repro.sim.experiment import run_benchmark

NOW = 100

#: Every registered policy, id-stable for parametrised matrices.
POLICY_NAMES = policy_names()


class ScriptedBank:
    """Test double with scripted per-request (hit, ready) behaviour.

    ``kind_and_constraint`` maps the scripted pair onto the bank
    contract: the constraint is now-independent and row-hit status
    follows from the service kind exactly as in
    ``FgNvmBank.kind_and_constraint``, while the protocol pair answers
    the oracle from the same script.
    """

    def __init__(self):
        self.hits = {}
        self.ready = {}
        #: Never filled: every fast-scan lookup misses and asks
        #: ``kind_and_constraint``.
        self.sched_memo = {}

    def is_row_hit(self, req):
        return self.hits[req.req_id]

    def earliest_start(self, req, now):
        return max(now, self.ready[req.req_id])

    def kind_and_constraint(self, req):
        if self.hits[req.req_id]:
            kind = SERVICE_WRITE if req.is_write else SERVICE_ROW_HIT
        else:
            kind = SERVICE_ROW_MISS if req.req_id % 2 else SERVICE_UNDERFETCH
        return kind, self.ready[req.req_id]


def fresh_bank():
    cfg = fgnvm(4, 4)
    cfg.org.rows_per_bank = 64
    return (make_fgnvm_bank(0, cfg.org, cfg.timing.cycles(),
                            StatsCollector()),
            AddressMapper(cfg.org))


#: A workload against one live bank: (is_write, row, col) per request.
LIVE_SPEC = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=7),
    ),
    min_size=1,
    max_size=16,
)


class WritingScriptedBank(ScriptedBank):
    """Scripted double that also reports scripted in-flight writes.

    Exercises the PALP overlap term; policies that ignore
    ``active_writes`` must rank identically across both bank flavours.
    """

    def __init__(self, writes_in_flight=0):
        super().__init__()
        self._writes_in_flight = writes_in_flight

    def active_writes(self, now):
        return self._writes_in_flight

    def write_cap_free_at(self, cap):
        """The now-independent form: scripted writes never release."""
        return 10**9 if self._writes_in_flight >= cap else 0


def matrix_candidates(spec):
    """(req, bank) candidates over one idle and one writing bank."""
    banks = (WritingScriptedBank(0), WritingScriptedBank(1))
    candidates = []
    for arrival, hit, delay, bank_idx, is_write in spec:
        req = MemRequest(OpType.WRITE if is_write else OpType.READ,
                         address=0)
        req.arrival_cycle = arrival
        bank = banks[bank_idx]
        bank.hits[req.req_id] = hit
        bank.ready[req.req_id] = NOW + delay
        candidates.append((req, bank))
    return candidates


#: (arrival, is_row_hit, readiness delay relative to NOW, bank index,
#: is_write).  The tiny arrival range forces ties (broken by req_id);
#: delays straddle zero so blocked candidates appear alongside issuable
#: ones.  Bank 1 has a write in flight, so PALP's overlap term and
#: RBLA's per-bank scores get distinct banks to tell apart.
MATRIX_SPEC = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.booleans(),
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=0, max_value=1),
        st.booleans(),
    ),
    min_size=0,
    max_size=12,
)


class TestPolicyMatrixScripted:
    """Every registered policy: fast pick == oracle's top rank."""

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @given(spec=MATRIX_SPEC)
    @settings(max_examples=60, deadline=None)
    def test_pick_matches_oracle(self, policy, spec):
        entry = get_policy(policy)
        candidates = matrix_candidates(spec)
        ranked = entry.oracle().rank(candidates, NOW)
        picked = entry.fast().pick(candidates, NOW)
        if not ranked:
            assert picked is None
        else:
            assert picked is ranked[0]

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @given(spec=MATRIX_SPEC)
    @settings(max_examples=40, deadline=None)
    def test_blocked_horizon_is_min_blocked_constraint(self, policy, spec):
        fast = get_policy(policy).fast()
        candidates = matrix_candidates(spec)
        _, horizon = fast.pick_with_horizon(*candidate_groups(candidates),
                                            NOW)
        blocked = [bank.earliest_start(req, NOW)
                   for req, bank in candidates
                   if bank.earliest_start(req, NOW) > NOW]
        assert horizon == (min(blocked) if blocked else None)


class TestPolicyMatrixLiveReplay:
    """Replay random workloads on a live bank for every policy.

    Stateful policies get the controller's ``note_issued`` feedback on
    both sides, so the oracle's score evolution tracks the fast
    policy's exactly — the same contract the controller honours.
    """

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    @given(spec=LIVE_SPEC)
    @settings(max_examples=40, deadline=None)
    def test_pick_matches_oracle_across_issues(self, policy, spec):
        entry = get_policy(policy)
        bank, mapper = fresh_bank()
        pending = []
        for index, (is_write, row, col) in enumerate(spec):
            address = mapper.encode(row=row, col=col)
            req = MemRequest(OpType.WRITE if is_write else OpType.READ,
                             address, decoded=mapper.decode(address))
            req.arrival_cycle = index // 2
            pending.append(req)

        fast = entry.fast()
        oracle = entry.oracle()
        now = 0
        guard = 0
        while pending:
            guard += 1
            assert guard < 10_000, "live replay failed to drain"
            candidates = [(req, bank) for req in pending]
            ranked = oracle.rank(candidates, now)
            picked = fast.pick(candidates, now)
            if not ranked:
                assert picked is None
                now += 1
                continue
            assert picked is ranked[0]
            req = picked[0]
            result = bank.issue(req, now)
            for sched in (fast, oracle):
                sched.note_issued(req, bank, result.kind)
            pending.remove(req)
            now += 1


def assert_fast_matches_oracle(cfg_factory, benchmark, monkeypatch,
                               requests=400):
    """One run with the fast policy, one with the forced oracle."""
    monkeypatch.delenv("REPRO_SCHEDULER", raising=False)
    fast = run_benchmark(cfg_factory(), benchmark, requests)
    monkeypatch.setenv("REPRO_SCHEDULER", "reference")
    oracle = run_benchmark(cfg_factory(), benchmark, requests)
    assert fast.summary() == oracle.summary()
    assert fast.cycles == oracle.cycles
    assert fast.ipc == oracle.ipc


def small_rows(cfg):
    cfg.org.rows_per_bank = 1024
    return cfg


class TestEndToEndCycleIdentity:
    """The figure sweeps are bit-identical under either implementation."""

    CONFIGS = (baseline_nvm, lambda: fgnvm(4, 4), lambda: fgnvm(8, 2))
    CONFIG_IDS = ("baseline", "fgnvm-4x4", "fgnvm-8x2")

    @pytest.mark.parametrize("make_cfg", CONFIGS, ids=CONFIG_IDS)
    def test_sweep_summary_identical(self, make_cfg, monkeypatch):
        assert_fast_matches_oracle(lambda: small_rows(make_cfg()), "mcf",
                                   monkeypatch)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_policy_summary_identical_to_oracle(self, policy, monkeypatch):
        """Per-policy end-to-end identity: default impl vs forced oracle."""
        assert_fast_matches_oracle(
            lambda: apply_policy(small_rows(fgnvm(4, 4)), policy), "mcf",
            monkeypatch)

    @pytest.mark.parametrize("make_cfg", CONFIGS, ids=CONFIG_IDS)
    def test_lbm_summary_identical(self, make_cfg, monkeypatch):
        """lbm's write drains and write cap, which the fused scan
        applies per bank group."""
        assert_fast_matches_oracle(lambda: small_rows(make_cfg()), "lbm",
                                   monkeypatch)

    @pytest.mark.parametrize("policy", POLICY_NAMES)
    def test_policy_lbm_summary_identical_to_oracle(self, policy,
                                                    monkeypatch):
        assert_fast_matches_oracle(
            lambda: apply_policy(small_rows(fgnvm(4, 4)), policy), "lbm",
            monkeypatch)

    @pytest.mark.parametrize("workload", ("mcf", "lbm"))
    def test_multi_issue_summary_identical(self, workload, monkeypatch):
        """Two command slots and two data-bus lanes per cycle."""
        assert_fast_matches_oracle(
            lambda: small_rows(fgnvm_multi_issue(8, 2, issue_width=2,
                                                 data_bus_width=2)),
            workload, monkeypatch)
