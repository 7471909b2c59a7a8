"""Unit tests for the policy registry and its built-in policies.

Covers registry lookup and pairing checks, ``apply_policy``'s SALP
re-architecting, the SALP bank factory branch, PALP's overlap-aware
ranking against a scriptable bank, the shape every registered policy
shares (one ranking key under a fast and an oracle base), and the
controller's ``note_issued`` feedback hook for stateful policies.
"""

import pytest

from repro.config import baseline_nvm, fgnvm, salp
from repro.config.params import BankArchitecture, SchedulerKind
from repro.errors import ConfigError, SchedulerError
from repro.memsys.bank_baseline import build_banks
from repro.memsys.controller import MemoryController
from repro.memsys.policies import (
    ORGANISATION_CAPS,
    apply_policy,
    check_policy_pairing,
    default_policy_name,
    get_policy,
    policy_names,
)
from repro.memsys.request import (
    SERVICE_ROW_HIT,
    SERVICE_ROW_MISS,
    SERVICE_WRITE,
    MemRequest,
    OpType,
)
from repro.memsys.scheduler import (
    IncrementalFrfcfs,
    IncrementalPalp,
    IncrementalRbla,
    KeyedReference,
    MinScanPolicy,
    PalpReference,
    make_scheduler,
)
from repro.memsys.stats import StatsCollector

BITS_PER_BYTE = 8


class TestRegistryLookup:
    def test_builtin_roster(self):
        assert set(policy_names()) >= {
            "fcfs", "frfcfs-incremental", "palp", "salp", "rbla"
        }

    def test_specs_are_complete(self):
        for name in policy_names():
            spec = get_policy(name)
            assert spec.name == name
            assert spec.description
            assert spec.citation
            assert callable(spec.fast) and callable(spec.oracle)

    @pytest.mark.parametrize("name", policy_names())
    def test_fast_and_oracle_share_one_ranking_key(self, name):
        """Each policy is one ``scan_key`` under the two shared bases,
        so fast and oracle can only differ in how banks classify."""
        spec = get_policy(name)
        fast, oracle = spec.fast(), spec.oracle()
        assert type(fast).scan_key is type(oracle).scan_key
        assert isinstance(fast, MinScanPolicy)
        assert isinstance(oracle, KeyedReference)

    def test_unknown_name_lists_roster(self):
        with pytest.raises(SchedulerError) as err:
            get_policy("zzz-nope")
        assert "palp" in str(err.value)

    def test_default_policy_per_kind(self):
        assert default_policy_name(SchedulerKind.FCFS) == "fcfs"
        assert (default_policy_name(SchedulerKind.FRFCFS)
                == "frfcfs-incremental")

    def test_make_scheduler_honours_config_policy(self):
        sched = make_scheduler(SchedulerKind.FRFCFS, policy="palp")
        assert isinstance(sched, IncrementalPalp)

    def test_pairing_check(self):
        palp = get_policy("palp")
        with pytest.raises(ConfigError):
            check_policy_pairing(palp, BankArchitecture.BASELINE)
        check_policy_pairing(palp, BankArchitecture.FGNVM)
        check_policy_pairing(palp, BankArchitecture.SALP)

    def test_caps_table(self):
        assert not ORGANISATION_CAPS[BankArchitecture.BASELINE].reads_under_write
        assert ORGANISATION_CAPS[BankArchitecture.FGNVM].partial_activation
        assert not ORGANISATION_CAPS[BankArchitecture.SALP].partial_activation


class TestApplyPolicy:
    def test_palp_keeps_organisation(self):
        cfg = apply_policy(fgnvm(8, 2), "palp")
        assert cfg.controller.policy == "palp"
        assert cfg.org.architecture is BankArchitecture.FGNVM
        assert cfg.name.endswith("+palp")

    def test_salp_rearchitects(self):
        cfg = apply_policy(fgnvm(8, 2), "salp")
        assert cfg.org.architecture is BankArchitecture.SALP
        assert cfg.org.column_divisions == 1
        assert cfg.org.subarray_groups == 8
        assert cfg.name.endswith("+salp")

    def test_unknown_policy_raises(self):
        with pytest.raises(SchedulerError):
            apply_policy(fgnvm(8, 2), "zzz-nope")

    def test_incompatible_policy_raises(self):
        with pytest.raises(ConfigError):
            apply_policy(baseline_nvm(), "palp")

    def test_original_config_untouched(self):
        base = fgnvm(8, 2)
        apply_policy(base, "salp")
        assert base.org.architecture is BankArchitecture.FGNVM
        assert base.controller.policy is None


class TestSalpBanks:
    def test_build_banks_salp_branch(self):
        cfg = salp(8)
        banks = build_banks(cfg.org, cfg.timing.cycles(), StatsCollector())
        assert len(banks) == (
            cfg.org.ranks_per_channel * cfg.org.banks_per_rank
        )
        for bank in banks:
            assert bank.subarray_groups == 8
            assert bank.column_divisions == 1
            # Full-row sensing: the whole row latches per activation,
            # even the DRAM-style ACT before a write.
            assert bank.sense_bits == (
                cfg.org.row_size_bytes * BITS_PER_BYTE
            )
            assert bank.sense_on_write_activate

    def test_salp_preset_shape(self):
        cfg = salp(8)
        assert cfg.org.architecture is BankArchitecture.SALP
        assert cfg.controller.policy == "salp"
        assert cfg.name == "salp-8"


class ScriptableBank:
    """Hit/ready/active-write behaviour scripted per request id."""

    def __init__(self, writes_in_flight=0):
        self.hits = {}
        self.ready = {}
        self.writes_in_flight = writes_in_flight
        #: Never filled: every fast-scan lookup misses and asks
        #: ``kind_and_constraint``.
        self.sched_memo = {}

    def is_row_hit(self, req):
        return self.hits.get(req.req_id, False)

    def earliest_start(self, req, now):
        return self.ready.get(req.req_id, now)

    def kind_and_constraint(self, req):
        if self.is_row_hit(req):
            kind = SERVICE_WRITE if req.is_write else SERVICE_ROW_HIT
        else:
            kind = SERVICE_ROW_MISS
        return kind, self.ready.get(req.req_id, 0)

    def active_writes(self, now):
        return self.writes_in_flight

    def write_cap_free_at(self, cap):
        """The now-independent form: scripted writes never release."""
        return 10**9 if self.writes_in_flight >= cap else 0


def request(arrival, op=OpType.READ):
    req = MemRequest(op, arrival * 64)
    req.arrival_cycle = arrival
    return req


class TestPalpRanking:
    def test_read_overlapping_write_preferred(self):
        """Among equal-age misses, a read that can slip under a write in
        a *different* partition outranks one aimed at an idle bank."""
        busy = ScriptableBank(writes_in_flight=1)
        idle = ScriptableBank()
        plain = request(0)
        overlap = request(0)
        picked = IncrementalPalp().pick(
            [(plain, idle), (overlap, busy)], now=5
        )
        assert picked[0] is overlap
        ranked = PalpReference().rank(
            [(plain, idle), (overlap, busy)], now=5
        )
        assert ranked[0][0] is overlap

    def test_row_hit_still_beats_overlap(self):
        busy = ScriptableBank(writes_in_flight=1)
        idle = ScriptableBank()
        hit = request(3)
        idle.hits[hit.req_id] = True
        overlap = request(0)
        picked = IncrementalPalp().pick([(overlap, busy), (hit, idle)],
                                        now=5)
        assert picked[0] is hit

    def test_write_requests_never_count_as_overlap(self):
        busy = ScriptableBank(writes_in_flight=1)
        older_write = request(0, OpType.WRITE)
        newer_write = request(2, OpType.WRITE)
        picked = IncrementalPalp().pick(
            [(newer_write, busy), (older_write, busy)], now=5
        )
        assert picked[0] is older_write


class TestControllerIntegration:
    def make_controller(self, policy):
        cfg = apply_policy(fgnvm(4, 4), policy)
        cfg.org.rows_per_bank = 256
        return MemoryController(cfg, StatsCollector())

    def test_rbla_scheduler_installed_with_feedback_hook(self):
        ctrl = self.make_controller("rbla")
        assert isinstance(ctrl.scheduler, IncrementalRbla)
        assert callable(getattr(ctrl.scheduler, "note_issued"))

    def test_palp_scheduler_installed(self):
        ctrl = self.make_controller("palp")
        assert isinstance(ctrl.scheduler, IncrementalPalp)

    def test_env_reference_forces_oracle_for_policy(self, monkeypatch):
        from repro.memsys.scheduler import SCHEDULER_ENV

        monkeypatch.setenv(SCHEDULER_ENV, "reference")
        ctrl = self.make_controller("palp")
        assert isinstance(ctrl.scheduler, PalpReference)

    def test_default_policy_unchanged(self):
        cfg = fgnvm(4, 4)
        ctrl = MemoryController(cfg, StatsCollector())
        assert isinstance(ctrl.scheduler, IncrementalFrfcfs)
        assert not isinstance(ctrl.scheduler, (IncrementalPalp,
                                               IncrementalRbla))

    def test_rbla_scores_move_during_run(self):
        from repro.sim.experiment import run_benchmark

        cfg = apply_policy(fgnvm(4, 4), "rbla")
        cfg.org.rows_per_bank = 256
        result = run_benchmark(cfg, "mcf", requests=200)
        assert result.cycles > 0
        assert result.summary()["reads"] + result.summary()["writes"] > 0
