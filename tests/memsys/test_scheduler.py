"""Scheduling policies: FCFS ordering and FRFCFS row-hit priority."""

import pytest

from repro.config.params import SchedulerKind
from repro.errors import SchedulerError
from repro.memsys.request import MemRequest, OpType
from repro.memsys.scheduler import (
    FcfsScheduler,
    FrfcfsScheduler,
    make_scheduler,
)


class FakeBank:
    """Scriptable bank: per-request hit flags and ready times."""

    def __init__(self):
        self.hits = {}
        self.ready = {}

    def is_row_hit(self, req):
        return self.hits.get(req.req_id, False)

    def earliest_start(self, req, now):
        return self.ready.get(req.req_id, now)


def make_request(arrival):
    req = MemRequest(OpType.READ, arrival * 64)
    req.arrival_cycle = arrival
    return req


@pytest.fixture
def bank():
    return FakeBank()


class TestFcfs:
    def test_picks_oldest_issuable(self, bank):
        old, new = make_request(1), make_request(5)
        picked = FcfsScheduler().pick([(new, bank), (old, bank)], now=10)
        assert picked[0] is old

    def test_skips_blocked_head(self, bank):
        old, new = make_request(1), make_request(5)
        bank.ready[old.req_id] = 99  # old request not issuable yet
        picked = FcfsScheduler().pick([(old, bank), (new, bank)], now=10)
        assert picked[0] is new

    def test_none_when_nothing_issuable(self, bank):
        req = make_request(1)
        bank.ready[req.req_id] = 99
        assert FcfsScheduler().pick([(req, bank)], now=10) is None

    def test_arrival_tie_broken_by_id(self, bank):
        first, second = make_request(3), make_request(3)
        picked = FcfsScheduler().pick([(second, bank), (first, bank)], now=5)
        assert picked[0] is first


class TestFrfcfs:
    def test_row_hit_preferred_over_older_miss(self, bank):
        old_miss, young_hit = make_request(1), make_request(8)
        bank.hits[young_hit.req_id] = True
        picked = FrfcfsScheduler().pick(
            [(old_miss, bank), (young_hit, bank)], now=10
        )
        assert picked[0] is young_hit

    def test_oldest_hit_wins_among_hits(self, bank):
        hit_a, hit_b = make_request(2), make_request(4)
        bank.hits[hit_a.req_id] = True
        bank.hits[hit_b.req_id] = True
        picked = FrfcfsScheduler().pick([(hit_b, bank), (hit_a, bank)], 10)
        assert picked[0] is hit_a

    def test_falls_back_to_oldest_miss(self, bank):
        miss_a, miss_b = make_request(2), make_request(4)
        picked = FrfcfsScheduler().pick([(miss_b, bank), (miss_a, bank)], 10)
        assert picked[0] is miss_a

    def test_unissuable_hit_does_not_block_miss(self, bank):
        hit, miss = make_request(1), make_request(2)
        bank.hits[hit.req_id] = True
        bank.ready[hit.req_id] = 50
        picked = FrfcfsScheduler().pick([(hit, bank), (miss, bank)], now=10)
        assert picked[0] is miss

    def test_rank_returns_full_ordering(self, bank):
        reqs = [make_request(i) for i in range(4)]
        bank.hits[reqs[3].req_id] = True
        ranked = FrfcfsScheduler().rank(
            [(r, bank) for r in reqs], now=10
        )
        assert [cand[0] for cand in ranked] == [
            reqs[3], reqs[0], reqs[1], reqs[2]
        ]


class TestFactory:
    def test_mapping(self):
        assert make_scheduler(SchedulerKind.FCFS).name == "fcfs-incremental"
        assert (make_scheduler(SchedulerKind.FRFCFS).name
                == "frfcfs-incremental")
        # Multi-issue reuses the FRFCFS ranking (width lives in config).
        assert (make_scheduler(SchedulerKind.FRFCFS_MULTI_ISSUE).name
                == "frfcfs-incremental")

    def test_unknown_kind_rejected(self):
        with pytest.raises(SchedulerError):
            make_scheduler("bogus")
