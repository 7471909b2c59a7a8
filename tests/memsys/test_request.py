"""Request lifecycle and operation parsing."""

import pytest

from repro.config import baseline_nvm
from repro.memsys.controller import MemoryController
from repro.memsys.request import MemRequest, OpType
from repro.memsys.stats import StatsCollector


class TestOpType:
    @pytest.mark.parametrize("token,expected", [
        ("R", OpType.READ), ("W", OpType.WRITE),
        ("r", OpType.READ), (" w ", OpType.WRITE),
    ])
    def test_token_parsing(self, token, expected):
        assert OpType.from_token(token) is expected

    def test_unknown_token_rejected(self):
        with pytest.raises(ValueError):
            OpType.from_token("X")


class TestLifecycle:
    def test_fresh_request_state(self):
        req = MemRequest(OpType.READ, 0x1000)
        assert (req.arrival_cycle, req.issue_cycle, req.completion_cycle,
                req.service_kind, req.completed) == (0, -1, -1, "", False)
        assert req.is_read and not req.is_write

    def test_ids_are_unique_and_increasing(self):
        first = MemRequest(OpType.READ, 0)
        second = MemRequest(OpType.WRITE, 0)
        assert second.req_id > first.req_id

    def test_full_lifecycle_and_latency(self):
        """Each step's fields are written by the step's owner: the
        queue's push, the controller's issue and its completion drain."""
        cfg = baseline_nvm()
        ctrl = MemoryController(cfg, StatsCollector())
        req = MemRequest(OpType.READ, 0x40)
        ctrl.enqueue(req, 100)
        assert (req.arrival_cycle, req.issue_cycle) == (100, -1)
        ctrl.tick(110)
        assert req.issue_cycle == 110
        assert req.service_kind == "row_miss"
        assert req.completion_cycle > 110 and not req.completed
        done = ctrl.tick(req.completion_cycle)
        assert list(done) == [req] and req.completed
        assert req.latency == req.completion_cycle - 100

    def test_latency_before_completion_is_an_error(self):
        req = MemRequest(OpType.READ, 0x40)
        with pytest.raises(ValueError):
            _ = req.latency

    def test_repr_mentions_op_and_address(self):
        req = MemRequest(OpType.WRITE, 0xdead40)
        text = repr(req)
        assert "W" in text and "0xdead40" in text
