"""Property tests: queue occupancy accounting and drain hysteresis."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memsys.queues import TransactionQueue, WriteQueue
from repro.memsys.request import MemRequest, OpType


@given(
    capacity=st.integers(1, 32),
    pushes=st.integers(0, 64),
)
@settings(max_examples=100, deadline=None)
def test_occupancy_never_exceeds_capacity(capacity, pushes):
    queue = TransactionQueue(capacity)
    accepted = 0
    for i in range(pushes):
        if queue.is_full:
            break
        queue.push(MemRequest(OpType.READ, i * 64), i)
        accepted += 1
    assert len(queue) == accepted <= capacity
    assert queue.space() == capacity - accepted


@given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 15)),
                    max_size=80))
@settings(max_examples=100, deadline=None)
def test_forwarding_matches_live_contents(ops):
    """forwards(addr) is true iff a write to addr is still queued."""
    queue = WriteQueue(capacity=64, high_watermark=48, low_watermark=8)
    live = {}
    for push, slot in ops:
        address = slot * 64
        if push and not queue.is_full:
            req = MemRequest(OpType.WRITE, address)
            queue.push(req, 0)
            live.setdefault(address, []).append(req)
        elif not push and live.get(address):
            queue.remove(live[address].pop(0))
            if not live[address]:
                del live[address]
    for slot in range(16):
        address = slot * 64
        assert queue.forwards(address) == bool(live.get(address))


@given(events=st.lists(st.booleans(), min_size=1, max_size=200))
@settings(max_examples=100, deadline=None)
def test_drain_hysteresis_invariant(events):
    """Draining only flips on at >= high and off strictly below low."""
    queue = WriteQueue(capacity=16, high_watermark=12, low_watermark=4)
    pending = []
    was_draining = False
    for push in events:
        if push and not queue.is_full:
            req = MemRequest(OpType.WRITE, len(pending) * 64)
            queue.push(req, 0)
            pending.append(req)
        elif not push and pending:
            queue.remove(pending.pop())
        draining = queue.draining
        if draining and not was_draining:
            assert len(queue) >= queue.high_watermark
        if was_draining and not draining:
            assert len(queue) < queue.low_watermark
        was_draining = draining


class _LazyHysteresis:
    """The drain rule re-run on every read: the oracle for
    :attr:`WriteQueue.draining`, which keeps its answer between reads."""

    def __init__(self, high: int, low: int):
        self.high, self.low = high, low
        self.draining = self.forced = False

    def read(self, depth: int) -> bool:
        if self.forced:
            if not depth:
                self.forced = False
            else:
                return True
        if self.draining:
            if depth < self.low:
                self.draining = False
        elif depth >= self.high:
            self.draining = True
        return self.draining


@st.composite
def _watermarks(draw):
    capacity = draw(st.integers(2, 12))
    high = draw(st.integers(2, capacity))
    return capacity, high, draw(st.integers(1, high - 1))


@given(marks=_watermarks(),
       ops=st.lists(st.sampled_from(["push", "push", "remove", "remove",
                                     "force", "read"]), max_size=200),
       picks=st.lists(st.integers(0, 1 << 16), min_size=200, max_size=200))
@settings(max_examples=300, deadline=None)
def test_kept_drain_answer_equals_the_lazy_hysteresis(marks, ops, picks):
    """Pushes, removes (any queued write) and forced drains in any order:
    at every read the kept answer is what re-running the hysteresis on
    every read gives, and the answer kept in the instance between reads
    is that answer too.  Updating
    the answer eagerly at each push or remove is not the same rule: a
    remove below the low watermark followed by a push back, with no
    read in between, never ends a drain."""
    capacity, high, low = marks
    queue = WriteQueue(capacity, high_watermark=high, low_watermark=low)
    oracle = _LazyHysteresis(high, low)
    pending = []
    for op, pick in zip(ops, picks):
        if op == "push" and not queue.is_full:
            req = MemRequest(OpType.WRITE, pick * 64)
            queue.push(req, 0)
            pending.append(req)
        elif op == "remove" and pending:
            queue.remove(pending.pop(pick % len(pending)))
        elif op == "force":
            queue.force_drain()
            oracle.forced = True
        elif op == "read":
            expected = oracle.read(len(queue))
            kept = vars(queue).get("draining")
            assert kept is None or kept == expected
            assert queue.draining == expected
            assert vars(queue)["draining"] == expected
