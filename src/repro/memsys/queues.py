"""Controller queues: the transaction (read) queue and the write queue.

Table 2 specifies 32 transaction-queue entries and 64 write drivers.  The
write queue implements the standard watermark drain policy: the
controller services reads until the write queue fills to the high
watermark, then drains writes until it falls below the low watermark.
Read requests that match a queued write are served from the write queue
(store-to-load forwarding), like every real controller since FR-FCFS.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from ..errors import QueueFullError
from .request import MemRequest


class _kept:
    """Non-data descriptor: the first read stores the getter's answer in
    the instance ``__dict__`` under the same name, which later reads find
    first; ``__dict__.pop(name)`` drops it.

    ``functools.cached_property`` without its per-miss ``RLock``
    (CPython up to 3.11 takes one on every miss).
    """

    def __init__(self, getter):
        self.getter = getter
        self.name = getter.__name__
        self.__doc__ = getter.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.getter(obj)
        return value


class TransactionQueue:
    """Bounded FIFO-arrival queue with arbitrary-order removal.

    Entries are additionally indexed by target bank (``by_bank``), so
    the controller's incremental scheduler and write-throttle can walk
    per-bank groups — one bank lookup and one throttle check per bank —
    instead of re-pairing every request with its bank model each cycle.
    Each per-bank list stays in arrival order by construction.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("queue capacity must be >= 1")
        self.capacity = capacity
        self._entries: List[MemRequest] = []
        self._by_bank: Dict[int, List[MemRequest]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._entries

    def space(self) -> int:
        return self.capacity - len(self._entries)

    def push(self, req: MemRequest, cycle: int) -> None:
        """Append a request arriving at ``cycle`` (its ``arrival_cycle``);
        raises :class:`QueueFullError` when full."""
        if len(self._entries) >= self.capacity:
            raise QueueFullError(
                f"queue full ({self.capacity} entries) at cycle {cycle}"
            )
        req.arrival_cycle = cycle
        self._entries.append(req)
        # Undecoded requests (unit tests pushing raw MemRequests) group
        # under a sentinel bank; the controller always decodes first.
        dec = req.decoded
        bank = dec.flat_bank if dec is not None else -1
        group = self._by_bank.get(bank)
        if group is None:
            self._by_bank[bank] = [req]
        else:
            group.append(req)

    def remove(self, req: MemRequest) -> None:
        self._entries.remove(req)
        dec = req.decoded
        bank = dec.flat_bank if dec is not None else -1
        group = self._by_bank[bank]
        group.remove(req)
        if not group:
            del self._by_bank[bank]

    def by_bank(self) -> Dict[int, List[MemRequest]]:
        """Live per-bank view: flat bank index -> arrival-ordered requests.

        The returned mapping is the queue's own index — callers must not
        mutate it (and must not push/remove while iterating it).
        """
        return self._by_bank

    def oldest(self) -> Optional[MemRequest]:
        return self._entries[0] if self._entries else None

    def entries(self) -> List[MemRequest]:
        """Arrival-ordered snapshot (oldest first)."""
        return list(self._entries)


class WriteQueue(TransactionQueue):
    """Write queue with drain watermarks and store-to-load forwarding."""

    def __init__(self, capacity: int, high_watermark: int, low_watermark: int):
        super().__init__(capacity)
        if not (0 < low_watermark < high_watermark <= capacity):
            raise ValueError(
                "watermarks must satisfy 0 < low < high <= capacity"
            )
        self.high_watermark = high_watermark
        self.low_watermark = low_watermark
        self._draining = False
        self._forced = False
        #: Queued writes per address: a read forwards while any is left.
        self._by_address: Dict[int, int] = {}

    def push(self, req: MemRequest, cycle: int) -> None:
        super().push(req, cycle)
        self.__dict__.pop("draining", None)
        self._by_address[req.address] = self._by_address.get(
            req.address, 0) + 1

    def remove(self, req: MemRequest) -> None:
        super().remove(req)
        self.__dict__.pop("draining", None)
        left = self._by_address.pop(req.address) - 1
        if left:
            self._by_address[req.address] = left

    def forwards(self, address: int) -> bool:
        """True when a queued write can service a read to ``address``."""
        return address in self._by_address

    @_kept
    def draining(self) -> bool:
        """Whether the controller is currently in write-drain mode.

        Hysteresis: drain starts at/above the high watermark and stops
        once occupancy falls below the low watermark.  A forced drain
        (:meth:`force_drain`) persists until the queue empties.  Between
        two reads with no push, remove or forced drain in between the
        hysteresis cannot move, so its answer is kept (a plain attribute
        read) until one of those drops it.  It is not updated inside
        them instead: the rule is evaluated where it is read, so a
        remove below the low watermark and a push back before the next
        read do not end a drain.
        """
        depth = len(self._entries)
        if self._forced:
            if not depth:
                self._forced = False
            else:
                return True
        if self._draining:
            if depth < self.low_watermark:
                self._draining = False
        elif depth >= self.high_watermark:
            self._draining = True
        return self._draining

    def force_drain(self) -> None:
        """Enter drain mode regardless of occupancy (end-of-sim flush)."""
        self._forced = True
        self.__dict__.pop("draining", None)


def oldest_first(requests: Iterable[MemRequest]) -> List[MemRequest]:
    """Sort requests by arrival, tie-broken by creation order."""
    return sorted(requests, key=lambda r: (r.arrival_cycle, r.req_id))
