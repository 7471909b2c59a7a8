"""Memory request objects and their lifecycle.

A :class:`MemRequest` is one cache-line transaction as seen by the memory
controller.  Requests are created by the CPU model (or a trace reader),
decoded once by the :class:`~repro.memsys.address.AddressMapper`, queued in
the controller, issued to a bank and finally completed when their data
crosses the bus.  Each lifecycle field is written by the one component
that owns that step: the queue stamps ``arrival_cycle``, the controller's
issue and forward paths ``issue_cycle``, ``completion_cycle`` and
``service_kind``, and its completion drain ``completed``.
"""

from __future__ import annotations

import enum
import itertools
from typing import NamedTuple, Optional


class OpType(enum.Enum):
    """Request operation type."""

    READ = "R"
    WRITE = "W"

    @classmethod
    def from_token(cls, token: str) -> "OpType":
        """Parse a trace-file token ('R'/'W', case-insensitive)."""
        normalized = token.strip().upper()
        for op in cls:
            if op.value == normalized:
                return op
        raise ValueError(f"unknown operation token: {token!r}")


class DecodedAddress(NamedTuple):
    """A physical address decoded against the active organisation.

    ``sag`` and ``cd`` are the FgNVM coordinates; for non-subdivided
    organisations they are both zero.  ``flat_bank`` is the global bank
    index used to look up the bank model (for MANY_BANKS it already folds
    the (SAG, CD) coordinates in).  A named tuple: immutable, and built
    in one call rather than one ``object.__setattr__`` per field.
    """

    channel: int
    rank: int
    bank: int
    row: int
    col: int
    sag: int
    cd: int
    flat_bank: int


_req_ids = itertools.count()
_READ = OpType.READ


def memo_key(is_write: bool, decoded: DecodedAddress) -> tuple:
    """Key of a bank's scheduling memo: requests sharing it share one
    (service kind, earliest-start constraint) answer.

    Keyed on a bool, not the :class:`OpType` member: Enum hashing runs
    in Python and the memo is the hottest lookup in the simulator.
    """
    return (is_write, decoded.row, decoded.sag, decoded.cd)


class MemRequest:
    """One cache-line memory transaction (compared by identity)."""

    __slots__ = (
        "op", "address", "decoded", "arrival_cycle", "issue_cycle",
        "completion_cycle", "completed", "service_kind", "owner", "req_id",
        "is_read", "is_write", "sched_key",
    )

    def __init__(self, op: OpType, address: int,
                 decoded: Optional[DecodedAddress] = None, owner: int = 0):
        self.op = op
        self.address = address
        self.decoded = decoded
        self.arrival_cycle = 0
        self.issue_cycle = -1
        self.completion_cycle = -1
        #: Set when the controller retires the request: its data has
        #: returned (a read) or its write pulse has ended.
        self.completed = False
        #: Set at issue time: whether the access hit buffered data (row
        #: hit), re-sensed an open row ("underfetch") or was a full row
        #: miss.
        self.service_kind = ""
        #: Issuing core's index (0 for single-core runs); lets multi-core
        #: simulations route completions back to the right MSHR file.
        self.owner = owner
        self.req_id = next(_req_ids)
        #: The operation never changes, so its two tests are fields.
        self.is_read = op is _READ
        self.is_write = not self.is_read
        #: :func:`memo_key`, fixed by the controller at enqueue (None
        #: before): the scheduler's inline memo lookups read it.
        self.sched_key: Optional[tuple] = None

    @property
    def latency(self) -> int:
        """Arrival-to-completion latency in memory cycles."""
        if self.completion_cycle < 0:
            raise ValueError(f"request {self.req_id} not completed")
        return self.completion_cycle - self.arrival_cycle

    def __repr__(self) -> str:  # keep queue dumps readable
        done = " completed" if self.completed else ""
        return (
            f"MemRequest(#{self.req_id} {self.op.value} "
            f"0x{self.address:x}{done})"
        )


#: Service-kind labels recorded on issue (used by stats and tests).
SERVICE_ROW_HIT = "row_hit"
SERVICE_ROW_MISS = "row_miss"
SERVICE_UNDERFETCH = "underfetch"
SERVICE_WRITE = "write"
SERVICE_WRITE_MISS = "write_miss"
