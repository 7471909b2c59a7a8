"""System assembly: one memory controller per channel behind one facade.

Channels are fully independent in the DDR hierarchy — separate command
and data buses, separate controllers — so :class:`MemorySystem` simply
routes each request to its channel's controller (by decoded address)
and aggregates ticks, completions and event horizons.  For the paper's
single-channel Table-2 configuration this is a thin pass-through; the
facade is what makes the ``org.channels`` knob real.
"""

from __future__ import annotations

from typing import List, Optional

from ..config.params import SystemConfig
from ..memsys.address import AddressMapper
from ..memsys.controller import MemoryController
from ..memsys.request import MemRequest, OpType
from ..memsys.stats import StatsCollector
from ..obs.events import NULL_PROBE, Probe


class MemorySystem:
    """CPU-facing facade over the per-channel controllers."""

    def __init__(self, config: SystemConfig, stats: StatsCollector,
                 probe: Probe = NULL_PROBE):
        self.config = config
        self.stats = stats
        self.mapper = AddressMapper(config.org)
        self.controllers: List[MemoryController] = [
            MemoryController(config, stats, mapper=self.mapper,
                             channel=index, probe=probe)
            for index in range(config.org.channels)
        ]
        #: Single-channel fast path: the paper's Table-2 machine has one
        #: channel, so the facade forwards without routing, list builds,
        #: or even an address decode for capacity polls.
        self._single: "MemoryController | None" = (
            self.controllers[0] if len(self.controllers) == 1 else None
        )

    # -- admission ----------------------------------------------------------

    def can_accept(self, op: OpType, address: int, now: int = 0) -> bool:
        """Admission attempt on the channel ``address`` routes to.

        A refusal counts as a queue-full event; capacity polls should
        use :meth:`has_space` instead.
        """
        if self._single is not None:
            return self._single.can_accept(op, address, now)
        channel = self.mapper.decode(address).channel
        return self.controllers[channel].can_accept(op, address, now)

    def has_space(self, op: OpType, address: int = 0) -> bool:
        """Side-effect-free queue-space check (event skipping, polls)."""
        if self._single is not None:
            return self._single.has_space(op, address)
        channel = self.mapper.decode(address).channel
        return self.controllers[channel].has_space(op, address)

    def enqueue(self, req: MemRequest, now: int) -> None:
        if req.decoded is None:
            req.decoded = self.mapper.decode(req.address)
        self.controllers[req.decoded.channel].enqueue(req, now)

    # -- per-cycle operation ---------------------------------------------------

    def tick(self, now: int) -> List[MemRequest]:
        if self._single is not None:
            return self._single.tick(now)
        completed: List[MemRequest] = []
        for controller in self.controllers:
            completed.extend(controller.tick(now))
        return completed

    # -- progress queries --------------------------------------------------------

    @property
    def pending(self) -> int:
        if self._single is not None:
            return self._single.pending
        return sum(c.pending for c in self.controllers)

    def busy(self) -> bool:
        if self._single is not None:
            return self._single.busy()
        return any(c.busy() for c in self.controllers)

    def begin_flush(self) -> None:
        for controller in self.controllers:
            controller.begin_flush()

    def next_event_after(self, now: int) -> Optional[int]:
        if self._single is not None:
            return self._single.next_event_after(now)
        horizons = [
            horizon
            for horizon in (
                c.next_event_after(now) for c in self.controllers
            )
            if horizon is not None
        ]
        return min(horizons) if horizons else None

    def commands_issued(self) -> int:
        """Total commands across channels (progress marker)."""
        if self._single is not None:
            return self._single.command_bus.commands_issued
        return sum(c.command_bus.commands_issued for c in self.controllers)
