"""The simulation main loop.

Couples one or more :class:`~repro.cpu.trace_cpu.TraceCpu` cores, one
trace each, to one :class:`~repro.sim.system.MemorySystem` on a shared
integer clock of memory cycles.  The loop is event-driven: every
iteration the clock jumps to ``min(next CPU-visible event, next
controller event)``.  A runnable core's next event is the very next
cycle, so execution phases step cycle-by-cycle; whenever every core is
blocked on memory (or has finished and only the write drain remains),
the clock jumps straight to the controller's earliest-issuable cycle or
to a completion that something observes — a large win given PCM's
60-cycle write pulses.  The skipped cycles are those where a densely
ticked run changes nothing anyone reads, which is what keeps results
bit-identical to an unskipped run (see docs/performance.md, "Hot-path
architecture").

End of run: every trace is fully retired, the controller has drained
every queued write (a flush is forced once the last core finishes), and
no transfer is in flight.
"""

from __future__ import annotations

from typing import List, Optional

from ..config.params import SystemConfig
from ..config.validate import validate_config
from ..core.energy import measure_energy, measure_perfect_energy
from ..cpu.trace_cpu import DONE, TraceCpu
from ..errors import SimulationError
from ..memsys.controller import ANY_COMPLETION, ANY_READ
from ..memsys.stats import StatsCollector
from ..obs.events import EV_RUN_END, NULL_PROBE, Event, Probe
from ..workloads.packed import PackedTrace
from .epochs import EpochRecorder
from .result import SimResult
from .system import MemorySystem


class Simulator:
    """One core per trace + one memory system, run to completion."""

    def __init__(self, config: SystemConfig, *traces: PackedTrace,
                 probe: "Probe | None" = None):
        if not traces:
            raise ValueError("need at least one trace")
        validate_config(config)
        self.config = config
        self.stats = StatsCollector()
        self.probe = probe if probe is not None else NULL_PROBE
        self.controller = MemorySystem(config, self.stats, probe=self.probe)
        self.cpus = [
            TraceCpu(
                config.cpu,
                trace,
                self.controller,
                self.stats,
                config.timing.tck_ns,
                owner=index,
                probe=self.probe,
            )
            for index, trace in enumerate(traces)
        ]
        self.now = 0
        #: Each core's ``waiting_on()`` answer by owner, asked after its
        #: tick and kept across the visits that skip one (or ``DONE``).
        self._waits: List[Optional[int]] = [None] * len(traces)
        #: The cores not yet done; a done core is never ticked again.
        self._active = list(self.cpus)
        self._flush_started = False
        self._warmup_left = config.sim.warmup_requests
        self._warmup_cycle = 0
        self._epochs = (
            EpochRecorder(self.stats, config.sim.epoch_cycles,
                          on_sample=self.probe.on_epoch)
            if config.sim.epoch_cycles
            else None
        )

    def run(self) -> SimResult:
        """Run to completion and return the results."""
        sim = self.config.sim
        controller = self.controller
        cpus = self.cpus
        waits = self._waits
        active = self._active
        stats = self.stats
        epochs = self._epochs
        skip_idle = self._idle_skips()
        window = sim.deadlock_cycles
        marker = self._progress()
        check_at = window

        while True:
            now = self.now
            if epochs is not None and epochs.next_boundary < now:
                # Epoch boundaries the clock jumped over: materialise
                # them *before* this cycle's tick, with the counters the
                # unskipped loop would have had at each boundary (dead
                # cycles change none of the sampled counters).
                epochs.observe_gap(now, controller.pending)
            for req in controller.tick(now):
                if req.is_read:
                    # The read's data frees its core's MSHR.
                    owner = req.owner
                    cpu = cpus[owner]
                    cpu.mshrs_in_use -= 1
                    if cpu.mshrs_in_use < 0:
                        raise ValueError(
                            "MSHR underflow: completion without issue")
                    if waits[owner] == ANY_READ:
                        waits[owner] = now  # an MSHR is free: tick it
            # A waiting core's tick is a no-op until its head load can
            # have completed (a known future cycle) or, when its fetch
            # waits on an MSHR, until one of its reads completes.
            ticked = False
            for cpu in active:
                wait = waits[cpu.owner]
                if (wait is None or not skip_idle
                        or (wait <= now and wait != ANY_READ)):
                    cpu.tick(now)
                    waits[cpu.owner] = None
                    ticked = True
            if ticked:
                # Asked after the visit's last tick: one core's fetch
                # can fill the queue another core polls.
                finished = False
                for cpu in active:
                    if waits[cpu.owner] is None:
                        wait = waits[cpu.owner] = cpu.waiting_on()
                        if wait == DONE:
                            finished = True
                if finished:
                    active = self._active = [
                        cpu for cpu in active if waits[cpu.owner] != DONE]
            if epochs is not None and now >= epochs.next_boundary:
                # A boundary landing on a simulated cycle samples after
                # that cycle's tick, exactly like the unskipped loop.
                epochs.observe(now, controller.pending)
            if (self._warmup_left
                    and stats.requests >= self._warmup_left):
                # Warm-up complete: statistics restart here.
                stats.reset()
                for cpu in cpus:
                    cpu.instructions_retired = 0
                self._warmup_left = 0
                self._warmup_cycle = now

            if not active:
                if not self._flush_started:
                    controller.begin_flush()
                    self._flush_started = True
                if not controller.busy():
                    break

            if now >= check_at:
                progress = self._progress()
                if progress == marker:
                    raise SimulationError(
                        f"no progress for {window} cycles at cycle {now} "
                        f"(config {self.config.name}); "
                        f"pending={controller.pending}"
                    )
                marker = progress
                check_at = now + window

            self.now = self._next_cycle()
            if self.now > sim.max_cycles:
                raise SimulationError(
                    f"exceeded max_cycles={sim.max_cycles} "
                    f"(config {self.config.name})"
                )

        self.stats.cycles = max(self.now - self._warmup_cycle, 1)
        if self.probe.enabled:
            self.probe.emit(Event(EV_RUN_END, self.stats.cycles,
                                  value=self.stats.instructions))
        return self._result()

    def _progress(self) -> List[int]:
        """A marker that moves whenever the run makes progress.

        Commands issued and each core's ROB fetch and retire counts only
        grow.  With all of them unchanged ``pending`` can only fall (a
        completion; a rise needs a fetch), so an equal marker one
        ``deadlock_cycles`` window later means nothing happened in it.
        """
        controller = self.controller
        marker = [controller.commands_issued(), controller.pending]
        for cpu in self.cpus:
            marker += (cpu.rob.fetched, cpu.rob.retired)
        return marker

    def _idle_skips(self) -> bool:
        """Whether :meth:`run` may skip the ticks of a waiting core.

        Such a tick fetches and retires nothing, but two things still
        happen once per visited cycle: an attached probe counts an
        ``EV_CPU_STALL``, and a fractional retire budget advances its
        carry.  Either one keeps every tick of every core not yet done.
        """
        return not self.probe.enabled and self.cpus[0]._budget_int is not None

    def _result(self) -> SimResult:
        """End-of-run aggregation: energy, IPC and the result record."""
        cpu_ratio = self.config.cpu.cpu_cycles_per_mem_cycle(
            self.config.timing.tck_ns
        )
        return SimResult(
            config=self.config,
            stats=self.stats,
            energy=measure_energy(self.config, self.stats),
            perfect_energy=measure_perfect_energy(self.config, self.stats),
            ipc=self.stats.ipc(cpu_ratio),
            cycles=self.stats.cycles,
            instructions=self.stats.instructions,
            epochs=self._epochs.samples if self._epochs else None,
        )

    # -- clock advance ------------------------------------------------------

    def _next_cycle(self) -> int:
        """Next cycle to simulate: the event rule, applied every iteration.

        The clock jumps to ``min(next CPU-visible event, next controller
        event)``.  Whenever some core can make progress its next visible
        event is simply ``now + 1``, which bounds the min from below —
        so the controller horizon query is short-circuited and the clock
        steps by one.  When every core is blocked on memory (or has
        finished), the clock jumps to the controller's next issuable
        cycle or to a completion something observes: a waiting core's
        ROB-head load, any read while some core's fetch waits on an
        MSHR, any completion while some core polls a full queue, the
        end of the run, or the next epoch boundary.  Any other
        completion is retired at the next visited cycle: until someone
        looks, retiring it later changes nothing.  Each core's state is
        the answer :meth:`run` kept from its last tick.
        """
        now = self.now
        naive = now + 1
        waits = self._waits
        if None in waits:
            return naive  # next CPU event is the very next cycle
        head: Optional[int] = None
        watch: Optional[int] = None
        for wait in waits:
            if wait > now:
                if head is None or wait < head:
                    head = wait
            elif wait == ANY_COMPLETION or (wait == ANY_READ
                                            and watch is None):
                watch = wait
        controller = self.controller
        horizon = controller.next_event_after(now, watch,
                                              last=not self._active)
        if head is not None and (horizon is None or head < horizon):
            horizon = head
        if self._epochs is not None:
            # A boundary samples ``pending``: the first one at or after
            # the next completion must see it retired.
            first = controller.next_completion()
            if first is not None:
                boundary = self._epochs.boundary_from(first)
                if horizon is None or boundary < horizon:
                    horizon = boundary
        if horizon is None:
            # Every core blocked with no memory event: only legal when
            # all are done and the controller is empty (loop exits first).
            return naive
        return horizon if horizon > naive else naive


def simulate(config: SystemConfig, trace: PackedTrace,
             probe: "Probe | None" = None) -> SimResult:
    """Build and run a simulator in one call (the common entry point)."""
    return Simulator(config, trace, probe=probe).run()
