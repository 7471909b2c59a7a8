"""The simulation main loop.

Couples one :class:`~repro.cpu.trace_cpu.TraceCpu` to one
:class:`~repro.memsys.controller.MemoryController` on a shared integer
clock of memory cycles.  The loop is event-driven: every iteration the
clock jumps to ``min(next CPU-visible event, next controller event)``.
A runnable CPU's next event is the very next cycle, so execution phases
step cycle-by-cycle; whenever the CPU is blocked on memory (or has
finished and only the write drain remains), the clock jumps straight to
the controller's earliest-issuable cycle or to a completion that
something observes — a large win given PCM's 60-cycle write pulses.
The skipped cycles are those where a densely ticked run changes
nothing anyone reads, which is what keeps results bit-identical to an
unskipped run (see docs/performance.md, "Hot-path architecture").

End of run: the trace is fully retired, the controller has drained every
queued write (a flush is forced once the CPU finishes), and no transfer
is in flight.
"""

from __future__ import annotations

from typing import Optional

from ..config.params import SystemConfig
from ..config.validate import validate_config
from ..core.energy import measure_energy, measure_perfect_energy
from ..cpu.trace_cpu import TraceCpu
from ..errors import SimulationError
from ..memsys.controller import ANY_READ
from ..memsys.stats import StatsCollector
from ..obs.events import EV_RUN_END, NULL_PROBE, Event, Probe
from ..workloads.packed import PackedTrace
from .epochs import EpochRecorder
from .result import SimResult
from .system import MemorySystem


class Simulator:
    """One CPU + one memory system, run to completion."""

    def __init__(self, config: SystemConfig, trace: PackedTrace,
                 probe: "Probe | None" = None):
        validate_config(config)
        self.config = config
        self.stats = StatsCollector()
        self.probe = probe if probe is not None else NULL_PROBE
        self.controller = MemorySystem(config, self.stats, probe=self.probe)
        self.cpu = TraceCpu(
            config.cpu,
            trace,
            self.controller,
            self.stats,
            config.timing.tck_ns,
            probe=self.probe,
        )
        self.now = 0
        #: The CPU's ``waiting_on()`` and ``done()`` answers, asked
        #: after each tick and kept across the visits that skip one.
        self._wait: Optional[int] = None
        self._cpu_done = False
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
        cpu = self.cpu
        stats = self.stats
        epochs = self._epochs
        skip_idle = self._idle_skips()
        # Progress tracking as plain ints (no per-cycle tuple builds).
        last_instructions = stats.instructions
        last_commands = controller.commands_issued()
        last_pending = controller.pending
        last_progress_cycle = 0
        wait: Optional[int] = None
        done = False

        while True:
            now = self.now
            if epochs is not None and epochs.next_boundary < now:
                # Epoch boundaries the clock jumped over: materialise
                # them *before* this cycle's tick, with the counters the
                # unskipped loop would have had at each boundary (dead
                # cycles change none of the sampled counters).
                epochs.observe_gap(now, controller.pending)
            completed = controller.tick(now)
            finished_reads = 0
            for req in completed:
                if req.is_read:
                    finished_reads += 1
            if finished_reads:
                cpu.on_read_completed(finished_reads)
            # A waiting core's tick is a no-op until its head load can
            # have completed (a known future cycle) or, when its fetch
            # waits on an MSHR, until some read completes.
            if (wait is None or not skip_idle
                    or (wait <= now and (wait != ANY_READ or finished_reads))):
                cpu.tick(now)
                done = cpu.done()
                wait = self._wait = None if done else cpu.waiting_on()
                self._cpu_done = done
            if epochs is not None and now >= epochs.next_boundary:
                # A boundary landing on a simulated cycle samples after
                # that cycle's tick, exactly like the unskipped loop.
                epochs.observe(now, controller.pending)
            if (self._warmup_left
                    and stats.requests >= self._warmup_left):
                # Warm-up complete: statistics restart here.
                stats.reset()
                self._warmup_left = 0
                self._warmup_cycle = now

            if done:
                if not self._flush_started:
                    controller.begin_flush()
                    self._flush_started = True
                if not controller.busy():
                    break

            instructions = stats.instructions
            commands = controller.commands_issued()
            pending = controller.pending
            if (instructions != last_instructions
                    or commands != last_commands
                    or pending != last_pending):
                last_instructions = instructions
                last_commands = commands
                last_pending = pending
                last_progress_cycle = now
            elif now - last_progress_cycle > sim.deadlock_cycles:
                raise SimulationError(
                    f"no progress for {sim.deadlock_cycles} cycles at "
                    f"cycle {now} (config {self.config.name}); "
                    f"pending={pending}"
                )

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

    def _idle_skips(self) -> bool:
        """Whether :meth:`run` may skip the ticks of a waiting core.

        Such a tick fetches and retires nothing, but two things still
        happen once per visited cycle: an attached probe counts an
        ``EV_CPU_STALL``, and a fractional retire budget advances its
        carry.  Either one keeps every tick.
        """
        return not self.probe.enabled and self.cpu._budget_int is not None

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
        event)``.  Whenever the CPU can make progress its next visible
        event is simply ``now + 1``, which bounds the min from below —
        so the controller horizon query is short-circuited and the clock
        steps by one.  When the CPU is blocked on memory (or has
        finished), the clock jumps to the controller's next issuable
        cycle or to a completion something observes: the load the CPU's
        ROB head waits on, any read while its fetch waits on an MSHR,
        any completion while it polls a full queue, the end of the run,
        or the next epoch boundary.  Any other completion is retired at
        the next visited cycle: until someone looks, retiring it later
        changes nothing.  The CPU's state is the answer :meth:`run`
        kept from its last tick.
        """
        now = self.now
        naive = now + 1
        wait = self._wait
        done = self._cpu_done
        if wait is None and not done:
            return naive  # next CPU event is the very next cycle
        controller = self.controller
        horizon = controller.next_event_after(now, wait, last=done)
        if wait is not None and wait > now \
                and (horizon is None or wait < horizon):
            horizon = wait
        if self._epochs is not None:
            # A boundary samples ``pending``: the first one at or after
            # the next completion must see it retired.
            first = controller.next_completion()
            if first is not None:
                boundary = self._epochs.boundary_from(first)
                if horizon is None or boundary < horizon:
                    horizon = boundary
        if horizon is None:
            # CPU blocked with no memory event: only legal when the CPU
            # is done and the controller is empty (loop exits first).
            return naive
        return horizon if horizon > naive else naive


def simulate(config: SystemConfig, trace: PackedTrace,
             probe: "Probe | None" = None) -> SimResult:
    """Build and run a simulator in one call (the common entry point)."""
    return Simulator(config, trace, probe=probe).run()
