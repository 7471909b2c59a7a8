"""Phase profiler: where does the *simulator's* wall time go?

The observability layer so far watches the simulated machine; this
module watches the simulator as software.  A :class:`PhaseTimer`
attributes wall-clock time and invocation counts to named phases —
CPU tick, controller scheduling, bank issue, queue admission, stats
collection, trace decode.

No simulator component knows about the timer.  :data:`BOUNDARIES` maps
each phase to the methods it times, and :func:`attached` swaps those
class attributes for ``try``/``finally`` enter/exit wrappers for the
duration of a ``with`` block, restoring the originals on exit — even
when the run raises.  The unprofiled path therefore carries no
profiling code at all, and profiling is pure observation: the timer
never feeds back into simulated state, so a profiled run can only be
slower, never different.

Phases nest: time spent in ``bank.issue`` inside ``controller.schedule``
is cumulative for the scheduler but not self time, exactly like
cProfile's tottime/cumtime split.  ``--emit-pstats`` on the ``repro
profile`` subcommand additionally runs the simulation under cProfile
and dumps a standard ``pstats`` file for ``snakeviz``/``pstats``
interop.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Tuple

#: Canonical phase names (the taxonomy documented in
#: ``docs/performance.md``).
PH_RUN = "sim.run"
PH_CPU_TICK = "cpu.tick"
PH_CTRL_TICK = "controller.tick"
PH_CTRL_SCHED = "controller.schedule"
PH_BANK_ISSUE = "bank.issue"
PH_QUEUE_ADMIT = "queue.admission"
PH_STATS = "stats.collect"
PH_TRACE_DECODE = "trace.decode"
PH_CLOCK = "sim.clock_advance"

#: Phase -> the methods it times, as ``module:Class.method`` paths.
#: Resolved when :func:`attached` installs the wrappers, so this module
#: imports no simulator code.
BOUNDARIES: Dict[str, Tuple[str, ...]] = {
    PH_RUN: ("repro.sim.simulator:Simulator.run",),
    PH_CLOCK: ("repro.sim.simulator:Simulator._next_cycle",),
    PH_CTRL_TICK: ("repro.sim.system:MemorySystem.tick",),
    PH_CPU_TICK: ("repro.cpu.trace_cpu:TraceCpu.tick",),
    PH_CTRL_SCHED: ("repro.memsys.controller:MemoryController._issue_phase",),
    PH_QUEUE_ADMIT: (
        "repro.memsys.controller:MemoryController.can_accept",
        "repro.memsys.controller:MemoryController.enqueue",
    ),
    PH_BANK_ISSUE: ("repro.core.fgnvm_bank:FgNvmBank._issue",),
    PH_STATS: (
        "repro.sim.epochs:EpochRecorder.observe",
        "repro.sim.epochs:EpochRecorder.observe_gap",
        "repro.sim.simulator:Simulator._result",
    ),
}

#: Every phase a profiled run can report: the wrapped boundaries plus
#: ``trace.decode``, which callers time with :meth:`PhaseTimer.phase`.
PHASE_NAMES = (*BOUNDARIES, PH_TRACE_DECODE)


@dataclass
class PhaseStat:
    """Accumulated wall time and call count for one phase."""

    calls: int = 0
    cum_s: float = 0.0      #: wall time including nested phases
    self_s: float = 0.0     #: wall time excluding nested phases

    @property
    def per_call_us(self) -> float:
        """Mean self time per invocation in microseconds."""
        return self.self_s / self.calls * 1e6 if self.calls else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "calls": self.calls,
            "cum_s": round(self.cum_s, 6),
            "self_s": round(self.self_s, 6),
        }


class PhaseTimer:
    """Wall-time attribution across named, nesting phases.

    Not thread-safe and not reentrant per phase (a phase must exit
    before it is entered again); the simulator's single-threaded loop
    satisfies both by construction.
    """

    __slots__ = ("stats", "_stack", "_clock")

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.stats: Dict[str, PhaseStat] = {}
        #: Stack frames: [phase, start, child_seconds].
        self._stack: List[list] = []
        self._clock = clock

    # -- enter/exit ---------------------------------------------------------

    def enter(self, phase: str) -> None:
        self._stack.append([phase, self._clock(), 0.0])

    def exit(self, phase: str) -> None:
        if not self._stack:
            raise ValueError(f"phase exit with no phase open: {phase!r}")
        frame = self._stack.pop()
        if frame[0] != phase:
            raise ValueError(
                f"phase exit mismatch: exiting {phase!r} but "
                f"{frame[0]!r} is open"
            )
        elapsed = self._clock() - frame[1]
        stat = self.stats.get(phase)
        if stat is None:
            stat = self.stats[phase] = PhaseStat()
        stat.calls += 1
        stat.cum_s += elapsed
        stat.self_s += elapsed - frame[2]
        if self._stack:
            self._stack[-1][2] += elapsed

    @contextmanager
    def phase(self, name: str):
        """``with timer.phase("trace.decode"):`` — time one block."""
        self.enter(name)
        try:
            yield self
        finally:
            self.exit(name)

    # -- aggregation and views ----------------------------------------------

    @property
    def total_s(self) -> float:
        """Wall seconds attributed to top-level phases."""
        if PH_RUN in self.stats:
            return self.stats[PH_RUN].cum_s
        return sum(s.self_s for s in self.stats.values())

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Phase breakdown in ledger/JSON form, sorted by self time."""
        return {
            phase: stat.as_dict()
            for phase, stat in sorted(
                self.stats.items(), key=lambda kv: -kv[1].self_s
            )
        }


def phase_table(timer: PhaseTimer) -> str:
    """The ``repro profile`` report: self/cumulative time per phase."""
    if not timer.stats:
        return "(no phases recorded)"
    total = sum(s.self_s for s in timer.stats.values()) or 1.0
    header = (
        f"{'phase':<22} {'calls':>10} {'cum s':>9} {'self s':>9} "
        f"{'self %':>7} {'us/call':>9}"
    )
    lines = [header, "-" * len(header)]
    for phase, stat in sorted(timer.stats.items(),
                              key=lambda kv: -kv[1].self_s):
        lines.append(
            f"{phase:<22} {stat.calls:>10} {stat.cum_s:>9.3f} "
            f"{stat.self_s:>9.3f} {stat.self_s / total:>6.1%} "
            f"{stat.per_call_us:>9.2f}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total (self)':<22} {'':>10} {'':>9} "
        f"{sum(s.self_s for s in timer.stats.values()):>9.3f}"
    )
    return "\n".join(lines)


def _timed(fn: Callable, timer: PhaseTimer, phase: str) -> Callable:
    """``fn`` entering ``phase`` on ``timer`` for the span of each call."""
    enter, exit_ = timer.enter, timer.exit

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        enter(phase)
        try:
            return fn(*args, **kwargs)
        finally:
            exit_(phase)

    return timed


@contextmanager
def attached(timer: PhaseTimer) -> Iterator[PhaseTimer]:
    """Time every :data:`BOUNDARIES` method into ``timer`` inside the block.

    ``with attached(timer): simulate(config, trace)`` profiles one run.
    The wrappers live on the classes, so every instance — including
    ones built inside the block — is timed; leaving the block, normally
    or by an exception, puts the original functions back.
    """
    swapped: List[Tuple[type, str, Callable]] = []
    try:
        for phase, paths in BOUNDARIES.items():
            for path in paths:
                module, qualname = path.split(":")
                class_name, name = qualname.split(".")
                owner = getattr(importlib.import_module(module), class_name)
                original = vars(owner)[name]
                swapped.append((owner, name, original))
                setattr(owner, name, _timed(original, timer, phase))
        yield timer
    finally:
        for owner, name, original in reversed(swapped):
            setattr(owner, name, original)
