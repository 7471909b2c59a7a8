"""Phase profiler: attribution, nesting, and the boundary wrappers."""

import inspect
import pkgutil

import pytest

from repro.errors import SimulationError
from repro.obs.perf import PhaseTimer, attached, phase_table
from repro.obs.perf.profiler import (
    BOUNDARIES,
    PH_BANK_ISSUE,
    PH_CPU_TICK,
    PH_CTRL_SCHED,
    PH_CTRL_TICK,
    PH_RUN,
    PH_TRACE_DECODE,
    PHASE_NAMES,
)


def fake_clock(ticks):
    """A deterministic clock yielding successive values from ``ticks``."""
    it = iter(ticks)
    return lambda: next(it)


class TestAccounting:
    def test_flat_phase_accumulates_calls_and_time(self):
        timer = PhaseTimer(clock=fake_clock([0.0, 1.0, 2.0, 2.5]))
        timer.enter(PH_CPU_TICK)
        timer.exit(PH_CPU_TICK)
        timer.enter(PH_CPU_TICK)
        timer.exit(PH_CPU_TICK)
        stat = timer.stats[PH_CPU_TICK]
        assert stat.calls == 2
        assert stat.cum_s == pytest.approx(1.5)
        assert stat.self_s == pytest.approx(1.5)

    def test_nesting_splits_self_from_cumulative(self):
        # run: 0..10, sched nested inside: 2..7 -> run self = 5.
        timer = PhaseTimer(clock=fake_clock([0.0, 2.0, 7.0, 10.0]))
        timer.enter(PH_RUN)
        timer.enter(PH_CTRL_SCHED)
        timer.exit(PH_CTRL_SCHED)
        timer.exit(PH_RUN)
        assert timer.stats[PH_RUN].cum_s == pytest.approx(10.0)
        assert timer.stats[PH_RUN].self_s == pytest.approx(5.0)
        assert timer.stats[PH_CTRL_SCHED].self_s == pytest.approx(5.0)
        assert timer.total_s == pytest.approx(10.0)

    def test_self_times_sum_to_outermost_cumulative(self):
        timer = PhaseTimer(
            clock=fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        )
        timer.enter(PH_RUN)
        timer.enter(PH_CTRL_TICK)
        timer.enter(PH_BANK_ISSUE)
        timer.exit(PH_BANK_ISSUE)
        timer.exit(PH_CTRL_TICK)
        timer.enter(PH_CPU_TICK)
        timer.exit(PH_CPU_TICK)
        timer.exit(PH_RUN)
        total_self = sum(s.self_s for s in timer.stats.values())
        assert total_self == pytest.approx(timer.stats[PH_RUN].cum_s)

    def test_exit_mismatch_raises(self):
        timer = PhaseTimer(clock=fake_clock([0.0, 1.0]))
        timer.enter(PH_RUN)
        with pytest.raises(ValueError, match="mismatch"):
            timer.exit(PH_CPU_TICK)

    def test_exit_with_empty_stack_raises(self):
        with pytest.raises(ValueError):
            PhaseTimer().exit(PH_RUN)

    def test_context_manager_balances(self):
        timer = PhaseTimer(clock=fake_clock([0.0, 3.0]))
        with timer.phase(PH_CPU_TICK):
            pass
        assert timer.stats[PH_CPU_TICK].calls == 1
        assert timer.stats[PH_CPU_TICK].cum_s == pytest.approx(3.0)


class TestRendering:
    def test_as_dict_sorted_by_self_time(self):
        timer = PhaseTimer(clock=fake_clock([0.0, 1.0, 2.0, 10.0]))
        timer.enter(PH_CPU_TICK)
        timer.exit(PH_CPU_TICK)
        timer.enter(PH_CTRL_SCHED)
        timer.exit(PH_CTRL_SCHED)
        data = timer.as_dict()
        names = list(data)
        assert names[0] == PH_CTRL_SCHED  # 8s self beats 1s
        assert data[PH_CTRL_SCHED]["calls"] == 1

    def test_phase_table_lists_phases_and_total(self):
        timer = PhaseTimer(clock=fake_clock([0.0, 2.0]))
        timer.enter(PH_CTRL_SCHED)
        timer.exit(PH_CTRL_SCHED)
        table = phase_table(timer)
        assert PH_CTRL_SCHED in table
        assert "total" in table

    def test_empty_timer_renders(self):
        assert "no phases recorded" in phase_table(PhaseTimer())

    def test_phase_name_constants_are_unique(self):
        assert len(PHASE_NAMES) == len(set(PHASE_NAMES))


def boundary_functions():
    """(owner class, attribute name, function) for every boundary."""
    found = []
    for paths in BOUNDARIES.values():
        for path in paths:
            owner_path, name = path.rsplit(".", 1)
            owner = pkgutil.resolve_name(owner_path)
            found.append((owner, name, vars(owner)[name]))
    return found


def small_fgnvm():
    from repro.config import fgnvm

    cfg = fgnvm(8, 2)
    cfg.org.rows_per_bank = 256
    return cfg


class TestAttached:
    def test_every_boundary_is_timed_and_restored(self):
        from repro.sim.experiment import run_benchmark

        originals = boundary_functions()
        cfg = small_fgnvm()
        cfg.sim.epoch_cycles = 200
        timer = PhaseTimer()
        with attached(timer):
            run_benchmark(cfg, "mcf", 200)
        assert set(timer.stats) == set(BOUNDARIES)
        assert timer.stats[PH_RUN].calls == 1
        assert timer._stack == []
        for owner, name, original in originals:
            assert vars(owner)[name] is original

    def test_raising_run_leaves_timer_and_classes_clean(self):
        from repro.sim.experiment import run_benchmark

        originals = boundary_functions()
        cfg = small_fgnvm()
        cfg.sim.max_cycles = 50
        timer = PhaseTimer()
        with pytest.raises(SimulationError, match="max_cycles"):
            with attached(timer):
                run_benchmark(cfg, "mcf", 200)
        assert timer._stack == []
        assert timer.stats[PH_RUN].calls == 1
        for owner, name, original in originals:
            assert vars(owner)[name] is original
        # The timer is still usable: a new phase is top-level.
        with timer.phase(PH_TRACE_DECODE):
            pass
        assert timer.stats[PH_TRACE_DECODE].self_s == pytest.approx(
            timer.stats[PH_TRACE_DECODE].cum_s
        )


class TestNoInSourceHooks:
    def test_no_simulator_component_takes_or_holds_a_profiler(self):
        from repro.core.fgnvm_bank import FgNvmBank
        from repro.cpu.trace_cpu import TraceCpu
        from repro.memsys.controller import MemoryController
        from repro.sim.experiment import run_benchmark, run_trace
        from repro.sim.simulator import Simulator, simulate
        from repro.sim.system import MemorySystem
        from repro.workloads import generate_trace, get_profile

        for fn in (Simulator, simulate, MemorySystem, MemoryController,
                   FgNvmBank, TraceCpu, run_trace, run_benchmark):
            assert "profiler" not in inspect.signature(fn).parameters, fn
        sim = Simulator(small_fgnvm(),
                        generate_trace(get_profile("mcf"), 50))
        parts = [sim, sim.controller, sim.cpu]
        for controller in sim.controller.controllers:
            parts.append(controller)
            parts.extend(controller.banks)
        for part in parts:
            assert not hasattr(part, "profiler"), part

    def test_phase_names_are_the_boundaries_plus_trace_decode(self):
        assert set(PHASE_NAMES) == set(BOUNDARIES) | {PH_TRACE_DECODE}
        assert len(PHASE_NAMES) == len(BOUNDARIES) + 1
