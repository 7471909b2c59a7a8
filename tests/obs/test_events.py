"""Event bus primitives: probes, sinks, and the no-op contract."""

import pytest

from repro.obs.events import (
    EV_ISSUE,
    EV_QUEUE_STALL,
    EVENT_DEFAULTS,
    EVENT_KINDS,
    NULL_PROBE,
    Event,
    ListSink,
    Probe,
    TeeSink,
    TimelineSink,
    make_probe,
    tile_events,
)


class TestEvent:
    def test_only_kind_and_cycle_required(self):
        event = Event(EV_ISSUE, 10)
        assert event.kind == EV_ISSUE
        assert event.cycle == 10
        assert event.sag == -1 and event.cd == -1

    def test_duration_for_spanning_event(self):
        assert Event(EV_ISSUE, 10, end=25).duration == 15

    def test_duration_zero_for_instant_event(self):
        assert Event(EV_QUEUE_STALL, 10).duration == 0

    def test_tile_coordinates(self):
        assert Event(EV_ISSUE, 0, sag=3, cd=1).tile == (3, 1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            Event(EV_ISSUE, 0).cycle = 5

    def test_defaults_exclude_required_fields(self):
        assert "kind" not in EVENT_DEFAULTS
        assert "cycle" not in EVENT_DEFAULTS

    def test_kind_constants_are_distinct(self):
        assert len(set(EVENT_KINDS)) == len(EVENT_KINDS)


class TestProbe:
    def test_null_probe_disabled(self):
        assert NULL_PROBE.enabled is False

    def test_null_probe_emit_is_noop(self):
        NULL_PROBE.emit(Event(EV_ISSUE, 0))  # must not raise

    def test_probe_with_sink_enabled(self):
        sink = ListSink()
        probe = Probe(sink)
        assert probe.enabled
        probe.emit(Event(EV_ISSUE, 3))
        assert len(sink) == 1
        assert sink.events[0].cycle == 3

    def test_make_probe_no_sinks_returns_null(self):
        assert make_probe() is NULL_PROBE
        assert make_probe(None, None) is NULL_PROBE

    def test_make_probe_single_sink_direct(self):
        sink = ListSink()
        assert make_probe(sink).sink is sink

    def test_make_probe_tees_multiple_sinks(self):
        first, second = ListSink(), ListSink()
        probe = make_probe(first, second)
        assert isinstance(probe.sink, TeeSink)
        probe.emit(Event(EV_ISSUE, 1))
        assert len(first) == 1 and len(second) == 1


    def test_make_probe_carries_tracer_and_epoch_tap(self):
        from repro.obs.trace import RequestTracer

        tracer = RequestTracer()
        probe = make_probe(tracer=tracer, on_epoch=print)
        assert probe is not NULL_PROBE
        assert not probe.enabled  # enabled means "an event sink is attached"
        assert probe.tracer is tracer
        assert probe.on_epoch is print
        assert NULL_PROBE.tracer is None and NULL_PROBE.on_epoch is None


class TestOneInstrumentationSeam:
    """The probe is the only instrumentation object the simulator
    stack takes: no component has its own tracer, epoch-hook or
    occupancy-log parameter."""

    def test_no_component_takes_a_separate_hook(self):
        import inspect

        import repro.obs
        from repro.core.fgnvm_bank import FgNvmBank
        from repro.memsys.controller import MemoryController
        from repro.sim.experiment import run_benchmark, run_trace
        from repro.sim.simulator import Simulator, simulate
        from repro.sim.system import MemorySystem

        for fn in (Simulator, simulate, run_trace, run_benchmark,
                   MemorySystem, MemoryController):
            params = inspect.signature(fn).parameters
            assert "tracer" not in params, fn
            assert "epoch_hook" not in params, fn
        params = inspect.signature(FgNvmBank.__init__).parameters
        for name in ("event_log", "probe", "channel"):
            assert name not in params, name
        assert not hasattr(repro.obs, "NULL_TRACER")

    def test_simulator_hands_one_probe_to_every_component(self):
        from repro.config import fgnvm
        from repro.obs.trace import RequestTracer
        from repro.sim.simulator import Simulator
        from repro.workloads import generate_trace, get_profile

        cfg = fgnvm(4, 2)
        cfg.org.rows_per_bank = 256
        cfg.org.channels = 2
        cfg.sim.epoch_cycles = 500
        tracer, samples = RequestTracer(), []
        probe = make_probe(ListSink(), tracer=tracer,
                           on_epoch=samples.append)
        sim = Simulator(cfg, generate_trace(get_profile("mcf"), 200),
                        probe=probe)
        assert sim.probe is probe and sim.cpus[0].probe is probe
        assert len(sim.controller.controllers) == 2
        for controller in sim.controller.controllers:
            assert controller.probe is probe
            assert controller.tracer is tracer
            assert all(bank.probe is probe for bank in controller.banks)
        result = sim.run()
        assert samples == result.epochs and samples
        assert tracer.finished


class TestTimelineSink:
    def test_converts_tile_issues_to_tuples(self):
        sink = TimelineSink()
        sink.on_event(Event(EV_ISSUE, 5, end=20, sag=1, cd=0,
                            service="row_miss"))
        assert sink.events == [(5, 20, 1, 0, "row_miss")]

    def test_ignores_non_tile_events(self):
        sink = TimelineSink()
        sink.on_event(Event(EV_QUEUE_STALL, 5))
        sink.on_event(Event(EV_ISSUE, 5, end=9, service="forwarded"))
        assert sink.events == []

    def test_tile_events_helper(self):
        stream = [
            Event(EV_ISSUE, 0, end=4, sag=0, cd=0, service="row_hit"),
            Event(EV_QUEUE_STALL, 1),
            Event(EV_ISSUE, 2, end=8, sag=1, cd=1, service="write"),
        ]
        assert tile_events(stream) == [
            (0, 4, 0, 0, "row_hit"), (2, 8, 1, 1, "write"),
        ]
