"""The observability overhead guard.

Instrumentation must be *pure observation*: attaching a probe — or no
probe at all — may never change what the simulated machine does.  These
tests pin the acceptance criterion that a run with no sink attached is
bit-identical to the seed behaviour, and that even a fully-subscribed
run produces the identical architectural results.
"""

import os

import pytest

from repro.config import baseline_nvm, fgnvm
from repro.obs import ListSink, MetricRegistry, make_probe
from repro.obs.events import NULL_PROBE
from repro.obs.perf import PhaseTimer, attached
from repro.obs.trace import RequestTracer
from repro.sim.simulator import Simulator, simulate
from repro.workloads import OP_READ, generate_trace, get_profile


def run(config_builder, probe=None, benchmark="mcf", requests=700):
    cfg = config_builder()
    cfg.org.rows_per_bank = 256
    trace = generate_trace(get_profile(benchmark), requests)
    return simulate(cfg, trace, probe=probe)


@pytest.mark.parametrize("builder", [
    baseline_nvm, lambda: fgnvm(8, 2), lambda: fgnvm(4, 4),
])
class TestNoBehaviourChange:
    def test_no_probe_equals_null_probe(self, builder):
        plain = run(builder, probe=None)
        nulled = run(builder, probe=NULL_PROBE)
        assert plain.summary() == nulled.summary()

    def test_sink_attached_run_is_bit_identical(self, builder):
        plain = run(builder, probe=None)
        probed = run(builder, probe=make_probe(ListSink(), MetricRegistry()))
        assert plain.summary() == probed.summary()
        assert plain.cycles == probed.cycles
        assert plain.ipc == probed.ipc

    def test_enabled_profiler_is_bit_identical(self, builder):
        """Profiling is pure observation: an *enabled* timer may slow
        the simulator down but can never change simulated results."""
        plain = run(builder)
        timer = PhaseTimer()
        with attached(timer):
            profiled = run(builder)
        assert plain.summary() == profiled.summary()
        assert plain.cycles == profiled.cycles
        # ... and the timer actually saw the run.
        assert timer.total_s > 0
        assert "controller.tick" in timer.stats

    def test_enabled_tracer_is_bit_identical(self, builder):
        """Tracing is pure observation: sampling every request may cost
        wall time but can never change what the machine does."""
        plain = run(builder)
        tracer = RequestTracer(sample_every=1, seed=0)
        traced = run(builder, probe=make_probe(tracer=tracer))
        assert plain.summary() == traced.summary()
        assert plain.cycles == traced.cycles
        assert plain.ipc == traced.ipc
        # ... and the tracer actually followed the run.
        assert tracer.finished
        assert all(span.check() == [] for span in tracer.finished)


class TestNoAllocationWhenDisabled:
    def test_null_probe_is_shared_singleton(self):
        from repro.core.fgnvm_bank import FgNvmBank  # noqa: F401
        from repro.memsys.controller import MemoryController
        from repro.memsys.stats import StatsCollector

        cfg = baseline_nvm()
        cfg.org.rows_per_bank = 256
        ctrl = MemoryController(cfg, StatsCollector())
        assert ctrl.probe is NULL_PROBE
        assert ctrl.tracer is None
        assert all(bank.probe is NULL_PROBE for bank in ctrl.banks)

    def test_disabled_probe_never_calls_sink(self):
        class Exploding:
            def on_event(self, event):
                raise AssertionError("sink called while disabled")

        probe = make_probe(Exploding())
        probe.enabled = False
        result = run(lambda: fgnvm(4, 4), probe=probe, requests=200)
        assert result.cycles > 0


class TestStreamingNoBehaviourChange:
    """Live telemetry obeys the same never-perturb contract.

    A streaming run must produce bit-identical simulated results to a
    stream-off run, and serial and pooled engines must emit equivalent
    frame streams for the same sweep.
    """

    def jobs(self):
        from repro.sim.parallel import ExperimentJob

        def cfg(banks, tiles):
            c = fgnvm(banks, tiles)
            c.org.rows_per_bank = 512
            c.sim.epoch_cycles = 500
            return c

        return [
            ExperimentJob(cfg(4, 4), "mcf", 300),
            ExperimentJob(cfg(8, 2), "lbm", 300),
        ]

    def run_engine(self, workers, hub):
        from repro.sim.parallel import ParallelExperimentEngine

        engine = ParallelExperimentEngine(workers=workers, telemetry=hub)
        results = engine.run_jobs(self.jobs())
        if hub is not None:
            hub.close()
        return results

    def test_stream_off_runs_are_bit_identical(self):
        from repro.obs.hub import TelemetryHub

        plain = self.run_engine(workers=1, hub=None)
        streamed = self.run_engine(workers=1, hub=TelemetryHub())
        assert [r.summary() for r in plain] == [
            r.summary() for r in streamed
        ]
        assert [r.epochs for r in plain] == [r.epochs for r in streamed]

    def test_serial_and_pooled_streams_are_equivalent(self):
        from repro.obs.hub import TelemetryHub

        serial_hub = TelemetryHub()
        pooled_hub = TelemetryHub()
        serial = self.run_engine(workers=1, hub=serial_hub)
        pooled = self.run_engine(workers=2, hub=pooled_hub)
        assert [r.summary() for r in serial] == [
            r.summary() for r in pooled
        ]
        assert set(serial_hub.jobs) == set(pooled_hub.jobs)
        for label, serial_view in serial_hub.jobs.items():
            pooled_view = pooled_hub.jobs[label]
            assert list(serial_view.ipc_series) == list(
                pooled_view.ipc_series
            )
            assert serial_view.epochs == pooled_view.epochs
            assert serial_view.cycles == pooled_view.cycles
            assert serial_view.state == pooled_view.state == "done"

    def test_streaming_engine_reports_zero_drops_when_unpressured(self):
        from repro.obs.hub import TelemetryHub

        hub = TelemetryHub()
        self.run_engine(workers=2, hub=hub)
        assert hub.dropped_frames == 0
        assert hub.fleet.jobs_done == 2


class HookSpy(RequestTracer):
    """A tracer that records which requests reach its request hooks."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.admitted, self.finished_ids = [], []

    def on_admit(self, req, now):
        self.admitted.append(req.req_id)
        return super().on_admit(req, now)

    def finish(self, req):
        self.finished_ids.append(req.req_id)
        return super().finish(req)


class TestSampledPathCost:
    """What keeps 1-in-N tracing cheap: unsampled requests cost the
    tracer nothing, and sampled reads do not change the visited cycles."""

    def test_unsampled_requests_trigger_no_tracer_hook(self):
        tracer = HookSpy(sample_every=5, seed=3)
        run(lambda: fgnvm(8, 2), probe=make_probe(tracer=tracer),
            requests=400)
        sampled = [span.req_id for span in tracer.finished]
        assert len(sampled) == 80
        assert sorted(tracer.admitted) == sorted(sampled)
        assert sorted(tracer.finished_ids) == sorted(sampled)

    def test_read_only_samples_keep_the_capped_event_horizon(self):
        def visited(probe):
            cfg = fgnvm(8, 2)
            assert cfg.controller.max_writes_per_bank is not None
            cfg.org.rows_per_bank = 256
            trace = generate_trace(get_profile("lbm"), 1500)
            for index in range(0, len(trace), 4):
                trace.ops[index] = OP_READ  # every sampled request reads
            sim = Simulator(cfg, trace, probe=probe)
            cycles = []
            advance = sim._next_cycle

            def recording():
                cycle = advance()
                cycles.append(cycle)
                return cycle

            sim._next_cycle = recording
            return sim.run(), cycles

        tracer = RequestTracer(sample_every=4, seed=0)
        traced, traced_cycles = visited(make_probe(tracer=tracer))
        plain, plain_cycles = visited(None)
        assert {span.op for span in tracer.finished} == {"R"}
        assert len(tracer.finished) == 375
        assert traced.summary() == plain.summary()
        assert traced_cycles == plain_cycles


@pytest.mark.skipif(
    not os.environ.get("REPRO_OVERHEAD_GATE"),
    reason="overhead-budget gate is CI-only (REPRO_OVERHEAD_GATE=1)",
)
class TestOverheadBudget:
    def test_sampled_tracing_costs_at_most_five_percent(self):
        """The bounded-overhead contract, measured: 1-in-N sampling is
        the mechanism that bounds tracer cost, and at the documented
        profiling rate (1-in-50) the smoke benchmark performs at most
        5% more work than untraced.  (Tracing *every* request runs the
        per-cycle blame pass over the whole queue and costs ~2x — a
        deep-dive mode, documented in docs/observability.md, not the
        bounded path.)

        Overhead is measured as the total Python-call count under
        cProfile, not wall time: the simulation is deterministic, so
        the count is exactly reproducible and immune to the CPU
        frequency drift that makes 5%-resolution wall-clock asserts
        flaky on shared CI runners — and every cycle the tracer adds
        is a function call, so added calls *are* the added cost.
        """
        import cProfile
        import pstats

        def total_calls(tracer):
            profile = cProfile.Profile()
            profile.enable()
            result = run(lambda: fgnvm(8, 2), requests=2000,
                         probe=make_probe(tracer=tracer))
            profile.disable()
            assert result.cycles > 0
            return pstats.Stats(profile).total_calls

        plain = total_calls(None)
        traced = total_calls(RequestTracer(sample_every=50, seed=0))
        assert traced <= plain * 1.05, (
            f"tracer-enabled run made {traced} calls vs {plain} untraced "
            f"({traced / plain - 1:+.2%}, budget +5%)"
        )
