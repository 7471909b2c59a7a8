"""Layer spans recorded from outside the program, and their self times.

A traced iteration replaces a fixed set of ``repro`` functions and
methods, grouped into *layers* named ``<module>.<callable>``, with
wrappers that record one span per call into preallocated ``array('q')``
columns:
name id, start ns, end ns and the index of the enclosing span.  Nothing
inside ``src/`` changes; the wrappers are installed by ``driver.py``
after ``repro.cli`` is imported and before ``main`` runs.

A layer's self time is the total of its spans' durations minus the part
covered by child spans, minus the calibrated cost of one wrapper
(:func:`calibrate`) per child, since that cost is paid inside the parent
but outside the child.  The wall time not covered by any self time is
the residual: process start, import, printing and unwrapped code.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple

#: Spans are clocked with the system-wide monotonic clock, the same one
#: ``run.py`` stamps process spawn and exit with.
clock = time.monotonic_ns

Targets = List[Tuple[str, str]]


def scheduler_targets() -> Targets:
    """``pick``/``pick_with_horizon`` on every scheduler class."""
    module = importlib.import_module("repro.memsys.scheduler")
    targets = []
    for name, cls in sorted(vars(module).items()):
        if not (inspect.isclass(cls) and cls.__module__ == module.__name__):
            continue
        for method in ("pick", "pick_with_horizon"):
            if method in vars(cls):
                targets.append((module.__name__, f"{name}.{method}"))
    return targets


def analysis_targets(prefix: str) -> Callable[[], Targets]:
    """Every ``render_*`` or ``check_*`` the reproduce pipeline calls."""
    def targets() -> Targets:
        module = importlib.import_module("repro.analysis.reproduce")
        return [(module.__name__, name) for name in sorted(vars(module))
                if name.startswith(prefix)]
    return targets


#: (layer name, [(module, attribute path), ...]) for the simulator stack,
#: wrapped in traced ``sim-*`` runs.  A callable in place of the list
#: finds the targets when the wrappers are installed.
SIM_LAYERS: List[Tuple[str, "Targets | Callable[[], Targets]"]] = [
    # The CLI's own binding: ``repro.cli`` imported it by name.
    ("workloads.read_trace", [("repro.cli", "read_trace")]),
    ("sim.run", [("repro.sim.simulator", "Simulator.run")]),
    ("cpu.tick", [("repro.cpu.trace_cpu", "TraceCpu.tick")]),
    ("memsys.tick", [("repro.sim.system", "MemorySystem.tick")]),
    ("memsys.admission", [
        ("repro.sim.system", "MemorySystem.can_accept"),
        ("repro.sim.system", "MemorySystem.enqueue"),
    ]),
    ("memsys.next_event", [
        ("repro.sim.system", "MemorySystem.next_event_after"),
    ]),
    ("core.bank.constraint", [
        ("repro.core.fgnvm_bank", "FgNvmBank.kind_and_constraint"),
    ]),
    ("core.bank.issue", [("repro.core.fgnvm_bank", "FgNvmBank.issue")]),
    ("memsys.scheduler.pick", scheduler_targets),
]

#: The engine stack, wrapped in the parent process of traced
#: ``reproduce-*`` runs.  Module-level functions are wrapped where the
#: caller looks them up, because callers imported them by name.
ENGINE_LAYERS: List[Tuple[str, "Targets | Callable[[], Targets]"]] = [
    ("sim.parallel.run_jobs", [
        ("repro.sim.parallel", "ParallelExperimentEngine.run_jobs"),
        ("repro.resilience.engine", "ResilientEngine.run_jobs"),
    ]),
    ("sim.parallel.job_key", [
        ("repro.sim.parallel", "job_key"),
        ("repro.sim.parallel", "config_digest"),
    ]),
    ("sim.parallel.result_cache.get", [
        ("repro.sim.parallel", "DiskResultCache.get"),
    ]),
    ("sim.parallel.result_cache.put", [
        ("repro.sim.parallel", "DiskResultCache.put"),
    ]),
    ("sim.parallel.result_digest", [
        ("repro.sim.parallel", "result_digest"),
    ]),
    ("workloads.generate", [
        ("repro.sim.parallel", "generate_packed_trace"),
    ]),
    ("workloads.trace_cache.get", [
        ("repro.workloads.packed", "TraceCache.get"),
    ]),
    ("workloads.trace_cache.put", [
        ("repro.workloads.packed", "TraceCache.put"),
    ]),
    # PackedTrace.to_bytes plus the SharedMemory create and copy.
    # to_bytes alone cannot be the boundary: TraceCache.put calls it too.
    ("workloads.shm_export", [
        ("repro.sim.parallel", "ParallelExperimentEngine._export_segments"),
    ]),
    ("resilience.journal.record", [
        ("repro.resilience.journal", "SweepJournal.record"),
    ]),
    ("analysis.figure3", [("repro.analysis.reproduce", "run_figure3")]),
    ("obs.manifest.write", [("repro.obs.manifest", "RunManifest.write")]),
    ("analysis.render", analysis_targets("render_")),
    ("analysis.check", analysis_targets("check_")),
]

STACKS = {"sim": SIM_LAYERS, "engine": ENGINE_LAYERS}


def layer_names(stack: str) -> List[str]:
    """The layer names of ``stack`` (``"sim"`` or ``"engine"``)."""
    return [name for name, _ in STACKS[stack]]


class SpanRecorder:
    """Spans in four int64 columns that double when full."""

    __slots__ = ("names", "columns", "n", "top", "capacity")

    def __init__(self, capacity: int = 1 << 16):
        #: Layer names; a span's name column holds an index into this.
        self.names: List[str] = []
        self.columns = tuple(array("q", bytes(8 * capacity))
                             for _ in range(4))
        self.n = 0
        self.top = -1
        self.capacity = capacity

    def _grow(self) -> None:
        for column in self.columns:
            column.extend(array("q", bytes(8 * self.capacity)))
        self.capacity *= 2

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        name_id = self.name_id(name)
        rec = self
        names, starts, ends, parents = self.columns

        def span(*args, **kwargs):
            i = rec.n
            if i == rec.capacity:
                rec._grow()
            rec.n = i + 1
            names[i] = name_id
            parents[i] = rec.top
            rec.top = i
            starts[i] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                rec.top = parents[i]

        span.__wrapped__ = fn
        return span

    def install(self, stack: str) -> int:
        """Wrap every target of ``stack`` in place; returns the count."""
        count = 0
        for name, targets in STACKS[stack]:
            if callable(targets):
                targets = targets()
            for module_name, path in targets:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = vars(owner)[attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{module_name}.{path} is not a function")
                setattr(owner, attr, self.wrap(original, name))
                count += 1
        return count

    def dump(self, prefix: "str | Path", header: Dict[str, object]) -> None:
        """Write ``<prefix>.json`` (names, count, header) and ``.bin``."""
        prefix = Path(prefix)
        meta = dict(header, names=self.names, n=self.n)
        with open(f"{prefix}.bin", "wb") as handle:
            for column in self.columns:
                handle.write(memoryview(column)[: self.n].tobytes())
        Path(f"{prefix}.json").write_text(json.dumps(meta), encoding="utf-8")


def load(prefix: "str | Path") -> "tuple[dict, tuple[array, ...]]":
    """Read back what :meth:`SpanRecorder.dump` wrote."""
    meta = json.loads(Path(f"{prefix}.json").read_text(encoding="utf-8"))
    data = Path(f"{prefix}.bin").read_bytes()
    n = meta["n"]
    columns = []
    for k in range(4):
        column = array("q")
        column.frombytes(data[k * 8 * n:(k + 1) * 8 * n])
        columns.append(column)
    return meta, tuple(columns)


def calibrate(rounds: int = 20_000, repeats: int = 5) -> float:
    """Nanoseconds one wrapper adds to its caller outside its own span.

    Times a loop of wrapped no-op calls, subtracts the empty loop and the
    mean recorded span duration, and keeps the lowest of ``repeats``
    estimates (interference only ever adds time).
    """
    best = float("inf")
    for _ in range(repeats):
        rec = SpanRecorder(capacity=rounds)
        wrapped = rec.wrap(lambda: None, "calibration")
        loop = range(rounds)
        t0 = clock()
        for _ in loop:
            pass
        empty = clock() - t0
        t0 = clock()
        for _ in loop:
            wrapped()
        total = clock() - t0
        _, starts, ends, _ = rec.columns
        inside = sum(ends) - sum(starts)
        best = min(best, (total - empty - inside) / rounds)
    return max(best, 0.0)


def self_times(names: Sequence[int], starts: Sequence[int],
               ends: Sequence[int], parents: Sequence[int],
               span_cost_ns: float) -> "tuple[Dict[int, float], Dict[int, int]]":
    """(self ns, calls) per name id.

    Self time is duration minus child durations minus ``span_cost_ns``
    per child.  A span nested directly in a span of the same name (a
    wrapped method calling another wrapped method of its layer) adds its
    self time but not a call: calls count entries into the layer.
    """
    n = len(names)
    child_ns = [0] * n
    child_count = [0] * n
    for i, parent in enumerate(parents):
        if parent >= 0:
            child_ns[parent] += ends[i] - starts[i]
            child_count[parent] += 1
    self_ns: Dict[int, float] = {}
    calls: Dict[int, int] = {}
    for i in range(n):
        name = names[i]
        own = (ends[i] - starts[i] - child_ns[i]
               - span_cost_ns * child_count[i])
        self_ns[name] = self_ns.get(name, 0.0) + own
        parent = parents[i]
        if parent < 0 or names[parent] != name:
            calls[name] = calls.get(name, 0) + 1
    return self_ns, calls


def write_jsonl(path: "str | Path", meta: dict, columns, origin_ns: int) -> None:
    """Spans as JSON lines: a header, then ``[name, start, end, parent]``.

    Times are nanoseconds since ``origin_ns`` (process spawn).
    """
    names, starts, ends, parents = columns
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"names": meta["names"], "origin_ns": origin_ns,
                                 "columns": ["name", "start_ns", "end_ns",
                                             "parent"]}) + "\n")
        handle.writelines(
            f"[{names[i]},{starts[i] - origin_ns},{ends[i] - origin_ns},"
            f"{parents[i]}]\n"
            for i in range(len(names))
        )
