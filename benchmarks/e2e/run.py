"""End-to-end benchmark of ``repro``: what a user waits for, layer by layer.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py --workload sim-mcf-frfcfs --seed 101 \\
        --seconds 20 --trace 0 [--save runs.jsonl]
    python3 benchmarks/e2e/run.py --record-golden

Every iteration is a fresh ``python benchmarks/e2e/driver.py <argv>``
process (``PYTHONPATH=src``), run one at a time by one client: a closed
loop.  Iterations repeat until ``--seconds`` is used up.  Each one is
checked: exit code, output digests against ``golden.json``, cache
behaviour, leaked shared-memory segments and stray processes.  Times
are divided by the host's measured slowdown during the iteration
(``speed.py``).  With ``--trace 0`` the last stdout line is a JSON object
with the end-to-end metrics of ``BENCHMARK.json``; with ``--trace 1`` one
more, traced, iteration gives the per-layer metrics instead.  README.md
explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from speed import SpeedSamplers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
DRIVER = HERE / "driver.py"
GOLDEN = HERE / "golden.json"
RESULTS = HERE / "results"
WORK = HERE / ".work"

#: ``repro reproduce`` size and pool width.  ``--workers`` never exceeds
#: the CPUs this process may run on.
REPRODUCE_REQUESTS = 2500
REPRODUCE_WORKERS = 2
#: Length of the generated trace each ``sim-*`` iteration replays.
SIM_REQUESTS = 20_000
#: The whole run, set-up included, ends within this many seconds: an
#: iteration still running at the deadline is killed and counted failed.
RUN_BUDGET_S = 160.0
#: How long a finished iteration's process group may take to empty
#: (multiprocessing's resource tracker exits just after the driver).
GROUP_EXIT_S = 5.0


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program, or set-up failed)."""


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``"reproduce"`` or ``"sim"``.
    kind: str
    warm: bool = False
    profile: str = ""
    policy: Optional[str] = None

    @property
    def stack(self) -> str:
        """The layer table ``spans.py`` wraps in a traced iteration."""
        return "engine" if self.kind == "reproduce" else "sim"


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("reproduce-cold", "reproduce"),
        Workload("reproduce-warm", "reproduce", warm=True),
        Workload("sim-mcf-frfcfs", "sim", profile="mcf"),
        Workload("sim-lbm-palp", "sim", profile="lbm", policy="palp"),
    )
}


def load_spec() -> dict:
    """``BENCHMARK.json``: metric names, units, bounds and run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _import_repro():
    """The program's own modules, for trace generation and its version."""
    if not (SRC / "repro" / "cli.py").is_file():
        raise SetupError(f"no program to benchmark: {SRC / 'repro'} is missing")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro.sim.parallel
    import repro.workloads

    return repro


# -- statistics ---------------------------------------------------------------


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles (``statistics.quantiles(n=4)``) and count."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "n": len(values), "q1": q1, "q3": q3}


# -- one iteration --------------------------------------------------------------


@dataclass
class Outcome:
    """What one driver process did, measured from outside."""

    returncode: int
    timed_out: bool
    wall_s: float
    #: Spawn to ``import repro.cli`` returned; None without a stamp.
    setup_s: Optional[float]
    cpu_s: float
    #: The driver's own peak plus its reaped children's (see driver.py).
    peak_rss_mb: float
    stdout: str
    #: ``/dev/shm/repro-trace-<pid>-*`` segments left after exit.
    leaked: List[str] = field(default_factory=list)
    #: Processes still in the driver's group after it exited.
    stray: int = 0
    #: Monotonic clock at spawn and at exit.
    spawn_ns: int = 0
    exit_ns: int = 0


def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (pool workers, resource tracker).

    Makes "the group has emptied" observable even when the container's
    init does not reap.  Best-effort: without it orphans are only killed.
    """
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _reap_orphans() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def _group_alive(pgid: int) -> bool:
    _reap_orphans()
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _settle_group(pgid: int) -> int:
    """Wait for the group to empty; kill what remains.  Returns strays."""
    give_up = time.monotonic() + GROUP_EXIT_S
    while _group_alive(pgid):
        if time.monotonic() > give_up:
            _kill_group(pgid)
            time.sleep(0.05)
            _reap_orphans()
            return 1
        time.sleep(0.005)
    return 0


def child_env(extra: Dict[str, str]) -> Dict[str, str]:
    """The driver's environment: no inherited ``PYTHON*``/``REPRO_*``.

    Settings such as ``REPRO_SCHEDULER``, ``REPRO_CACHE_DIR`` or
    ``PYTHONDONTWRITEBYTECODE`` would change what is measured.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "REPRO_", "E2E_"))}
    env["PYTHONPATH"] = str(SRC)
    env.update(extra)
    return env


def launch(argv: Sequence[str], work: Path, timeout_s: float,
           extra_env: Optional[Dict[str, str]] = None) -> Outcome:
    """Run one driver process to completion and measure it."""
    stamps = work / "stamps"
    stdout_path = work / "stdout.txt"
    for path in (stamps, stdout_path):
        if path.exists():
            path.unlink()
    env = child_env(dict(extra_env or {}, E2E_STAMPS=str(stamps),
                         TMPDIR=str(work)))
    with open(stdout_path, "wb") as out, \
            open(work / "stderr.txt", "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(DRIVER), *argv], cwd=ROOT, env=env,
            stdout=out, stderr=err, start_new_session=True,
        )
        timed_out = threading.Event()

        def expire() -> None:
            timed_out.set()
            _kill_group(proc.pid)

        timer = threading.Timer(timeout_s, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exit_ns = time.monotonic_ns()
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    stray = _settle_group(proc.pid)
    leaked = sorted(glob.glob(f"/dev/shm/repro-trace-{proc.pid}-*"))
    for path in leaked:
        os.unlink(path)
    setup_s = None
    peak_kb = 0
    if stamps.exists():
        ready_ns, _, peak_kb = map(int, stamps.read_text().split())
        setup_s = (ready_ns - spawn_ns) / 1e9
    return Outcome(
        returncode=proc.returncode,
        timed_out=timed_out.is_set(),
        wall_s=(exit_ns - spawn_ns) / 1e9,
        setup_s=setup_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=peak_kb / 1024,
        stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
        leaked=[os.path.basename(p) for p in leaked],
        stray=stray,
        spawn_ns=spawn_ns,
        exit_ns=exit_ns,
    )


# -- outputs and checks -----------------------------------------------------------


def parse_table(stdout: str) -> "tuple[str, Dict[str, object]]":
    """(digest, rows) of a ``repro run`` summary table.

    The first line names the trace path, so it is left out of the digest.
    """
    lines = stdout.splitlines()
    body = "\n".join(lines[1:])
    rows: Dict[str, object] = {}
    for line in lines[3:]:
        parts = line.split()
        if len(parts) != 2:
            continue
        key, value = parts
        try:
            rows[key] = int(value)
        except ValueError:
            try:
                rows[key] = float(value)
            except ValueError:
                rows[key] = value
    return hashlib.sha256(body.encode("utf-8")).hexdigest(), rows


def artifact_digests(out_dir: Path) -> Dict[str, str]:
    """sha256 of every ``reproduce`` artifact except ``MANIFEST.txt``,
    which embeds the output path."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.is_file() and path.name != "MANIFEST.txt"
    }


@dataclass
class Product:
    """What an iteration produced, parsed."""

    #: Summary-table digest (sim) or artifact digests (reproduce).
    digest: object = None
    table: Dict[str, object] = field(default_factory=dict)
    manifest: Dict[str, object] = field(default_factory=dict)
    #: Simulated instructions the run's results describe.
    instructions: int = 0


def manifest_instructions(manifest: Dict[str, object]) -> "tuple[int, int]":
    """(distinct jobs, instructions summed over distinct jobs)."""
    by_key = {job["key"]: job["instructions"] for job in manifest["jobs"]}
    return len(by_key), sum(by_key.values())


@dataclass
class Expect:
    """What a correct iteration produces; None fields are not checked."""

    digest: object = None
    requests: Optional[int] = None
    instructions: Optional[int] = None


def iteration_problems(workload: Workload, outcome: Outcome,
                       product: Product, expect: Expect) -> List[str]:
    """Everything wrong with one iteration (empty when it passed)."""
    problems = []
    if outcome.timed_out:
        problems.append("timed out")
    if outcome.returncode != 0:
        problems.append(f"exit code {outcome.returncode}")
    if outcome.setup_s is None:
        problems.append("driver wrote no set-up stamp")
    if outcome.leaked:
        problems.append(f"leaked shared memory: {', '.join(outcome.leaked)}")
    if outcome.stray:
        problems.append("processes left running after exit")
    if problems:
        return problems
    if expect.digest is not None and product.digest != expect.digest:
        if isinstance(expect.digest, dict):
            differ = sorted(
                name for name in set(expect.digest) | set(product.digest)
                if expect.digest.get(name) != product.digest.get(name)
            )
            problems.append(f"artifacts differ from expected: {differ}")
        else:
            problems.append("summary table differs from expected")
    if workload.kind == "sim":
        table = product.table
        requests = table.get("reads", 0) + table.get("writes", 0)
        if expect.requests is not None and requests != expect.requests:
            problems.append(
                f"simulated {requests} requests, trace has {expect.requests}"
            )
        if (expect.instructions is not None
                and table.get("instructions") != expect.instructions):
            problems.append(
                f"simulated {table.get('instructions')} instructions, "
                f"trace has {expect.instructions}"
            )
    else:
        simulated = product.manifest["engine"]["simulations"]
        distinct, _ = manifest_instructions(product.manifest)
        if workload.warm and simulated:
            problems.append(f"warm run simulated {simulated} job(s)")
        if not workload.warm and simulated != distinct:
            problems.append(
                f"cold run simulated {simulated} of {distinct} job(s)"
            )
    return problems


# -- golden outputs -------------------------------------------------------------


def load_golden(code_version: str) -> Dict[str, object]:
    """This code version's golden row ({} when none was recorded)."""
    if not GOLDEN.exists():
        return {}
    return json.loads(GOLDEN.read_text(encoding="utf-8")).get(code_version, {})


# -- the benchmark ----------------------------------------------------------------


class Bench:
    """One benchmark run: set-up, timed iterations, optional traced one."""

    def __init__(self, workload: Workload, seed: Optional[int],
                 seconds: float, trace: bool, *,
                 reproduce_requests: int = REPRODUCE_REQUESTS,
                 sim_requests: int = SIM_REQUESTS,
                 use_golden: bool = True,
                 log: Callable[[str], None] = lambda line: None):
        self.workload = workload
        self.seconds = seconds
        self.trace = trace
        self.reproduce_requests = reproduce_requests
        self.sim_requests = sim_requests
        self.use_golden = use_golden
        self.log = log
        self.repro = _import_repro()
        self.code_version = self.repro.sim.parallel.CODE_VERSION
        profile_seed = (self.repro.workloads.get_profile(workload.profile).seed
                        if workload.kind == "sim" else None)
        self.seed = profile_seed if seed is None else seed
        self.default_seed = self.seed == profile_seed
        allowed = sorted(os.sched_getaffinity(0))
        self.workers = min(REPRODUCE_WORKERS, len(allowed))
        #: CPUs the iterations run on: one for the single-threaded
        #: simulator, one per pool worker for ``reproduce``.  Pinning
        #: lets the speed samplers watch exactly those CPUs.
        self.cpus = allowed[:1] if workload.kind == "sim" else \
            allowed[:self.workers]
        self.speed: Optional[SpeedSamplers] = None
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.expect = Expect()
        #: Where a traced iteration leaves spans.jsonl and layers.json.
        self.results = RESULTS / workload.name
        self.work = Path()
        self.trace_path = Path()
        self.cache = Path()

    # -- commands ------------------------------------------------------------

    def argv(self, slot: Path) -> List[str]:
        """The CLI arguments of one iteration writing under ``slot``."""
        if self.workload.kind == "sim":
            argv = ["run", "--config", "fgnvm-8x2"]
            if self.workload.policy:
                argv += ["--policy", self.workload.policy]
            return argv + ["--trace", str(self.trace_path)]
        cache = self.cache if self.workload.warm else slot / "cache"
        return ["reproduce", "--requests", str(self.reproduce_requests),
                "--workers", str(self.workers), "--cache-dir", str(cache),
                "--out", str(slot / "out")]

    def iterate(self, extra_env: Optional[Dict[str, str]] = None
                ) -> "tuple[Outcome, Product]":
        slot = Path(tempfile.mkdtemp(prefix="it-", dir=self.work))
        try:
            remaining = self.deadline - time.monotonic()
            outcome = launch(self.argv(slot), slot, max(remaining, 1.0),
                             extra_env)
            product = Product()
            if outcome.returncode == 0 and not outcome.timed_out:
                product = self.parse(slot, outcome)
            return outcome, product
        finally:
            shutil.rmtree(slot, ignore_errors=True)

    def parse(self, slot: Path, outcome: Outcome) -> Product:
        if self.workload.kind == "sim":
            digest, table = parse_table(outcome.stdout)
            return Product(digest=digest, table=table,
                           instructions=int(table.get("instructions", 0)))
        cache = self.cache if self.workload.warm else slot / "cache"
        manifest = json.loads((cache / "run-manifest.json").read_text())
        return Product(digest=artifact_digests(slot / "out"),
                       manifest=manifest,
                       instructions=manifest_instructions(manifest)[1])

    # -- set-up --------------------------------------------------------------

    def prepare(self) -> None:
        """Untimed: compile bytecode, make inputs, prime caches, goldens."""
        outcome = launch(["list"], self.work, 60.0)
        if outcome.returncode != 0:
            raise SetupError(f"`repro list` failed (exit {outcome.returncode})")
        golden = load_golden(self.code_version) if self.use_golden else {}
        if self.workload.kind == "sim":
            self._make_trace(golden.get(self.workload.name))
        else:
            self.cache = self.work / "cache"
            row = golden.get("reproduce")
            if self.use_golden:
                if row is None:
                    self.problems.append(
                        f"golden.json has no row for {self.code_version}"
                    )
                elif row["requests"] == self.reproduce_requests:
                    self.expect.digest = row["artifacts"]
            if self.workload.warm:
                self._prime()

    def _make_trace(self, row: Optional[dict]) -> None:
        workloads = self.repro.workloads
        profile = replace(workloads.get_profile(self.workload.profile),
                          seed=self.seed)
        records = workloads.generate_trace(profile, self.sim_requests)
        self.trace_path = self.work / f"{profile.name}-{self.seed}.trace"
        workloads.write_trace(records, self.trace_path)
        self.expect.requests = len(records)
        self.expect.instructions = workloads.total_instructions(records)
        if not (self.use_golden and self.default_seed):
            return
        if row is None:
            self.problems.append(
                f"golden.json has no {self.workload.name} row for "
                f"{self.code_version}"
            )
        elif row["seed"] == self.seed and row["requests"] == len(records):
            self.expect.digest = row["table_sha256"]

    def _prime(self) -> None:
        """One untimed run against the still empty cache: a cold run."""
        outcome, product = self.iterate()
        problems = iteration_problems(replace(self.workload, warm=False),
                                      outcome, product, self.expect)
        if problems:
            raise SetupError(f"priming cold run failed: {problems}")
        if self.expect.digest is None:
            self.expect.digest = product.digest

    # -- measurement ---------------------------------------------------------

    def check(self, outcome: Outcome, product: Product) -> List[str]:
        self.attempted += 1
        if self.expect.digest is None and product.digest is not None:
            # No golden applies (other seed or size): every iteration
            # must then reproduce the first one.
            self.expect.digest = product.digest
        problems = iteration_problems(self.workload, outcome, product,
                                      self.expect)
        if problems:
            self.failed += 1
            self.log(f"iteration {self.attempted} FAILED: {problems}")
        return problems

    def timed(self) -> "List[tuple[Outcome, Product]]":
        """Iterate until ``seconds`` have passed (at least once)."""
        runs = []
        until = min(time.monotonic() + self.seconds, self.deadline)
        while not runs or time.monotonic() < until:
            outcome, product = self.iterate()
            problems = self.check(outcome, product)
            runs.append((outcome, product, not problems))
            self.log(f"iteration {len(runs)}: wall {outcome.wall_s:.3f} s, "
                     f"set-up {outcome.setup_s or 0:.3f} s")
        passed = [(o, p) for o, p, ok in runs if ok]
        return passed or [(o, p) for o, p, _ in runs]

    def slowdown(self, outcome: Outcome) -> float:
        """The host's slowdown while this iteration ran (1.0 = reference)."""
        return self.speed.slowdown(outcome.spawn_ns, outcome.exit_ns)

    def end_to_end(self, runs) -> Dict[str, Dict[str, float]]:
        """Summaries of every end-to-end metric, times speed-normalised.

        One slowdown per iteration scales all its times: the set-up alone
        is too short to estimate its own.  Also summarises the raw times
        (``raw_*``) and the slowdown.
        """
        samples: Dict[str, List[float]] = {}

        def add(name: str, value: float) -> None:
            samples.setdefault(name, []).append(value)

        for outcome, product in runs:
            setup = outcome.setup_s if outcome.setup_s is not None else 0.0
            slow = self.slowdown(outcome)
            add("wall_s", outcome.wall_s / slow)
            add("setup_s", setup / slow)
            add("sim_instructions_per_s", product.instructions * slow
                / max(outcome.wall_s - setup, 1e-9))
            add("cpu_s", outcome.cpu_s / slow)
            add("peak_rss_mb", outcome.peak_rss_mb)
            add("raw_wall_s", outcome.wall_s)
            add("raw_setup_s", setup)
            add("raw_cpu_s", outcome.cpu_s)
            add("slowdown", slow)
        return {name: summarize(values) for name, values in samples.items()}

    def traced(self, untraced_wall_s: float) -> Dict[str, float]:
        """One traced iteration; returns every per-layer value.

        ``untraced_wall_s`` is the speed-normalised median, so the traced
        wall is normalised the same way for ``trace.overhead``.
        """
        import spans

        span_cost_ns = spans.calibrate()
        prefix = self.work / "spans"
        outcome, product = self.iterate({
            "E2E_LAYERS": self.workload.stack, "E2E_SPANS": str(prefix),
        })
        self.check(outcome, product)
        meta, columns = spans.load(prefix)
        overhead = outcome.wall_s / self.slowdown(outcome) / untraced_wall_s - 1
        values = layer_values(outcome, product, meta, columns, span_cost_ns,
                              overhead)
        self.results.mkdir(parents=True, exist_ok=True)
        spans.write_jsonl(self.results / "spans.jsonl", meta, columns,
                          outcome.spawn_ns)
        (self.results / "layers.json").write_text(
            json.dumps(values, indent=2, sort_keys=True) + "\n"
        )
        return values

    def run(self) -> dict:
        """Set up, measure and check; returns the full result record."""
        WORK.mkdir(parents=True, exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
        affinity = os.sched_getaffinity(0)
        try:
            # Iterations inherit the pinning.
            os.sched_setaffinity(0, self.cpus)
            self.speed = SpeedSamplers(self.cpus, self.work)
            self.speed.wait_ready()
            self.prepare()
            runs = self.timed()
            e2e = self.end_to_end(runs)
            layers = None
            if self.trace:
                layers = self.traced(e2e["wall_s"]["value"])
        finally:
            if self.speed is not None:
                self.speed.close()
            os.sched_setaffinity(0, affinity)
            shutil.rmtree(self.work, ignore_errors=True)
        spec = load_spec()
        if layers is None:
            wanted = spec["end_to_end"]
            metrics = {m["name"]: dict(e2e[m["name"]], unit=m["unit"])
                       for m in wanted}
        else:
            wanted = spec["per_layer"]
            metrics = {m["name"]: {"value": layers[m["name"]],
                                   "unit": m["unit"]} for m in wanted}
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "code_version": self.code_version,
            "workers": self.workers,
            "correct": not self.problems and self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "metrics": metrics,
            "diagnostics": {name: e2e[name] for name in
                            ("raw_wall_s", "raw_setup_s", "raw_cpu_s",
                             "slowdown")},
        }


def layer_values(outcome: Outcome, product: Product, meta: dict, columns,
                 span_cost_ns: float, overhead: float) -> Dict[str, float]:
    """Per-layer values of one traced iteration.

    Layers of the stack a workload does not run read 0: ``sim-*`` runs
    never enter the engine, and ``reproduce-*`` runs simulate only in
    pool workers, which are not traced.
    """
    import spans

    self_ns, calls = spans.self_times(*columns, span_cost_ns)
    values: Dict[str, float] = {}
    for stack in ("sim", "engine"):
        for name in spans.layer_names(stack):
            values[f"{name}.calls"] = 0
            values[f"{name}.self_s"] = 0.0
    for name_id, own_ns in self_ns.items():
        name = meta["names"][name_id]
        values[f"{name}.calls"] = calls.get(name_id, 0)
        values[f"{name}.self_s"] = own_ns / 1e9
    total_self_s = sum(self_ns.values()) / 1e9
    values.update({
        "trace.wall_s": outcome.wall_s,
        "trace.spans": meta["n"],
        "trace.span_cost_ns": span_cost_ns,
        "trace.overhead": overhead,
        "residual_s": outcome.wall_s - total_self_s,
    })

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    table = product.table
    for key in ("cycles", "ipc", "row_hit_rate", "multi_activation_senses",
                "reads_under_write", "avg_read_latency_cycles"):
        values[f"model.{key}"] = table.get(key, 0)
    values["memsys.scheduler.issue_ratio"] = ratio(
        values["core.bank.issue.calls"], values["memsys.scheduler.pick.calls"]
    )
    values["sim.cycles_per_tick"] = ratio(
        table.get("cycles", 0), values["memsys.tick.calls"]
    )
    manifest = product.manifest
    engine = manifest.get("engine", {})
    traces = manifest.get("trace", {})
    resilience = manifest.get("resilience", {})
    values.update({
        "sim.parallel.result_cache.hit_ratio": ratio(
            engine.get("disk_hits", 0),
            values["sim.parallel.result_cache.get.calls"],
        ),
        "workloads.trace_cache.hit_ratio": ratio(
            traces.get("trace_cache_hits", 0),
            traces.get("trace_cache_hits", 0)
            + traces.get("trace_cache_misses", 0),
        ),
        "sim.parallel.worker_busy_s": manifest.get("busy_s", 0.0),
        "sim.parallel.worker_utilization":
            manifest.get("worker_utilization", 0.0),
        "sim.parallel.simulations": engine.get("simulations", 0),
        "resilience.retries": resilience.get("retries", 0),
        "resilience.pool_rebuilds": resilience.get("pool_rebuilds", 0),
        "workloads.regenerated_jobs": traces.get("regenerated_jobs", 0),
    })
    return values


# -- golden recording ---------------------------------------------------------------


def record_golden(log: Callable[[str], None]) -> Path:
    """Run every workload once at its default size and seed and store its
    digests as this code version's row of ``golden.json``."""
    row: Dict[str, object] = {}
    for name in ("reproduce-cold", "sim-mcf-frfcfs", "sim-lbm-palp"):
        bench = Bench(WORKLOADS[name], None, 0.0, False, use_golden=False,
                      log=log)
        WORK.mkdir(parents=True, exist_ok=True)
        bench.work = Path(tempfile.mkdtemp(prefix="golden-", dir=WORK))
        try:
            bench.prepare()
            outcome, product = bench.iterate()
            problems = bench.check(outcome, product)
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
        if problems:
            raise SetupError(f"{name}: {problems}")
        if name == "reproduce-cold":
            row["reproduce"] = {"requests": REPRODUCE_REQUESTS,
                                "artifacts": product.digest}
        else:
            row[name] = {"seed": bench.seed, "requests": SIM_REQUESTS,
                         "table_sha256": product.digest}
        log(f"recorded {name}")
    golden = (json.loads(GOLDEN.read_text(encoding="utf-8"))
              if GOLDEN.exists() else {})
    golden[bench.code_version] = row
    GOLDEN.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n",
                      encoding="utf-8")
    return GOLDEN


# -- command line ---------------------------------------------------------------------


def render(record: dict) -> str:
    """A human-readable summary (stderr) of one result record."""
    lines = [f"{record['workload']} seed={record['seed']} "
             f"trace={record['trace']}: correct={record['correct']} "
             f"failed {record['failed']}/{record['attempted']}"]
    for problem in record["problems"]:
        lines.append(f"  problem: {problem}")
    for name, metric in record["metrics"].items():
        extra = ""
        if "n" in metric:
            extra = (f"  (n={metric['n']}, q1={metric['q1']:.6g}, "
                     f"q3={metric['q3']:.6g})")
        lines.append(f"  {name:40s} {metric['value']:>14.6g} "
                     f"{metric['unit']}{extra}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=None,
        help="trace seed for sim-* workloads (default: the profile's own, "
             "mcf 101, lbm 104); reproduce-* replays fixed profiles and "
             "ignores it",
    )
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced iteration and report the "
                             "per-layer metrics")
    parser.add_argument("--save", metavar="PATH",
                        help="also append the full record (with n, q1, q3) "
                             "to this JSON-lines file, for compare.py")
    parser.add_argument("--record-golden", action="store_true",
                        help="store this code version's output digests in "
                             "golden.json and exit")
    args = parser.parse_args(argv)

    def log(line: str) -> None:
        print(line, file=sys.stderr, flush=True)

    _become_subreaper()
    try:
        if args.record_golden:
            log(f"wrote {record_golden(log)}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        seconds = (args.seconds if args.seconds is not None
                   else load_spec()["run_seconds"])
        record = Bench(WORKLOADS[args.workload], args.seed, seconds,
                       bool(args.trace), log=log).run()
    except (SetupError, OSError) as exc:
        log(f"error: {exc}")
        return 1
    RESULTS.mkdir(parents=True, exist_ok=True)
    latest = RESULTS / f"{record['workload']}-trace{record['trace']}.json"
    latest.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.save:
        with open(args.save, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    log(render(record))
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
