"""Deterministic chaos: seeded fault plans for the experiment engine.

A :class:`FaultPlan` is a value — a seed plus a tuple of
:class:`FaultSpec` entries — that tells the experiment engine to break
specific jobs of a batch in specific ways.  Because the plan is data
(JSON-serializable, picklable), the same chaos run reproduces exactly:
in a unit test, in ``repro chaos`` on a laptop, and in CI.

Fault kinds:

* **worker faults** — applied inside the job execution path:
  ``crash`` (worker process dies via ``os._exit``), ``hang`` (worker
  sleeps past the engine's job timeout), ``transient`` (raises
  :class:`~repro.errors.TransientJobError`),
* **cache faults** — applied to the persistence path after the job
  succeeds: ``corrupt`` (payload bytes flipped), ``torn`` (blob
  truncated mid-write), ``disk_full`` (the write raises ``ENOSPC``),
* **supervisor faults** — ``interrupt`` raises ``KeyboardInterrupt``
  in the supervisor right after the job checkpoints, simulating a
  Ctrl-C mid-sweep for resume tests.

A worker fault fires while ``attempt < spec.attempts`` (default: first
attempt only), so a retried job deterministically succeeds — the plan
models *recoverable* chaos unless told otherwise.
"""

from __future__ import annotations

import errno
import json
import os
import random
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Tuple

from ..errors import ExperimentError, TransientJobError, WorkerCrashError

#: Fault kind identifiers.
CRASH = "crash"
HANG = "hang"
TRANSIENT = "transient"
CORRUPT = "corrupt"
TORN = "torn"
DISK_FULL = "disk_full"
INTERRUPT = "interrupt"

WORKER_FAULTS = (CRASH, HANG, TRANSIENT)
CACHE_FAULTS = (CORRUPT, TORN, DISK_FULL)
FAULT_KINDS = WORKER_FAULTS + CACHE_FAULTS + (INTERRUPT,)

#: Exit code a crash-injected worker dies with (visible in core dumps /
#: CI logs as "this was chaos, not a real bug").
CRASH_EXIT_CODE = 81


@dataclass(frozen=True)
class FaultSpec:
    """One injected fault, bound to a job index within a batch."""

    kind: str
    job_index: int
    #: Worker faults fire while ``attempt < attempts`` (1 = first try
    #: only, so the retry succeeds deterministically).
    attempts: int = 1
    #: Hang duration; must exceed the engine's job timeout to register.
    seconds: float = 30.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ExperimentError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(FAULT_KINDS)}"
            )
        if self.job_index < 0:
            raise ExperimentError(
                f"fault job_index must be >= 0, got {self.job_index}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, serializable schedule of faults for one batch."""

    seed: int = 0
    faults: Tuple[FaultSpec, ...] = ()

    @classmethod
    def seeded(
        cls,
        seed: int,
        n_jobs: int,
        crashes: int = 0,
        hangs: int = 0,
        transients: int = 0,
        corrupt: int = 0,
        torn: int = 0,
        disk_full: int = 0,
        hang_seconds: float = 30.0,
    ) -> "FaultPlan":
        """Assign faults to distinct job indices, deterministically.

        The same (seed, n_jobs, counts) always yields the identical
        plan; distinct indices keep each injected failure independently
        diagnosable.
        """
        requested = crashes + hangs + transients + corrupt + torn + disk_full
        if requested > n_jobs:
            raise ExperimentError(
                f"cannot place {requested} faults on {n_jobs} jobs; "
                "each fault needs its own job index"
            )
        rng = random.Random(seed)
        indices = list(range(n_jobs))
        rng.shuffle(indices)
        faults = []
        for kind, count in (
            (CRASH, crashes), (HANG, hangs), (TRANSIENT, transients),
            (CORRUPT, corrupt), (TORN, torn), (DISK_FULL, disk_full),
        ):
            for _ in range(count):
                faults.append(FaultSpec(
                    kind=kind, job_index=indices.pop(),
                    seconds=hang_seconds,
                ))
        faults.sort(key=lambda spec: (spec.job_index, spec.kind))
        return cls(seed=seed, faults=tuple(faults))

    def worker_fault(self, job_index: int,
                     attempt: int) -> Optional[FaultSpec]:
        """The worker fault to apply to this (job, attempt), if any."""
        for spec in self.faults:
            if (spec.kind in WORKER_FAULTS
                    and spec.job_index == job_index
                    and attempt < spec.attempts):
                return spec
        return None

    def cache_fault(self, job_index: int) -> Optional[FaultSpec]:
        """The persistence fault bound to this job, if any."""
        for spec in self.faults:
            if spec.kind in CACHE_FAULTS and spec.job_index == job_index:
                return spec
        return None

    def interrupt_after(self, job_index: int) -> bool:
        """True when the plan interrupts the run after this job."""
        return any(spec.kind == INTERRUPT and spec.job_index == job_index
                   for spec in self.faults)

    def describe(self) -> str:
        if not self.faults:
            return f"fault plan (seed {self.seed}): no faults"
        lines = [f"fault plan (seed {self.seed}), {len(self.faults)} "
                 "fault(s):"]
        for spec in self.faults:
            detail = ""
            if spec.kind == HANG:
                detail = f" for {spec.seconds:g}s"
            lines.append(f"  job {spec.job_index:3d}: {spec.kind}{detail}")
        return "\n".join(lines)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed,
             "faults": [asdict(spec) for spec in self.faults]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
            return cls(
                seed=int(data.get("seed", 0)),
                faults=tuple(FaultSpec(**spec)
                             for spec in data.get("faults", ())),
            )
        except (json.JSONDecodeError, TypeError, KeyError) as exc:
            raise ExperimentError(f"malformed fault plan: {exc}") from exc


# -- fault application ------------------------------------------------------


def apply_worker_fault(spec: FaultSpec, in_process: bool = False) -> None:
    """Apply a worker fault at the top of job execution.

    ``in_process`` marks the engine's serial path, where a real crash
    would take the supervisor (and the user's session) down with it —
    there, crashes soften to :class:`~repro.errors.WorkerCrashError`
    and hangs to a capped sleep, keeping the observable retry behaviour
    without self-destruction.
    """
    if spec.kind == CRASH:
        if in_process:
            raise WorkerCrashError(
                f"injected crash at job {spec.job_index} (serial mode)"
            )
        os._exit(CRASH_EXIT_CODE)
    elif spec.kind == HANG:
        time.sleep(min(spec.seconds, 1.0) if in_process else spec.seconds)
    elif spec.kind == TRANSIENT:
        raise TransientJobError(
            f"injected transient fault at job {spec.job_index}"
        )


def disk_full_error(spec: FaultSpec) -> OSError:
    """The ``ENOSPC`` a disk-full fault makes the cache write raise."""
    return OSError(
        errno.ENOSPC,
        f"injected disk-full fault at job {spec.job_index}",
    )


def mangle_blob(path: "str | os.PathLike[str]", kind: str) -> None:
    """Corrupt a cache blob in place (the torn/corrupt cache faults).

    ``torn`` truncates to half length — what a kill mid-write would
    leave without atomic rename; ``corrupt`` flips payload bytes — what
    bit rot or a bad disk would leave with the length intact.
    """
    path = Path(path)
    data = bytearray(path.read_bytes())
    if kind == TORN:
        path.write_bytes(bytes(data[: max(1, len(data) // 2)]))
    elif kind == CORRUPT:
        start = max(0, len(data) - 32)
        for index in range(start, len(data)):
            data[index] ^= 0xFF
        path.write_bytes(bytes(data))
    else:
        raise ExperimentError(f"mangle_blob cannot apply {kind!r}")
