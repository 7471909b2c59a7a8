"""Exception hierarchy for the repro package.

All errors raised by the library derive from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigError(ReproError):
    """An invalid or inconsistent configuration was supplied."""


class AddressError(ReproError):
    """An address could not be decoded or encoded with the active mapping."""


class ProtocolError(ReproError):
    """A memory command was issued that violates device timing or state.

    The simulator raises this instead of silently mis-modelling: a
    controller bug that issues, say, a column read to a closed row is a
    modelling error, not a recoverable condition.
    """


class SchedulerError(ReproError):
    """The scheduler produced an inconsistent decision (internal error)."""


class QueueFullError(ReproError):
    """An enqueue was attempted on a full transaction or write queue."""


class TraceFormatError(ReproError):
    """A trace file line could not be parsed."""


class ExperimentError(ReproError):
    """An experiment-layer request was malformed or unsatisfiable.

    Raised instead of bare ``KeyError``/``ZeroDivisionError`` when, for
    example, a sweep is asked for a metric it never measured or a
    summary over zero results.
    """


class UnknownBenchmarkError(ExperimentError, KeyError):
    """A benchmark name no workload profile defines.

    Also a :class:`KeyError`, since it is raised by a name lookup, but
    printed like any other error: without ``KeyError``'s quotes.
    """

    __str__ = Exception.__str__


class TransientJobError(ReproError):
    """A job failed for a reason that retrying can plausibly fix.

    The transient/fatal split drives the resilience layer's retry
    policy: transient failures (a killed worker, a wall-clock timeout,
    an injected chaos fault) are retried with backoff; everything else
    is deterministic — the same inputs would fail the same way — and is
    surfaced immediately instead of wasting retry budget.
    """


class WorkerCrashError(TransientJobError):
    """A pool worker process died mid-job (e.g. OOM-killed, SIGKILL)."""


class JobTimeoutError(TransientJobError):
    """A job exceeded its per-job wall-clock timeout (presumed hung)."""


class FatalJobError(ExperimentError):
    """A job failed deterministically, or exhausted its retry budget.

    Carries the last underlying error as ``__cause__``; raised by the
    experiment engine instead of retrying forever.
    """


class SimulationError(ReproError):
    """The simulation reached an impossible state (e.g. deadlock)."""
