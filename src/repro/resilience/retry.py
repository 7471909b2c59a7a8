"""Retry policy: exponential backoff with deterministic jitter.

The resilience layer retries only failures that retrying can fix (see
:func:`is_transient`); backoff delays grow exponentially and are
jittered so a batch of simultaneously-failed jobs does not retry in
lockstep.  The jitter is *seeded* — the same policy produces the same
delays — keeping chaos runs reproducible end to end.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..errors import ExperimentError, TransientJobError

#: Exception types retrying can plausibly fix, besides a broken process
#: pool.  Everything else is deterministic — the identical inputs would
#: fail identically — and is surfaced immediately as fatal.
_TRANSIENT_TYPES = (
    TransientJobError,
    TimeoutError,
    ConnectionError,
    InterruptedError,
)


def is_transient(exc: BaseException) -> bool:
    """True when a job failure is worth retrying."""
    # Imported here, so a run in which nothing fails never loads the
    # pool modules.
    from concurrent.futures.process import BrokenProcessPool

    return isinstance(exc, (BrokenProcessPool,) + _TRANSIENT_TYPES)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry a transient failure, and how patiently.

    ``delay(attempt)`` for attempt 1, 2, 3... is
    ``base_delay_s * 2**(attempt-1)`` capped at ``max_delay_s``, then
    scaled by a seeded jitter factor in ``[1 - jitter, 1 + jitter]``.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    max_delay_s: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ExperimentError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter < 1.0:
            raise ExperimentError(
                f"jitter must be in [0, 1), got {self.jitter}"
            )

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1-based), seconds."""
        if attempt < 1:
            raise ExperimentError(f"attempt must be >= 1, got {attempt}")
        raw = min(self.max_delay_s,
                  self.base_delay_s * (2.0 ** (attempt - 1)))
        if not self.jitter or raw <= 0.0:
            return raw
        rng = random.Random(f"{self.seed}:{attempt}")
        return raw * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


#: Retry policy used when none is supplied: three attempts, snappy
#: backoff — sized for simulation jobs that cost tens of milliseconds
#: to tens of seconds.
DEFAULT_RETRY_POLICY = RetryPolicy()
