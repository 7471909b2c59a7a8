"""Append-only sweep journal: the checkpoint log behind ``--resume``.

One JSONL line per completed-and-persisted job::

    {"key": "<sha256 job key>", "digest": "<sha256 blob payload>",
     "config": "fgnvm-8x2", "benchmark": "mcf", "requests": 2500,
     "seed": null, "batch": "sweep:org.column_divisions",
     "code": "fgnvm-sim-1"}

Entries are flushed and fsynced as they are written, so the journal is
crash-consistent to the last completed job: a partial (torn) trailing
line — the signature of a kill mid-append — is tolerated on read and
simply ignored.  Resume verifies each journaled digest against the
disk cache (:meth:`~repro.sim.parallel.DiskResultCache.verify`), which
quarantines any blob that rotted since the checkpoint, guaranteeing an
interrupted sweep resumes with zero re-simulation of *intact* work and
honest recomputation of anything else.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # the engine imports this module: no runtime cycle
    from ..sim.parallel import DiskResultCache, ExperimentJob

#: Journal file name, placed beside the disk cache it checkpoints.
JOURNAL_NAME = "sweep-journal.jsonl"

#: Schema tag carried by every entry (journals are multi-run, so the
#: tag is per-line rather than a file header).
JOURNAL_SCHEMA = "repro-sweep-journal-v1"


class SweepJournal:
    """Append-only record of completed (job key, result digest) pairs."""

    def __init__(self, path: "str | os.PathLike[str]",
                 code_version: Optional[str] = None):
        if code_version is None:
            from ..sim.parallel import CODE_VERSION

            code_version = CODE_VERSION
        self.path = Path(path)
        self.code_version = code_version
        #: Unparsable lines skipped during the last read (telemetry;
        #: 1 after a kill mid-append is expected, more suggests rot).
        self.skipped_lines = 0

    def record(
        self,
        key: str,
        digest: str,
        job: Optional[ExperimentJob] = None,
        batch: str = "",
    ) -> None:
        """Append one completed job; durable before return."""
        entry = {
            "schema": JOURNAL_SCHEMA,
            "key": key,
            "digest": digest,
            "code": self.code_version,
            "batch": batch,
        }
        if job is not None:
            entry.update(
                config=job.config.name,
                benchmark=job.benchmark,
                requests=job.requests,
                seed=job.seed,
            )
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def entries(self) -> List[Dict[str, object]]:
        """Every parsable entry, oldest first (torn lines skipped)."""
        self.skipped_lines = 0
        entries: List[Dict[str, object]] = []
        try:
            lines = self.path.read_text(encoding="utf-8").splitlines()
        except FileNotFoundError:
            return entries
        for line in lines:
            if not line.strip():
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                self.skipped_lines += 1
                continue
            if not isinstance(entry, dict) or "key" not in entry:
                self.skipped_lines += 1
                continue
            entries.append(entry)
        return entries

    def completed(self) -> Dict[str, str]:
        """{job key: result digest} for this journal's code version.

        Later entries win, so a job re-simulated under the same code
        version (e.g. after its blob was quarantined) supersedes its
        older checkpoint.
        """
        done: Dict[str, str] = {}
        for entry in self.entries():
            if entry.get("code") != self.code_version:
                continue
            digest = entry.get("digest")
            if isinstance(digest, str):
                done[str(entry["key"])] = digest
        return done

    def verified_keys(self, disk: DiskResultCache) -> "set[str]":
        """Journaled keys whose cached blobs still match their digests.

        Mismatching blobs are quarantined by ``disk.verify`` as a side
        effect, so a resumed run recomputes them instead of trusting
        rot.
        """
        return {
            key for key, digest in self.completed().items()
            if disk.verify(key, digest)
        }

    def __len__(self) -> int:
        return len(self.entries())
