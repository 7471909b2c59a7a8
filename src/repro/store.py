"""One content-addressed, self-verifying blob store under every disk cache.

The result cache (:class:`repro.sim.parallel.DiskResultCache`) and the
trace cache (:class:`repro.workloads.packed.TraceCache`) are codecs over
:class:`BlobStore`, which owns the bytes on disk: the
``<root>/<key[:2]>/<key><suffix>`` layout, the
``magic + sha256-hex + "\\n" + payload`` framing, durable writes
(tempfile + flush + fsync + atomic ``os.replace``, so a kill mid-write
never leaves a torn blob under a final name), verified reads, and
quarantine: a blob that fails verification is moved into
``<root>/quarantine/`` under a fresh numbered ``*.corrupt`` name, so
evidence is never overwritten or deleted.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from contextlib import suppress
from pathlib import Path
from typing import Callable, Iterator, List, Optional

#: Subdirectory corrupt blobs are moved into (never silently deleted).
QUARANTINE_DIR = "quarantine"


def frame_prefix(magic: bytes, digest: str) -> bytes:
    """The bytes preceding a payload: ``magic + digest + "\\n"``."""
    return magic + digest.encode("ascii") + b"\n"


def unframe(data, magic: bytes,
            error: type = ValueError) -> "tuple[str, int]":
    """(digest hex, payload offset) of a framed blob.

    Accepts bytes or a memoryview and copies only the frame header.
    Raises ``error`` on a foreign magic or a truncated frame; the caller
    hashes the payload span it trusts against the digest.
    """
    digest_end = len(magic) + 64
    if bytes(data[:len(magic)]) != magic:
        raise error(f"bad magic, not a {magic.strip().decode()} blob")
    if len(data) <= digest_end or bytes(
            data[digest_end:digest_end + 1]) != b"\n":
        raise error(f"truncated {magic.strip().decode()} blob")
    digest = bytes(data[len(magic):digest_end]).decode("ascii", "replace")
    return digest, digest_end + 1


class BlobStore:
    """Framed payload blobs under content-addressed hex keys.

    Codecs subclass it, set :attr:`suffix` and :attr:`magic`, and turn
    payloads into objects with :meth:`read` / :meth:`write`.  The
    constructor checks up front that ``root`` is a writable directory
    and raises ``OSError`` otherwise.
    """

    #: File-name suffix of this store's blobs (e.g. ``".pkl"``).
    suffix = ""
    #: Frame magic of this store's blobs.
    magic = b""

    def __init__(self, root: "str | os.PathLike[str]"):
        self.root = Path(root)
        #: Blobs that failed verification and were quarantined (telemetry).
        self.corrupt_blobs = 0
        #: Writes that failed with an OSError (e.g. disk full).
        self.put_errors = 0
        #: Optional ``callback(key, reason)`` fired on each quarantine.
        self.on_corrupt: Optional[Callable[[str, str], None]] = None
        #: Chaos hook: the next write raises this exception (once),
        #: letting the fault harness simulate a full disk
        #: deterministically.
        self.inject_put_error: Optional[OSError] = None
        self.root.mkdir(parents=True, exist_ok=True)
        probe_fd, probe_name = tempfile.mkstemp(dir=self.root, suffix=".probe")
        os.close(probe_fd)
        os.unlink(probe_name)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}{self.suffix}"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR

    def read(self, key: str) -> Optional[memoryview]:
        """The verified payload stored under ``key``.

        None on a miss, or after quarantining a blob whose frame or
        checksum does not verify.
        """
        try:
            data = self._path(key).read_bytes()
        except OSError:
            return None
        try:
            digest, start = unframe(data, self.magic)
        except ValueError as exc:
            self.quarantine(key, str(exc))
            return None
        payload = memoryview(data)[start:]
        if hashlib.sha256(payload).hexdigest() != digest:
            self.quarantine(key, "checksum mismatch")
            return None
        return payload

    def write(self, key: str, payload: bytes,
              digest: Optional[str] = None) -> int:
        """Durably store ``payload`` under ``key``; returns the blob size.

        ``digest`` is the payload's SHA-256 hex when the caller already
        has it.  An ``OSError`` is counted in :attr:`put_errors` and
        re-raised.
        """
        if digest is None:
            digest = hashlib.sha256(payload).hexdigest()
        prefix = frame_prefix(self.magic, digest)
        path = self._path(key)
        try:
            if self.inject_put_error is not None:
                exc, self.inject_put_error = self.inject_put_error, None
                raise exc
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(prefix)
                    handle.write(payload)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_name, path)
            except BaseException:
                with suppress(OSError):
                    os.unlink(tmp_name)
                raise
        except OSError:
            self.put_errors += 1
            raise
        return len(prefix) + len(payload)

    def quarantine(self, key: str, reason: str) -> None:
        """Move a corrupt blob aside under a fresh numbered name."""
        path = self._path(key)
        dest_dir = self.quarantine_dir
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            dest = dest_dir / f"{path.name}.corrupt"
            n = 0
            while dest.exists():
                n += 1
                dest = dest_dir / f"{path.name}.{n}.corrupt"
            os.replace(path, dest)
        except OSError:
            # Quarantine is best-effort: fall back to unlink so the
            # corrupt blob at least cannot satisfy a future read.
            with suppress(OSError):
                path.unlink()
        self.corrupt_blobs += 1
        if self.on_corrupt is not None:
            self.on_corrupt(key, reason)

    def _blobs(self) -> Iterator[Path]:
        # Quarantined names end in ".corrupt", so they never match.
        return self.root.glob(f"*/*{self.suffix}")

    def keys(self) -> List[str]:
        return sorted(p.stem for p in self._blobs())

    def __len__(self) -> int:
        return sum(1 for _ in self._blobs())

    def purge(self) -> int:
        """Delete every stored blob (quarantine untouched); returns count."""
        removed = 0
        for path in list(self._blobs()):
            path.unlink()
            removed += 1
        return removed
