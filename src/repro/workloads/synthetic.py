"""Synthetic micro-kernels: raw access streams with known structure.

These kernels exercise specific memory behaviours in isolation — useful
for unit/It tests, for the quickstart example, and for ablations where a
controlled pattern is clearer than a SPEC-like profile:

* :func:`stream_kernel` — one sequential read stream (best case for
  row-buffer locality; worst case for Multi-Activation).
* :func:`copy_kernel` — paired read + write streams (STREAM-copy-like;
  exercises Backgrounded Writes).
* :func:`random_kernel` — uniform random lines (no locality; every
  access a row miss).
* :func:`pointer_chase_kernel` — one dependent chain (zero MLP; pure
  latency sensitivity).
* :func:`strided_kernel` — fixed-stride walk (tunable row reuse).
* :func:`multi_stream_kernel` — N interleaved sequential streams
  (tunable bank/SAG parallelism; the Multi-Activation showcase).

All kernels are deterministic given their seed and return a
:class:`~repro.workloads.packed.PackedTrace`.
"""

from __future__ import annotations

import random

from .packed import OP_READ, OP_WRITE, PackedTrace

LINE = 64


def stream_kernel(count: int, gap: int = 20, start: int = 0) -> PackedTrace:
    """Sequential reads, one per ``gap`` instructions."""
    return PackedTrace.from_rows(
        (gap, OP_READ, start + i * LINE) for i in range(count)
    )


def copy_kernel(count: int, gap: int = 20, src: int = 0,
                dst: int = 1 << 28) -> PackedTrace:
    """Alternating read-from-src / write-to-dst, STREAM-copy style."""
    rows = []
    for i in range(count // 2):
        rows.append((gap, OP_READ, src + i * LINE))
        rows.append((0, OP_WRITE, dst + i * LINE))
    return PackedTrace.from_rows(rows)


def random_kernel(count: int, footprint_bytes: int = 1 << 30,
                  gap: int = 20, write_fraction: float = 0.0,
                  seed: int = 7) -> PackedTrace:
    """Uniform random cache lines over ``footprint_bytes``."""
    rng = random.Random(seed)
    lines = footprint_bytes // LINE
    rows = []
    for _ in range(count):
        op = OP_WRITE if rng.random() < write_fraction else OP_READ
        rows.append((gap, op, rng.randrange(lines) * LINE))
    return PackedTrace.from_rows(rows)


def pointer_chase_kernel(count: int, footprint_bytes: int = 1 << 28,
                         gap: int = 50, seed: int = 11) -> PackedTrace:
    """A single dependent chain of random hops (zero MLP).

    The replay CPU cannot distinguish dependence explicitly, but a chase
    with high gaps and one stream reproduces its serialised behaviour.
    """
    rng = random.Random(seed)
    lines = footprint_bytes // LINE
    rng.randrange(lines)  # the start draw; kept so seeded streams stay put
    return PackedTrace.from_rows(
        (gap, OP_READ, rng.randrange(lines) * LINE) for _ in range(count)
    )


def strided_kernel(count: int, stride_lines: int, gap: int = 20,
                   start: int = 0) -> PackedTrace:
    """Fixed-stride reads; stride >= lines-per-row defeats row reuse."""
    if stride_lines < 1:
        raise ValueError("stride must be >= 1 line")
    return PackedTrace.from_rows(
        (gap, OP_READ, start + i * stride_lines * LINE)
        for i in range(count)
    )


def multi_stream_kernel(count: int, streams: int, gap: int = 20,
                        stream_spacing_bytes: int = 1 << 24,
                        write_fraction: float = 0.0,
                        seed: int = 13) -> PackedTrace:
    """N interleaved sequential streams starting far apart.

    With spacing chosen to land streams in different SAGs/banks, this is
    the canonical Multi-Activation workload: every stream keeps its own
    row open.
    """
    if streams < 1:
        raise ValueError("needs at least one stream")
    rng = random.Random(seed)
    positions = [i * stream_spacing_bytes for i in range(streams)]
    rows = []
    for i in range(count):
        index = i % streams
        op = OP_WRITE if rng.random() < write_fraction else OP_READ
        rows.append((gap, op, positions[index]))
        positions[index] += LINE
    return PackedTrace.from_rows(rows)
