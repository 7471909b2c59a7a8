"""Host-speed sampling, so timings survive a host whose speed drifts.

On shared hosts each CPU can alternate between full speed and a mode up
to ~40% slower, in phases of a few seconds, and drift over minutes, as
other tenants load the hardware.  CPU time slows with wall time, so
neither is a stable measure of the program by itself.

A sampler process pinned to each CPU the workload runs on wakes every
``PERIOD_S`` and times a fixed pure-Python loop with its own CPU clock.
The mean loop cost over an interval, divided by ``REF_BURST_NS``, is
how much slower than the reference speed that CPU ran during the
interval.  ``run.py`` divides each iteration's times by that factor.
Measured on a 2-vCPU host, this cut the iteration-to-iteration
variation of a pinned ``sim-mcf-frfcfs`` from 21% to 2%.  The samplers
take about 3% of each CPU, the same in every run.

Run as a script, this module is the sampler::

    python speed.py <cpu> <output file>

It appends ``(monotonic ns, loop CPU ns)`` int64 pairs until killed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from array import array
from pathlib import Path
from typing import Dict, List, Sequence

#: Iterations of the timed loop, ~0.2 ms at full speed.
BURST_LOOPS = 3000
PERIOD_S = 0.01
#: Loop cost that defines speed 1.0: its full-speed cost on the 2-vCPU
#: x86-64 host, CPython 3.11, where the first baseline was measured.
REF_BURST_NS = 200_000
#: An interval with fewer samples per CPU borrows the nearest ones.
MIN_SAMPLES = 3


def sample_forever(cpu: int, path: str) -> None:
    os.sched_setaffinity(0, {cpu})
    cpu_clock = time.thread_time_ns
    clock = time.monotonic_ns
    with open(path, "wb", buffering=0) as out:
        while True:
            start = cpu_clock()
            total = 0
            for i in range(BURST_LOOPS):
                total += i * i
            cost = cpu_clock() - start
            out.write(array("q", [clock(), cost]).tobytes())
            time.sleep(PERIOD_S)


class SpeedSamplers:
    """One sampler process per CPU; call :meth:`close` when done."""

    def __init__(self, cpus: Sequence[int], work: Path):
        self.cpus = list(cpus)
        self._paths = {cpu: work / f"speed-{cpu}.bin" for cpu in self.cpus}
        self._offsets = {cpu: 0 for cpu in self.cpus}
        self._samples: Dict[int, List["tuple[int, int]"]] = {
            cpu: [] for cpu in self.cpus
        }
        self._procs = [
            subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                              str(cpu), str(self._paths[cpu])])
            for cpu in self.cpus
        ]

    def close(self) -> None:
        for proc in self._procs:
            proc.kill()
        for proc in self._procs:
            proc.wait()

    def _read(self, cpu: int) -> List["tuple[int, int]"]:
        path = self._paths[cpu]
        if path.exists():
            with open(path, "rb") as handle:
                handle.seek(self._offsets[cpu])
                data = handle.read()
            data = data[: len(data) - len(data) % 16]
            self._offsets[cpu] += len(data)
            pairs = array("q")
            pairs.frombytes(data)
            self._samples[cpu].extend(zip(pairs[0::2], pairs[1::2]))
        return self._samples[cpu]

    def wait_ready(self, timeout_s: float = 10.0) -> None:
        """Block until every sampler has written a sample."""
        give_up = time.monotonic() + timeout_s
        while not all(self._read(cpu) for cpu in self.cpus):
            if time.monotonic() > give_up:
                raise RuntimeError("host-speed samplers did not start")
            time.sleep(PERIOD_S)

    def slowdown(self, start_ns: int, end_ns: int) -> float:
        """Mean loop cost over ``[start_ns, end_ns]`` on every sampled
        CPU, relative to the reference cost (1.0 = reference speed)."""
        costs: List[int] = []
        for cpu in self.cpus:
            samples = self._read(cpu)
            inside = [cost for t, cost in samples if start_ns <= t <= end_ns]
            if len(inside) < MIN_SAMPLES:
                middle = (start_ns + end_ns) // 2
                nearest = sorted(samples, key=lambda s: abs(s[0] - middle))
                inside = [cost for _, cost in nearest[:MIN_SAMPLES]]
            costs.extend(inside)
        return sum(costs) / len(costs) / REF_BURST_NS


if __name__ == "__main__":
    sample_forever(int(sys.argv[1]), sys.argv[2])
