#!/usr/bin/env python3
"""Trace tooling: generate, cache-filter, export and replay traces.

Shows the full workload pipeline a user would run with their own
address streams:

1. generate a raw access stream (a synthetic kernel),
2. filter it through the 2 MiB last-level cache model to get the
   memory-level miss + writeback stream,
3. write it to disk in both the native and NVMain trace formats,
4. read it back and simulate it on FgNVM.

Run:  python examples/trace_tools.py [output-dir]
"""

import sys
import tempfile
from pathlib import Path

from repro import config, sim
from repro.cpu import LastLevelCache
from repro.workloads import (
    random_kernel,
    read_trace,
    trace_mpki,
    write_nvmain_trace,
    write_trace,
)


def main() -> None:
    out_dir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(
        tempfile.mkdtemp(prefix="repro-traces-")
    )
    out_dir.mkdir(parents=True, exist_ok=True)

    print("generating raw access stream (uniform 64 MiB, 15% stores)...")
    raw = random_kernel(
        30_000, footprint_bytes=64 << 20, gap=30,
        write_fraction=0.15, seed=20,
    )

    print("filtering through a 2 MiB, 16-way LLC ...")
    cache = LastLevelCache(size_bytes=2 << 20, ways=16)
    filtered = cache.filter_trace(raw)
    print(
        f"  {cache.stats.accesses} accesses -> {cache.stats.misses} "
        f"misses + {cache.stats.writebacks} writebacks "
        f"(miss rate {cache.stats.miss_rate:.1%}, "
        f"memory-level MPKI {trace_mpki(filtered):.1f})"
    )

    native = out_dir / "filtered.trace"
    nvmain = out_dir / "filtered.nvmain"
    write_trace(filtered, native)
    write_nvmain_trace(filtered, nvmain)
    print(f"wrote {native} and {nvmain}")

    print("replaying the on-disk trace on FgNVM 8x2 ...")
    reloaded = read_trace(native)
    result = sim.simulate(config.fgnvm(8, 2), reloaded)
    summary = result.summary()
    print()
    print(sim.dict_table({
        "requests": summary["reads"] + summary["writes"],
        "ipc": summary["ipc"],
        "row hit rate": summary["row_hit_rate"],
        "avg read latency (cy)": summary["avg_read_latency_cycles"],
        "energy (uJ)": summary["energy_total_pj"] / 1e6,
    }))


if __name__ == "__main__":
    main()
