"""Run ``repro.cli.main(argv)`` as ``python -m repro`` would, with stamps.

``run.py`` starts one of these per iteration, with ``PYTHONPATH=src``.
The driver imports ``repro.cli`` first and then reads the monotonic
clock, which is system-wide on Linux, so the harness can split the
iteration's wall time into set-up (spawn to import returned) and the
command itself.  Environment:

* ``E2E_STAMPS`` -- file that receives ``<import done ns> <main done ns>
  <peak RSS KiB>``,
* ``E2E_LAYERS`` + ``E2E_SPANS`` -- trace the named stack (``sim`` or
  ``engine``, see ``spans.py``) and dump the spans to ``<E2E_SPANS>.bin``
  and ``.json``.
"""

import os
import sys
import time

import repro.cli

ready_ns = time.monotonic_ns()


def main() -> int:
    recorder = None
    header = {}
    stack = os.environ.get("E2E_LAYERS")
    if stack:
        import spans

        recorder = spans.SpanRecorder()
        header["wrapped"] = recorder.install(stack)
    try:
        code = repro.cli.main(sys.argv[1:])
    finally:
        done_ns = time.monotonic_ns()
        stamps = os.environ.get("E2E_STAMPS")
        if stamps:
            with open(stamps, "w", encoding="utf-8") as handle:
                handle.write(f"{ready_ns} {done_ns} {peak_rss_kb()}\n")
        if recorder is not None:
            recorder.dump(os.environ["E2E_SPANS"], header)
    return code


def peak_rss_kb() -> int:
    """Peak resident set of this process and its reaped children, in KiB.

    Not ``ru_maxrss`` of this process: exec keeps the spawning process's
    high-water mark there, so it would report the harness.  ``VmHWM``
    belongs to the address space exec created.  Forked pool workers start
    with a fresh mark, so their ``RUSAGE_CHILDREN`` maximum is their own.
    """
    import resource

    with open("/proc/self/status", encoding="ascii") as status:
        hwm = next(int(line.split()[1]) for line in status
                   if line.startswith("VmHWM:"))
    return max(hwm, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


if __name__ == "__main__":
    sys.exit(main())
