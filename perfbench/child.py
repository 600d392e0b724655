"""Run one hsel command through ``hsel.cli.main`` in this fresh interpreter.

Usage: python3 perfbench/child.py RESULT_JSON ARG...

Imports ``hsel.cli`` (found through PYTHONPATH), times the import as set-up,
then times ``main(ARG...)``, and writes the timings, CPU time, peak RSS and
exit code to RESULT_JSON. Exits with the command's exit code.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """Peak resident memory of this interpreter since it started, in MiB.

    Reads ``VmHWM`` of the current address space: ``ru_maxrss`` would also
    count the memory of the process this one was started from."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    result_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import hsel.cli

    t1 = time.perf_counter()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    code = hsel.cli.main(argv)
    t2 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)
    doc = {
        "exit_code": code,
        "setup_s": t1 - t0,
        "wall_s": t2 - t1,
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb(),
        "blas_threads": blas_threads(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
