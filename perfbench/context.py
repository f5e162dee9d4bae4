"""Steadiness context recorded with every run (never used to drop or
rescale one): machine, OpenBLAS threads, steal time, load average, the
serving process's CPU share and a fixed pure-Python calibration loop."""

from __future__ import annotations

import ctypes
import os
import time

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
CALIBRATION_ITERATIONS = 2_000_000


def machine() -> str:
    try:
        from benchmarks._reporting import machine_context
    except ImportError:
        return "unavailable"
    return machine_context()


def openblas_threads() -> int | None:
    """Threads the numpy-bundled OpenBLAS of this process will use."""
    import numpy  # noqa: F401  (loads the BLAS library)

    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps
                        if "openblas" in line.lower()})
    for path in paths:
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def calibration_seconds() -> float:
    """Time of a fixed pure-Python loop: how fast the machine runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    elapsed = time.perf_counter() - start
    if total < 0:  # keeps the loop's result live
        raise AssertionError
    return elapsed


def _cpu_line() -> list[int]:
    with open("/proc/stat") as stat:
        return [int(v) for v in stat.readline().split()[1:]]


def process_cpu_seconds(pid: int) -> float:
    """user + system CPU seconds of one process (all its threads)."""
    with open(f"/proc/{pid}/stat") as stat:
        fields = stat.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (high-water resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


class Window:
    """Host-wide steal time and load average across a timed window."""

    def __init__(self) -> None:
        self._cpu = _cpu_line()
        self._load = os.getloadavg()[0]

    def close(self) -> dict:
        after = _cpu_line()
        deltas = [b - a for a, b in zip(self._cpu, after)]
        total = sum(deltas[:8]) or 1
        return {
            "steal_share": deltas[7] / total if len(deltas) > 7 else 0.0,
            "loadavg_1m_start": self._load,
            "loadavg_1m_end": os.getloadavg()[0],
        }
