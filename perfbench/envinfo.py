"""Provenance recorded with every run, so runs disturbed by other tenants show."""

from __future__ import annotations

import hashlib
import os
import platform
import statistics
import subprocess
import time
from importlib import metadata
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def git_sha() -> str:
    """HEAD of the enclosing git checkout, or "unknown" outside one."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def src_sha256(src: Path) -> str:
    """Digest of every package source file, which identifies the code without git."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def calibration_ms(repeats: int = 15) -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now.

    Load average inside a container does not show other tenants of the
    host; a slow reading here does.
    """
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def _blas_name() -> str:
    try:
        import numpy
        return str(numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"])
    except (ImportError, KeyError, TypeError, ValueError):
        return "unknown"


def record(src: Path) -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_sha256(src),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": _blas_name(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_before": loadavg(),
        "calibration_ms_before": calibration_ms(),
    }
