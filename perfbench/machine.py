"""Machine block of the benchmark output: what shaped the numbers and bytes."""

import ctypes
import glob
import os
import platform
import subprocess
import sys

import numpy as np

_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def _openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, or None
    when no OpenBLAS library with a known getter is found."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown (git failed)"
    return out.stdout.strip()


def machine_block(root, blas_threads_pinned, load_at_start):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas_name": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads_pinned": blas_threads_pinned,
        "blas_threads_reported": _openblas_threads(),
        "git_commit": _git_commit(root),
        "load_average_at_start": list(load_at_start),
    }
