"""Run manifests: a JSON record of what a command did, written atomically.

The manifest captures the resolved configuration, the seed, and content
hashes of every input and output file, so re-running a command with the
same inputs can be verified byte for byte by comparing output hashes. It
also records the environment that shapes those bytes: the package, Python
and numpy versions, the BLAS numpy was built against, and the BLAS
thread-count variables, since trained weights differ between BLAS thread
counts.
"""

import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__

#: Environment variables that set the BLAS thread count.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def content_hash(path) -> str:
    """sha256 hex digest of a file's bytes."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def environment() -> dict:
    """Package, Python and numpy versions, numpy's BLAS as "name version"
    (None before numpy 1.26), and the BLAS thread variables (None if unset)."""
    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas")
    env = {
        "traceaug": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}" if blas else None,
    }
    env.update({var: os.environ.get(var) for var in BLAS_THREAD_VARS})
    return env


def write_manifest(
    path,
    command: str,
    config: dict,
    seed: int | None,
    inputs: list,
    outputs: list,
    started: float,
) -> dict:
    """Hash inputs/outputs and atomically write the manifest JSON."""
    record = {
        "command": command,
        "config": config,
        "seed": seed,
        "inputs": {str(p): content_hash(p) for p in inputs},
        "outputs": {str(p): content_hash(p) for p in outputs},
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "elapsed_s": round(time.time() - started, 3),
        "environment": environment(),
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return record
