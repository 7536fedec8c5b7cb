"""Run bookkeeping shared by the ``tools/bench_*.py`` timing scripts.

Each script measures a dictionary of figures and hands it to ``record``,
which appends it to the runs of ``--label`` in a JSON file and stores, per
label, the median of each figure over that label's runs that hold it (a
figure added to a script is missing from its older runs). Other labels are
kept, so two checkouts can be compared side by side. A file holds runs of
one setup: an invocation whose setup (sizes, repeats, versions, machine)
differs from the file's is refused before anything is measured.
"""

import argparse
import json
import os
import platform
import statistics
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"


def parser(description: str, out: str) -> argparse.ArgumentParser:
    """An argument parser with the shared ``--label``, ``--out`` and ``--src``."""
    ap = argparse.ArgumentParser(description=description)
    ap.add_argument("--label", default="change", help="key to store the timings under")
    ap.add_argument("--out", default=out, help="JSON file to update")
    ap.add_argument("--src", default=str(SRC), help="directory to import traceaug from")
    return ap


def record(ap: argparse.ArgumentParser, args, setup: dict, measure) -> dict:
    """Check the file's setup, import traceaug from ``args.src``, run
    ``measure()`` and append its figures to the file; returns them."""
    setup = {
        **setup,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    if doc.get("setup", setup) != setup:
        ap.error(f"{out} holds runs of another setup ({doc['setup']}); use another --out")
    doc["setup"] = setup
    sys.path.insert(0, str(Path(args.src).resolve()))
    timings = measure()
    runs = doc.setdefault("runs", {}).setdefault(args.label, [])
    runs.append(timings)
    figures = dict.fromkeys(key for run in runs for key in run)
    doc.setdefault("median", {})[args.label] = {
        key: statistics.median(run[key] for run in runs if key in run) for key in figures
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({args.label: timings}, indent=2))
    return timings
