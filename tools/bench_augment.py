"""Per-call timings of the batch augmentation kernels and the block shuffle.

Times ``net_augment_batch`` and ``flip_augment_batch`` (one shared stream)
at the criterion-7 shape (128 rows x 500 cells) and at the CLI's shape
(128 rows x 5,000 cells), and ``RandomSource.shuffle`` of one criterion-7
pre-training epoch's order (2,000 indices). The rows are superior-profile
visits from ``synth``, as the experiments use. Each figure is the median
of ``--repeats`` timed calls after one untimed call.

Each invocation appends its figures to the runs of ``--label`` in a JSON
file, and ``median`` holds, per label, the median of its runs. Other
labels are kept, so two checkouts can be compared side by side; on a
noisy machine, alternate a few invocations of each. A file holds runs of
one setup: an invocation whose rows, repeats, versions or machine differ
from the file's is refused. The package is imported from this checkout's
``src``, or from another checkout's with ``--src``:

    python tools/bench_augment.py --src ../parent/src --label parent
    python tools/bench_augment.py --label change

``--rows`` and ``--repeats`` shrink the run for a quick check that the
script still works.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
SHAPES = {"c7": 500, "cli": 5000}
SHUFFLE_LEN = 2000
SEED = 41  # corpus and stream seed


def _median_ms(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return round(statistics.median(times) * 1e3, 4)


def measure(rows: int, repeats: int) -> dict:
    from traceaug import distributions, synth, traces
    from traceaug.augment import AugmentConfig, flip_augment_batch, net_augment_batch
    from traceaug.rng import RandomSource

    rng = RandomSource(SEED)
    templates = synth.make_templates(20, rng.spawn(0))
    visits = synth.make_dataset(
        templates, [synth.SUPERIOR_PROFILE], -(-rows // len(templates)), rng.spawn(1)
    )[:rows]
    cfg = AugmentConfig()
    result = {}
    for shape, length in SHAPES.items():
        corpus = [traces.to_direction_trace(t, length) for t in visits]
        dist = distributions.build_distribution(corpus)
        cells = np.stack([t.cells for t in corpus])
        stream = RandomSource(SEED + 1)
        result[f"net_ms_{shape}"] = _median_ms(
            lambda: net_augment_batch(cells, cfg, dist, stream), repeats
        )
        result[f"flip_ms_{shape}"] = _median_ms(
            lambda: flip_augment_batch(cells, cfg.p_flip, stream), repeats
        )
    order = list(range(SHUFFLE_LEN))
    result[f"shuffle_ms_{SHUFFLE_LEN}"] = _median_ms(lambda: stream.shuffle(order), repeats)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", default="change", help="key to store the timings under")
    ap.add_argument("--out", default="BENCH_augment.json", help="JSON file to update")
    ap.add_argument("--src", default=str(SRC), help="directory to import traceaug from")
    ap.add_argument("--rows", type=int, default=128, help="rows per call")
    ap.add_argument("--repeats", type=int, default=51, help="timed calls per figure")
    args = ap.parse_args(argv)
    if args.rows < 1 or args.repeats < 1:
        ap.error("--rows and --repeats must be >= 1")
    sys.path.insert(0, str(Path(args.src).resolve()))
    setup = {
        "rows": args.rows,
        "cells": SHAPES,
        "repeats": args.repeats,
        "seed": SEED,
        "statistic": "median ms per call after one warm-up call",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus",
    }
    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {}
    if doc.get("setup", setup) != setup:
        ap.error(f"{out} holds runs of another setup ({doc['setup']}); use another --out")
    doc["setup"] = setup
    timings = measure(args.rows, args.repeats)
    runs = doc.setdefault("runs", {}).setdefault(args.label, [])
    runs.append(timings)
    doc.setdefault("median", {})[args.label] = {
        key: statistics.median(run[key] for run in runs) for key in timings
    }
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps({args.label: timings}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
