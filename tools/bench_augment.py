"""Per-call timings of the batch augmentation kernels and the block shuffle.

Times ``net_augment_batch`` and ``flip_augment_batch`` (one shared stream)
at the criterion-7 shape (128 rows x 500 cells) and at the CLI's shape
(128 rows x 5,000 cells), and ``RandomSource.shuffle`` of one criterion-7
pre-training epoch's order (2,000 indices). The rows are superior-profile
visits from ``synth``, as the experiments use. Each figure is the median
of ``--repeats`` timed calls after one untimed call; at each shape the two
kernels' timed calls alternate, net then flip, so that neither runs only
after the other's allocations.

Each invocation appends its figures to the runs of ``--label`` in a JSON
file, as ``tools/benchfile.py`` describes; on a noisy machine, alternate a
few invocations of each checkout. The package is imported from this
checkout's ``src``, or from another checkout's with ``--src``:

    python tools/bench_augment.py --src ../parent/src --label parent
    python tools/bench_augment.py --label change

``--rows`` and ``--repeats`` shrink the run for a quick check that the
script still works.
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchfile  # noqa: E402

SHAPES = {"c7": 500, "cli": 5000}
SHUFFLE_LEN = 2000
SEED = 41  # corpus and stream seed


def _median_ms(calls: dict, repeats: int) -> dict:
    """The median ms of each of ``calls`` over ``repeats`` rounds of one
    timed call each, in turn, after one untimed call each."""
    times = {name: [] for name in calls}
    for call in calls.values():
        call()
    for _ in range(repeats):
        for name, call in calls.items():
            start = time.perf_counter()
            call()
            times[name].append(time.perf_counter() - start)
    return {name: round(statistics.median(t) * 1e3, 4) for name, t in times.items()}


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
        result.update(_median_ms({
            f"net_ms_{shape}": lambda: net_augment_batch(cells, cfg, dist, stream),
            f"flip_ms_{shape}": lambda: flip_augment_batch(cells, cfg.p_flip, stream),
        }, repeats))
    order = list(range(SHUFFLE_LEN))
    result.update(_median_ms({f"shuffle_ms_{SHUFFLE_LEN}": lambda: stream.shuffle(order)}, repeats))
    return result


def main(argv=None) -> int:
    ap = benchfile.parser(__doc__.split("\n\n")[0], "BENCH_augment.json")
    ap.add_argument("--rows", type=int, default=128, help="rows per call")
    ap.add_argument("--repeats", type=int, default=51, help="timed calls per figure")
    args = ap.parse_args(argv)
    if args.rows < 1 or args.repeats < 1:
        ap.error("--rows and --repeats must be >= 1")
    setup = {
        "rows": args.rows,
        "cells": SHAPES,
        "repeats": args.repeats,
        "seed": SEED,
        "statistic": "median ms per call after one warm-up call, net and flip calls alternating",
    }
    benchfile.record(ap, args, setup, lambda: measure(args.rows, args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
