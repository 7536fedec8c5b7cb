"""Timings of the trace-data layer: synthetic corpora and .dtrace files.

Times ``synth.make_dataset`` at the criterion-7 corpus size (135 superior
and 30 inferior visits per class, as ``perfbench``'s ``c7-seed`` set-up
builds) and at the CLI benchmark's (27 and 6 visits per class, as the
``cli-5000`` chain's ``gen``), in microseconds per visit. Then it times
``save_dtrace`` and ``load_dtrace`` of that CLI corpus's superior traces at
5,000 cells (540 rows at 20 classes, as ``ncm-split`` writes them and
``pretrain`` reads them), in nanoseconds per cell. Each figure is the
median of ``--repeats`` timed calls after one untimed call.

Each invocation appends its figures to the runs of ``--label`` in a JSON
file, as ``tools/benchfile.py`` describes; on a noisy machine, alternate a
few invocations of each checkout. The package is imported from this
checkout's ``src``, or from another checkout's with ``--src``:

    python tools/bench_tracedata.py --src ../parent/src --label parent
    python tools/bench_tracedata.py --label change

``--classes`` and ``--repeats`` shrink the run for a quick check that the
script still works.
"""

import statistics
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchfile  # noqa: E402

#: superior and inferior visits per class of each corpus
VISITS = {"c7": [135, 30], "cli": [27, 6]}
TRACE_LEN = 5000
NCM_THRESHOLD = 40000.0
SEED = 41  # template and stream seed


def _median_s(call, repeats: int) -> float:
    call()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def measure(classes: int, repeats: int) -> dict:
    from traceaug import synth, traces
    from traceaug.rng import RandomSource

    templates = synth.make_templates(classes, RandomSource(SEED).spawn(0))
    profiles = [synth.SUPERIOR_PROFILE, synth.INFERIOR_PROFILE]

    def corpus(size):
        return synth.make_dataset(templates, profiles, VISITS[size],
                                  RandomSource(SEED).spawn(1))

    result = {}
    for size, visits in VISITS.items():
        seconds = _median_s(lambda: corpus(size), repeats)
        result[f"make_dataset_us_per_visit_{size}"] = round(
            seconds / (classes * sum(visits)) * 1e6, 3
        )
    superior, _ = traces.partition_by_ncm(corpus("cli"), NCM_THRESHOLD)
    rows = [traces.to_direction_trace(t, TRACE_LEN) for t in superior]
    cells = len(rows) * TRACE_LEN
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "superior.dtrace"
        save_s = _median_s(lambda: traces.save_dtrace(path, rows), repeats)
        load_s = _median_s(lambda: traces.load_dtrace(path, TRACE_LEN), repeats)
    result["save_dtrace_ns_per_cell"] = round(save_s / cells * 1e9, 3)
    result["load_dtrace_ns_per_cell"] = round(load_s / cells * 1e9, 3)
    return result


def main(argv=None) -> int:
    ap = benchfile.parser(__doc__.split("\n\n")[0], "BENCH_tracedata.json")
    ap.add_argument("--classes", type=int, default=20, help="site classes per corpus")
    ap.add_argument("--repeats", type=int, default=11, help="timed calls per figure")
    args = ap.parse_args(argv)
    if args.classes < 2 or args.repeats < 1:
        ap.error("--classes must be >= 2 and --repeats >= 1")
    setup = {
        "classes": args.classes,
        "visits_per_class": VISITS,
        "trace_len": TRACE_LEN,
        "repeats": args.repeats,
        "seed": SEED,
        "statistic": "median per call after one warm-up call",
    }
    benchfile.record(ap, args, setup, lambda: measure(args.classes, args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
