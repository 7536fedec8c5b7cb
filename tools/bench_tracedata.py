"""Timings of the trace-data layer: synthetic corpora and .dtrace files.

Times ``synth.make_dataset`` at the criterion-7 corpus size (135 superior
and 30 inferior visits per class, as ``perfbench``'s ``c7-seed`` set-up
builds) and at the CLI benchmark's (27 and 6 visits per class, as the
``cli-5000`` chain's ``gen``), in microseconds per visit, and
``distributions.build_distribution`` on each corpus's superior traces at
5,000 cells, in nanoseconds per cell. Then it times ``save_dtrace`` and
``load_dtrace`` of the CLI corpus's superior traces (540 rows at 20
classes, as ``ncm-split`` writes them and ``pretrain`` reads them), in
nanoseconds per cell, and ``save_ttrace`` and ``load_ttrace`` of the whole
CLI corpus (660 lines at 20 classes, as ``gen`` writes it and ``ncm-split``
reads it), in nanoseconds per cell. Each figure is the median of
``--repeats`` timed calls after one untimed call.

Where the package splits .ttrace files between two processes (a checkout
with ``traces._SPLIT_LINES``), it also records split time over one-process
time, save and load, for the first SMALL_FILES lines of the CLI corpus,
the figures the ``_SPLIT_LINES`` floor rests on, and for the whole corpus
cut into each of CHUNK_COUNTS chunks, the figures ``traces._CHUNKS`` rests
on.

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
#: line counts of the small .ttrace files timed split and in one process
SMALL_FILES = (32, 64, 128, 256)
#: chunk counts the whole CLI corpus is timed split into
CHUNK_COUNTS = (4, 8, 16, 32)
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
    from traceaug import distributions, synth, traces
    from traceaug.rng import RandomSource

    templates = synth.make_templates(classes, RandomSource(SEED).spawn(0))
    profiles = [synth.SUPERIOR_PROFILE, synth.INFERIOR_PROFILE]

    def corpus(size):
        return synth.make_dataset(templates, profiles, VISITS[size],
                                  RandomSource(SEED).spawn(1))

    result, superior_rows = {}, {}
    for size, visits in VISITS.items():
        seconds = _median_s(lambda: corpus(size), repeats)
        result[f"make_dataset_us_per_visit_{size}"] = round(
            seconds / (classes * sum(visits)) * 1e6, 3
        )
        superior, _ = traces.partition_by_ncm(corpus(size), NCM_THRESHOLD)
        rows = superior_rows[size] = [traces.to_direction_trace(t, TRACE_LEN) for t in superior]
        seconds = _median_s(lambda: distributions.build_distribution(rows), repeats)
        result[f"build_distribution_ns_per_cell_{size}"] = round(
            seconds / (len(rows) * TRACE_LEN) * 1e9, 3
        )
    rows = superior_rows["cli"]
    cells = len(rows) * TRACE_LEN
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "superior.dtrace"
        save_s = _median_s(lambda: traces.save_dtrace(path, rows), repeats)
        load_s = _median_s(lambda: traces.load_dtrace(path, TRACE_LEN), repeats)
    result["save_dtrace_ns_per_cell"] = round(save_s / cells * 1e9, 3)
    result["load_dtrace_ns_per_cell"] = round(load_s / cells * 1e9, 3)
    result.update(_ttrace_figures(traces, corpus("cli"), repeats))
    return result


def _ttrace_figures(traces, dataset, repeats: int) -> dict:
    """.ttrace save and load of ``dataset`` in ns per cell, then, where the
    package splits, split over one-process time of its first SMALL_FILES
    lines and of the whole of it in CHUNK_COUNTS chunks."""

    def timings(rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "corpus.ttrace"
            return (_median_s(lambda: traces.save_ttrace(path, rows), repeats),
                    _median_s(lambda: traces.load_ttrace(path), repeats))

    def split_over_one(rows, chunks, key):
        traces._SPLIT_LINES, traces._CHUNKS = 2, chunks
        split = timings(rows)
        traces._SPLIT_LINES = 10**9
        one = timings(rows)
        for op, s, o in zip(("save", "load"), split, one):
            result[f"{op}_ttrace_split_over_one_process_{key}"] = round(s / o, 3)

    cells = sum(len(t) for t in dataset)
    save_s, load_s = timings(dataset)
    result = {"save_ttrace_ns_per_cell_cli": round(save_s / cells * 1e9, 3),
              "load_ttrace_ns_per_cell_cli": round(load_s / cells * 1e9, 3)}
    floor = getattr(traces, "_SPLIT_LINES", None)
    if floor is None:  # a checkout that reads and writes in one process
        return result
    chunks = traces._CHUNKS
    try:
        for lines in SMALL_FILES:
            split_over_one(dataset[:lines], chunks, lines)
        for count in CHUNK_COUNTS:
            split_over_one(dataset, count, f"{count}_chunks")
    finally:
        traces._SPLIT_LINES, traces._CHUNKS = floor, chunks
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
