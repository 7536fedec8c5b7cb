"""Benchmark entry point.

    python3 perfbench/run.py --workload c7-seed --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, never from an installed copy. The workload's inputs are
made from ``--seed``. Every run first warms up with one untimed pass at smoke
size. With ``--trace 0`` the run then measures the workload untraced,
repeating it while another pass is expected to end within ``--seconds``, and
reports the median pass as the end-to-end metrics. With ``--trace 1`` it runs
the workload once untraced in a child process and once traced in its own, and
reports the per-layer metrics and the tracing overhead.
``--smoke`` shrinks every corpus and training run, for the benchmark's own
tests.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record (machine block, operations, checks, digests) is written to
``.perfbench_out/`` in the checkout.
"""

import os

#: BLAS threads, pinned before numpy is imported: the trained bytes depend
#: on this count, and a single thread keeps timings steady on a shared box.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

#: Fresh-interpreter imports and corpus builds per run; set-up time is the
#: median of each.
IMPORT_REPEATS = 9
SETUP_REPEATS = 3

#: Span names whose per-call distribution is printed after a traced run.
SPAN_SUMMARY = (
    "augment.net", "augment.flip", "models.contrastive_step", "models.supervised_step",
    "models.forward", "models.backward", "losses.nt_xent", "traces.load_dtrace",
    "traces.save_dtrace", "manifest.hash",
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny corpora, one epoch")
    return p.parse_args(argv)


def summarize(values):
    """Median, the highest percentile with at least ten samples beyond it
    (None when there are fewer than twenty), and the sample count."""
    values = sorted(values)
    n = len(values)
    tail = None
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - pct / 100.0) >= 10:
            tail = (pct, values[min(n - 1, int(n * pct / 100.0))])
            break
    return {"median": statistics.median(values), "tail": tail, "n": n}


def format_summary(name, unit, s):
    tail = f"p{s['tail'][0]:g} {s['tail'][1]:.6g}" if s["tail"] else "no tail (n < 20)"
    return f"  {name:<32} median {s['median']:.6g} {unit:<8} {tail}  n={s['n']}"


def import_seconds(repeats):
    """Median time for a fresh interpreter to start and import the package.

    The child is waited for with a blocking wait and killed by a timer if it
    hangs: a wait with a timeout polls, which rounds the time up to 50 ms.
    """
    source = f"import sys; sys.path.insert(0, {str(SRC)!r}); import traceaug.cli"
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", source], cwd=ROOT)
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            returncode = proc.wait()
        finally:
            killer.cancel()
        times.append(time.perf_counter() - start)
        if returncode != 0:
            raise RuntimeError(f"importing the package exited with code {returncode}")
    return statistics.median(times)


def code_fingerprint(scale):
    """Hash of the workload sizes, the package sources and the numeric stack
    that shape the bytes."""
    import numpy as np

    h = hashlib.sha256(f"{scale!r} numpy {np.__version__} blas {BLAS_THREADS}".encode())
    for path in sorted((SRC / "traceaug").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


class DigestStore:
    """Digests of earlier runs of the same code, seed and scale; a run whose
    digests differ from the recorded ones fails its determinism check."""

    def __init__(self, path: Path, key: str):
        self.path, self.key = path, key
        try:
            self.records = json.loads(path.read_text())
        except (OSError, ValueError):
            self.records = {}

    def check(self, it):
        reference = self.records.get(self.key)
        if reference is None:
            reference = self.records[self.key] = dict(it.digests)
            tmp = self.path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(self.records, indent=1, sort_keys=True))
            os.replace(tmp, self.path)
        for artifact, digest in it.digests.items():
            it.check(artifact.split(":", 1)[0], "deterministic", reference.get(artifact) == digest)


def main(argv=None) -> int:
    load_at_start = os.getloadavg()
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "traceaug" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'traceaug'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import numpy as np  # noqa: F401  (after the BLAS pin)

    import tracing
    import workloads
    from machine import machine_block

    import traceaug

    if Path(traceaug.__file__).resolve().parent != SRC / "traceaug":
        print(f"error: imported traceaug from {traceaug.__file__}, not {SRC}", file=sys.stderr)
        return 2
    first_call_s = time.perf_counter()
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    scale = workloads.SMOKE if args.smoke else workloads.FULL
    OUT.mkdir(exist_ok=True)
    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    machine = machine_block(ROOT, BLAS_THREADS, load_at_start)
    store = DigestStore(
        OUT / "digests.json",
        f"{args.workload}|seed={args.seed}|smoke={args.smoke}|code={code_fingerprint(scale)}",
    )
    try:
        if args.trace:
            record = traced_run(args, workload, scale, workdir, store, tracing)
        else:
            record = timed_run(args, workload, scale, workdir, store, first_call_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    iterations = record.pop("iterations")
    ops = [op for it in iterations for op in it.ops]
    child = record.get("untraced_pass", {"attempted": 0, "failed": 0})
    attempted = len(ops) + child["attempted"]
    failed = sum(op.failed for op in ops) + child["failed"]
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke, "machine": machine,
        "ops": [{"name": op.name, "failed": op.failed, "error": op.error,
                 "checks": op.checks, "seconds": op.seconds} for op in ops],
        "accuracies": {f"acc_inferior_{k}": v for k, v in iterations[-1].accuracy.items()},
        "pseudo_retained_frac": iterations[-1].pseudo_retained_frac,
        "digests": iterations[-1].digests,
    })
    record["metrics"] = {k: (v, units[k]) for k, v in record["metrics"].items()}
    suffix = "-smoke" if args.smoke else ""
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str)
    )
    print_report(record)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()},
    }))
    return 0


def timed_run(args, workload, scale, workdir, store, first_call_s):
    """Untraced passes until --seconds have passed; end-to-end metrics."""
    setup_times = []
    ctx = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        ctx = workload.setup(args.seed, scale)
        setup_times.append(time.perf_counter() - start)
    import_s = import_seconds(IMPORT_REPEATS)
    setup_s = import_s + statistics.median(setup_times)

    warm_up(workload, args.seed, workdir)
    iterations, pass_times = [], []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        it = workload.iterate(ctx, scale, args.seed, nullcontext, workdir)
        store.check(it)
        iterations.append(it)
        pass_times.append(time.perf_counter() - start)
        if time.perf_counter() - began + statistics.median(pass_times) > args.seconds:
            break

    walls = [it.wall_s for it in iterations]
    rates = [it.train_samples / it.train_s if it.train_s else 0.0 for it in iterations]
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "train_samples_per_s": statistics.median(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "iterations": iterations,
        "metrics": metrics,
        "timings": {
            "wall_s": summarize(walls),
            "train_samples_per_s": summarize(rates),
            "setup_corpus_s": summarize(setup_times),
            "setup_import_s": {"median": import_s, "tail": None, "n": IMPORT_REPEATS},
        },
        "process_start_to_first_call_s": _since_process_start(first_call_s),
    }


def warm_up(workload, seed, workdir):
    """One pass at smoke size, neither timed nor checked, so that lazy imports,
    BLAS start-up and first-call costs are paid before the timed passes."""
    from workloads import SMOKE

    workload.iterate(workload.setup(seed, SMOKE), SMOKE, seed, nullcontext, workdir)


def _since_process_start(at_perf_counter):
    """Seconds from this process's start to the given perf_counter reading."""
    try:
        with open("/proc/self/stat") as fh:
            start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
        with open("/proc/uptime") as fh:
            uptime = float(fh.read().split()[0])
    except (OSError, ValueError, IndexError):
        return None
    started_ago = uptime - start_ticks / os.sysconf("SC_CLK_TCK")
    return started_ago - (time.perf_counter() - at_perf_counter)


def untraced_pass(args):
    """Result line of a timed run of one pass in a fresh process, so that the
    untraced and the traced pass both start cold."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"untraced pass exited with code {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_run(args, workload, scale, workdir, store, tracing):
    """An untraced pass in a child process, then a traced pass here;
    per-layer metrics and the tracing overhead."""
    untraced = untraced_pass(args)
    untraced_wall_s = untraced["metrics"]["wall_s"]["value"]

    warm_up(workload, args.seed, workdir)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        ctx = workload.setup(args.seed, scale)
        tracer.run_id = "work"
        traced = workload.iterate(ctx, scale, args.seed, tracer.region, workdir)
    finally:
        tracer.uninstall()
    store.check(traced)

    layer = tracing.layer_metrics(tracer, "work", untraced_wall_s, traced.wall_s)
    tracer.write_spans(OUT / f"spans-{args.workload}{'-smoke' if args.smoke else ''}.csv")

    per_name = {}
    for span in tracer.spans:
        if span[4] == "work" and span[0] in SPAN_SUMMARY:
            per_name.setdefault(span[0], []).append((span[2] - span[1]) / 1e9)
    shares = {
        name: layer[f"{name}.self_s"] / traced.wall_s
        for name in tracing.LAYERS if traced.wall_s
    }
    return {
        "iterations": [traced],
        "untraced_pass": {k: untraced[k] for k in ("correct", "attempted", "failed")},
        "metrics": layer,
        "layer_shares": dict(sorted(shares.items(), key=lambda kv: -kv[1])),
        "span_timings": {name: summarize(v) for name, v in sorted(per_name.items())},
        "spans_recorded": len(tracer.spans),
    }


def print_report(record):
    m = record["machine"]
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}"
          f"{'  smoke' if record['smoke'] else ''}")
    print(f"machine: nproc {m['nproc']}  python {m['python']}  numpy {m['numpy']}  "
          f"{m['blas_name']} {m['blas_version']}  blas threads pinned {m['blas_threads_pinned']}"
          f" (reported {m['blas_threads_reported']})  load {m['load_average_at_start']}"
          f"  commit {m['git_commit']}")
    by_name = {}
    for op in record["ops"]:
        by_name.setdefault(op["name"], []).append(op)
    for name, ops in by_name.items():
        failed = sum(op["failed"] for op in ops)
        checks = {}
        for op in ops:
            for check, passed in op["checks"].items():
                checks[check] = checks.get(check, 0) + (not passed)
        shown = " ".join(f"{k}={'pass' if not v else f'FAIL x{v}'}" for k, v in checks.items())
        seconds = " ".join(f"{op['seconds']:.3f}" for op in ops)
        print(f"  op {name:<16} {len(ops) - failed}/{len(ops)} ok  {shown}  s: {seconds}")
        errors = {op["error"] for op in ops if op["error"]}
        for error in errors:
            print("    " + error.strip().replace("\n", "\n    "))
    for name, value in record["accuracies"].items():
        print(f"  {name:<32} {value:.4f}")
    for name in ("pseudo_retained_frac", "process_start_to_first_call_s"):
        if record.get(name) is not None:
            print(f"  {name:<32} {record[name]:.4f}")
    for name, s in record.get("timings", {}).items():
        print(format_summary(name, "1/s" if name.endswith("_per_s") else "s", s))
    for name, s in record.get("span_timings", {}).items():
        print(format_summary(name + " (per call)", "s", s))
    for name, share in record.get("layer_shares", {}).items():
        print(f"  self-time share {name:<14} {share:7.1%}")
    for name, (value, unit) in record["metrics"].items():
        print(f"  {name:<32} {value:.6g} {unit}")


if __name__ == "__main__":
    sys.exit(main())
