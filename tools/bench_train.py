"""Wall time of contrastive pre-training with burst and with flip views.

Times one ``pretrain`` with ``augmenter="net"`` and one with
``augmenter="flip"`` at the criterion-7 size (20 classes of 100
superior-profile visits at 500 cells; hidden 256,128, embedding 128, batch
64, 30 epochs, Adam with cosine decay), in seconds, and their ratio, the
measure of how much the burst views cost over the flip views. An untimed
one-epoch run of each at two batches pays first-call costs beforehand.
BLAS is pinned to one thread unless ``OPENBLAS_NUM_THREADS`` is set.

Each invocation appends its figures to the runs of ``--label`` in a JSON
file, as ``tools/benchfile.py`` describes; on a noisy machine, alternate a
few invocations of each checkout. The package is imported from this
checkout's ``src``, or from another checkout's with ``--src``:

    python tools/bench_train.py --src ../parent/src --label parent
    python tools/bench_train.py --label change

``--classes``, ``--per-class`` and ``--epochs`` shrink the run for a quick
check that the script still works.
"""

import os

if __name__ == "__main__":  # before numpy is imported
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchfile  # noqa: E402

TRACE_LEN = 500
HIDDEN = (256, 128)
EMBED = 128
BATCH = 64
SEED = 41  # corpus and training seed


def measure(classes: int, per_class: int, epochs: int) -> dict:
    from traceaug import distributions, synth, traces, training
    from traceaug.augment import AugmentConfig
    from traceaug.losses import SslConfig
    from traceaug.models import ModelDims
    from traceaug.rng import RandomSource

    rng = RandomSource(SEED)
    templates = synth.make_templates(classes, rng.spawn(0))
    visits = synth.make_dataset(templates, [synth.SUPERIOR_PROFILE], per_class, rng.spawn(1))
    corpus = training.strip_labels([traces.to_direction_trace(t, TRACE_LEN) for t in visits])
    dist = distributions.build_distribution(corpus)
    dims = ModelDims(trace_len=TRACE_LEN, hidden=HIDDEN, embed_dim=EMBED)
    ssl = SslConfig(tau_s=0.1)

    def run(augmenter, rows, n_epochs):
        cfg = training.TrainConfig(batch_size=BATCH, epochs=n_epochs, learning_rate=1e-3,
                                   cosine_decay=True, seed=SEED)
        start = time.perf_counter()
        training.pretrain(rows, cfg, AugmentConfig(), dist if augmenter == "net" else None,
                          ssl, dims=dims, augmenter=augmenter)
        return time.perf_counter() - start

    for augmenter in ("net", "flip"):
        run(augmenter, corpus[: 2 * BATCH], 1)
    net_s, flip_s = run("net", corpus, epochs), run("flip", corpus, epochs)
    return {
        "net_pretrain_s": round(net_s, 4),
        "flip_pretrain_s": round(flip_s, 4),
        "net_over_flip": round(net_s / flip_s, 4),
    }


def main(argv=None) -> int:
    ap = benchfile.parser(__doc__.split("\n\n")[0], "BENCH_train.json")
    ap.add_argument("--classes", type=int, default=20, help="classes of the corpus")
    ap.add_argument("--per-class", type=int, default=100, help="visits per class")
    ap.add_argument("--epochs", type=int, default=30, help="epochs of each timed run")
    args = ap.parse_args(argv)
    if args.classes < 1 or args.epochs < 1 or args.classes * args.per_class < 2 * BATCH:
        ap.error(f"need --classes and --epochs >= 1 and at least {2 * BATCH} visits")
    setup = {
        "classes": args.classes,
        "per_class": args.per_class,
        "epochs": args.epochs,
        "trace_len": TRACE_LEN,
        "hidden": list(HIDDEN),
        "embed": EMBED,
        "batch": BATCH,
        "seed": SEED,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "statistic": "seconds of one pre-training after an untimed one-epoch run",
    }
    benchfile.record(ap, args, setup, lambda: measure(args.classes, args.per_class, args.epochs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
