"""Wall time of contrastive pre-training with burst and with flip views,
and of semi-supervised training.

Times one ``pretrain`` with ``augmenter="net"`` and one with
``augmenter="flip"`` at the criterion-7 size (20 classes of 100
superior-profile visits at 500 cells; hidden 256,128, embedding 128, batch
64, 30 epochs, Adam with cosine decay), in seconds, and their ratio, the
measure of how much the burst views cost over the flip views. An untimed
one-epoch run of each at two batches pays first-call costs beforehand.
``netfm_s`` times one ``train_netfm`` at the shapes of ``perfbench``'s
``netfm`` workload (hidden 256,128, embedding 64, batch 32, mu 19, SGD
with lr 1e-2 and momentum 0.9, p_flip 0.1, tau_f 0.95) for as many
epochs, on the first 5 visits of each class, labeled, and every visit
unlabeled; an untimed one-epoch run pays its first-call costs.
It also times one Adam step of pre-training, in microseconds, at the
criterion-7 shapes (198k parameters, first-layer gradient full width) and
at the shapes of the CLI chain at 5,000 cells (1.33M parameters, embedding
64, first-layer gradient 570 columns wide, about a batch's live prefix):
the mean over ``ADAM_STEPS`` steps after one untimed step. The learner rows
time one contrastive and one supervised forward+backward, in microseconds
per row, at the criterion-7 shapes (128 view rows and a fine-tuning batch of
32, embedding 128) and at the CLI chain's (the same rows at 5,000 cells,
embedding 64): the mean over ``LEARNER_CALLS`` calls on the corpus's first
visits after one untimed call.
``pretrain_peak_mb_cli`` is the ``tracemalloc`` peak, in MB, of one
1-epoch net ``pretrain`` on the corpus at 5,000 cells (embedding 64), a
call of its own after the timed runs; the peak RSS of ``traceaug pretrain``
at that length follows it.
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
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
import benchfile  # noqa: E402

TRACE_LEN = 500
HIDDEN = (256, 128)
EMBED = 128
BATCH = 64
SEED = 41  # corpus and training seed
ADAM_STEPS = 200
LEARNER_CALLS = 50
#: the netfm run: labeled visits per class, embedding width, batch, mu
NETFM_LABELED, NETFM_EMBED, NETFM_BATCH, NETFM_MU = 5, 64, 32, 19
#: figure name -> (trace length, embedding width, first-layer gradient columns)
ADAM_SHAPES = {
    "adam_us_per_step_c7": (TRACE_LEN, EMBED, TRACE_LEN),
    "adam_us_per_step_cli": (5000, 64, 570),
}
#: shape name -> (trace length, embedding width) of the learner rows
LEARNER_SHAPES = {"c7": (TRACE_LEN, EMBED), "cli": (5000, 64)}
#: rows of a contrastive call (two views of a pre-training batch) and of a supervised one
CONTRASTIVE_ROWS, SUPERVISED_ROWS = 2 * BATCH, 32


def measure(classes: int, per_class: int, epochs: int) -> dict:
    from traceaug import distributions, synth, traces, training
    from traceaug.augment import AugmentConfig
    from traceaug.losses import SslConfig
    from traceaug.models import ModelDims
    from traceaug.rng import RandomSource

    rng = RandomSource(SEED)
    templates = synth.make_templates(classes, rng.spawn(0))
    visits = synth.make_dataset(templates, [synth.SUPERIOR_PROFILE], per_class, rng.spawn(1))
    visit_rows = [traces.to_direction_trace(t, TRACE_LEN) for t in visits]
    corpus = training.strip_labels(visit_rows)
    labeled, taken = [], {}
    for t in visit_rows:
        taken[t.label] = taken.get(t.label, 0) + 1
        if taken[t.label] <= NETFM_LABELED:
            labeled.append(t)
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

    def netfm(n_epochs):
        cfg = training.TrainConfig(batch_size=NETFM_BATCH, epochs=n_epochs, learning_rate=1e-2,
                                   optimizer="sgd", momentum=0.9, seed=SEED, mu=NETFM_MU)
        netfm_dims = ModelDims(trace_len=TRACE_LEN, hidden=HIDDEN, embed_dim=NETFM_EMBED)
        start = time.perf_counter()
        training.train_netfm(labeled, corpus, cfg, SslConfig(tau_f=0.95, lambda_u=1.0),
                             AugmentConfig(), 0.1, dist, netfm_dims)
        return time.perf_counter() - start

    for augmenter in ("net", "flip"):
        run(augmenter, corpus[: 2 * BATCH], 1)
    net_s, flip_s = run("net", corpus, epochs), run("flip", corpus, epochs)
    netfm(1)
    return {
        "net_pretrain_s": round(net_s, 4),
        "flip_pretrain_s": round(flip_s, 4),
        "net_over_flip": round(net_s / flip_s, 4),
        "netfm_s": round(netfm(epochs), 4),
        **{name: round(adam_us_per_step(*shape), 2) for name, shape in ADAM_SHAPES.items()},
        **learner_us_per_row(visits, classes),
        "pretrain_peak_mb_cli": round(pretrain_peak_mb(visits, dist, ssl), 3),
    }


def pretrain_peak_mb(visits, dist, ssl) -> float:
    from traceaug import traces, training
    from traceaug.augment import AugmentConfig
    from traceaug.models import ModelDims

    trace_len, embed = LEARNER_SHAPES["cli"]
    corpus = training.strip_labels([traces.to_direction_trace(t, trace_len) for t in visits])
    cfg = training.TrainConfig(batch_size=BATCH, epochs=1, learning_rate=1e-3,
                               cosine_decay=True, seed=SEED)
    dims = ModelDims(trace_len=trace_len, hidden=HIDDEN, embed_dim=embed)
    tracemalloc.start()
    try:
        training.pretrain(corpus, cfg, AugmentConfig(), dist, ssl, dims=dims)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def adam_us_per_step(trace_len: int, embed: int, live: int) -> float:
    import numpy as np

    from traceaug import models, training
    from traceaug.rng import RandomSource

    dims = models.ModelDims(trace_len=trace_len, hidden=HIDDEN, embed_dim=embed)
    arrays = models.trainable_arrays(models.init_params(dims, RandomSource(SEED)), "projection")
    rng = np.random.default_rng(SEED)
    grads = [rng.standard_normal(a.shape, np.float32) for a in arrays]
    grads[0] = np.ascontiguousarray(grads[0][:, :live])
    opt = training._Optimizer(arrays, training.TrainConfig(), ADAM_STEPS + 1)
    opt.step(grads)
    start = time.perf_counter()
    for _ in range(ADAM_STEPS):
        opt.step(grads)
    return (time.perf_counter() - start) / ADAM_STEPS * 1e6


def learner_us_per_row(visits, classes: int) -> dict:
    import numpy as np

    from traceaug import models, traces
    from traceaug.rng import RandomSource

    result = {}
    for shape, (trace_len, embed) in LEARNER_SHAPES.items():
        dims = models.ModelDims(trace_len=trace_len, hidden=HIDDEN, embed_dim=embed)
        params = models.init_params(dims, RandomSource(SEED))
        models.attach_classifier(params, max(classes, 2), RandomSource(SEED).spawn(0))
        rows = [traces.to_direction_trace(t, trace_len) for t in visits[:CONTRASTIVE_ROWS]]
        x = np.stack([t.cells for t in rows])
        labels = np.array([t.label for t in rows[:SUPERVISED_ROWS]])
        calls = {
            "contrastive": (lambda: models.contrastive_forward_backward(x, params, 0.1), len(x)),
            "supervised": (lambda: models.supervised_forward_backward(
                x[:SUPERVISED_ROWS], labels, params), len(labels)),
        }
        for name, (call, n) in calls.items():
            call()
            start = time.perf_counter()
            for _ in range(LEARNER_CALLS):
                call()
            per_row = (time.perf_counter() - start) / LEARNER_CALLS / n * 1e6
            result[f"{name}_us_per_row_{shape}"] = round(per_row, 3)
    return result


def main(argv=None) -> int:
    ap = benchfile.parser(__doc__.split("\n\n")[0], "BENCH_train.json")
    ap.add_argument("--classes", type=int, default=20, help="classes of the corpus")
    ap.add_argument("--per-class", type=int, default=100, help="visits per class")
    ap.add_argument("--epochs", type=int, default=30, help="epochs of each timed run")
    args = ap.parse_args(argv)
    # two pre-training batches, and mu unlabeled visits for each labeled one of a netfm batch
    n_labeled = args.classes * min(args.per_class, NETFM_LABELED)
    need = max(2 * BATCH, NETFM_MU * min(NETFM_BATCH, n_labeled))
    if args.classes < 1 or args.epochs < 1 or args.classes * args.per_class < need:
        ap.error(f"need --classes and --epochs >= 1 and at least {need} visits")
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
