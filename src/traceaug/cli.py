"""Command-line pipeline: generate, split, augment, train, evaluate.

Every command writes its outputs plus a manifest recording the resolved
configuration, the seed, and content hashes of all inputs and outputs;
re-running with the same inputs reproduces the output hashes byte for
byte. Exit codes: 0 success, 1 runtime or I/O failure, 2 usage error,
3 check failure.
"""

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import augment as aug_mod
from . import distributions, evaluation, gradcheck, models, synth, training, traces
from .manifest import write_manifest
from .rng import RandomSource

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2
EXIT_CHECK = 3

#: Views augmented per batch call: bounds the engine's working memory.
AUGMENT_CHUNK = 64


class UsageError(ValueError):
    pass


def _positive_int(kind, minimum=1):
    def convert(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{kind} must be an integer")
        if value < minimum:
            raise argparse.ArgumentTypeError(f"{kind} must be >= {minimum}")
        return value

    return convert


def _int_list(text):
    try:
        return [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated integer list")


def _float_list(text):
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma-separated float list")


def _add_common(p):
    p.add_argument("--seed", type=int, default=0, help="run seed (bit-reproducible)")
    p.add_argument("--config", default=None,
                   help="key=value config file; explicit flags override it")
    p.add_argument("--out", required=True, help="output directory")


def _add_augment_flags(p):
    p.add_argument("--shift-max", type=int, default=10)
    p.add_argument("--r-upsample", type=float, default=1.0)
    p.add_argument("--r-downsample", type=float, default=0.5)
    p.add_argument("--r-insert", type=float, default=0.3)
    p.add_argument("--burst-threshold", type=int, default=10)
    p.add_argument("--n-merge", type=int, default=5)
    p.add_argument("--r-merge", type=float, default=0.1)
    p.add_argument("--preserve-prefix", type=int, default=20)
    p.add_argument("--p-flip", type=float, default=0.1)


def _augment_config(args) -> aug_mod.AugmentConfig:
    return aug_mod.AugmentConfig(
        shift_max=args.shift_max,
        r_upsample=args.r_upsample,
        r_downsample=args.r_downsample,
        r_insert=args.r_insert,
        burst_size_threshold=args.burst_threshold,
        n_merge=args.n_merge,
        r_merge=args.r_merge,
        preserve_prefix=args.preserve_prefix,
        p_flip=args.p_flip,
    )


def _add_train_flags(p, lr, epochs, batch, optimizer="adam", momentum=0.0):
    p.add_argument("--lr", type=float, default=lr)
    p.add_argument("--epochs", type=_positive_int("epochs"), default=epochs)
    p.add_argument("--batch", type=_positive_int("batch"), default=batch)
    p.add_argument("--optimizer", choices=("adam", "sgd"), default=optimizer)
    p.add_argument("--momentum", type=float, default=momentum)
    p.add_argument("--cosine", action="store_true", help="cosine-decay the learning rate")


def _train_config(args, mu=19) -> training.TrainConfig:
    return training.TrainConfig(
        batch_size=args.batch,
        epochs=args.epochs,
        learning_rate=args.lr,
        optimizer=args.optimizer,
        momentum=args.momentum,
        cosine_decay=args.cosine,
        seed=args.seed,
        mu=mu,
    )


class _Subcommands:
    """add_parser shim that records every subparser for config-file defaults."""

    def __init__(self, subparsers):
        self._subparsers = subparsers
        self.registry: dict[str, argparse.ArgumentParser] = {}

    def add_parser(self, name, **kwargs):
        p = self._subparsers.add_parser(name, **kwargs)
        self.registry[name] = p
        return p


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="traceaug",
        description="Tor-trace augmentation, training, and evaluation pipeline",
    )
    sub = _Subcommands(parser.add_subparsers(dest="command", required=True))

    p = sub.add_parser("gen", help="generate a synthetic timed-trace corpus")
    _add_common(p)
    p.add_argument("--classes", type=_positive_int("classes", minimum=2), default=20)
    p.add_argument("--visits", type=_int_list, default=[30, 30],
                   help="visits per class per profile (superior,inferior)")
    p.add_argument("--superior-bandwidth", type=float, default=2.0)
    p.add_argument("--superior-control", type=float, default=0.05)
    p.add_argument("--inferior-bandwidth", type=float, default=0.4)
    p.add_argument("--inferior-control", type=float, default=0.3)
    p.add_argument("--jitter", type=float, default=0.05)
    p.add_argument("--noise", type=float, default=0.25)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ncm-split", help="partition a .ttrace corpus at an NCM threshold")
    _add_common(p)
    p.add_argument("--in", dest="input", required=True, help="input .ttrace file")
    p.add_argument("--threshold", type=float, default=40000.0,
                   help="NCM threshold in bytes/second")
    p.add_argument("--trace-len", type=_positive_int("trace-len"), default=5000)
    p.set_defaults(func=cmd_ncm_split)

    p = sub.add_parser("augment", help="augment every trace of a .dtrace file")
    _add_common(p)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--method", choices=("net", "flip"), default="net")
    p.add_argument("--views", type=_positive_int("views"), default=1,
                   help="augmented outputs per input trace")
    p.add_argument("--dist", default=None,
                   help=".bdist file; defaults to a histogram built from the input")
    _add_augment_flags(p)
    p.set_defaults(func=cmd_augment)

    p = sub.add_parser("stats", help="burst-size histogram and per-class incoming stats")
    _add_common(p)
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("pretrain", help="contrastive pre-training on unlabeled traces")
    _add_common(p)
    p.add_argument("--in", dest="input", required=True,
                   help=".dtrace corpus; labels are stripped before training")
    p.add_argument("--method", choices=("net", "flip"), default="net")
    p.add_argument("--dist", default=None)
    p.add_argument("--trace-len", type=_positive_int("trace-len"), default=500)
    p.add_argument("--embed", type=_positive_int("embed", minimum=4), default=64)
    p.add_argument("--hidden", type=_int_list, default=[256, 128])
    p.add_argument("--tau-s", type=float, default=0.5)
    _add_train_flags(p, lr=3e-4, epochs=30, batch=64)
    _add_augment_flags(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="attach and train a classifier on labeled traces")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint from pretrain")
    p.add_argument("--in", dest="input", required=True, help="labeled .dtrace file")
    p.add_argument("--n-labeled", type=_positive_int("n-labeled"), default=None,
                   help="take only the first N labeled traces per class")
    _add_train_flags(p, lr=5e-4, epochs=30, batch=32)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("netfm", help="semi-supervised training with pseudo-labels")
    _add_common(p)
    p.add_argument("--labeled", required=True)
    p.add_argument("--unlabeled", required=True)
    p.add_argument("--dist", default=None)
    p.add_argument("--trace-len", type=_positive_int("trace-len"), default=500)
    p.add_argument("--embed", type=_positive_int("embed", minimum=4), default=64)
    p.add_argument("--hidden", type=_int_list, default=[256, 128])
    p.add_argument("--mu", type=_positive_int("mu"), default=19)
    p.add_argument("--lambda-u", type=float, default=1.0)
    p.add_argument("--tau-f", type=float, default=0.95)
    _add_train_flags(p, lr=1e-2, epochs=30, batch=32, optimizer="sgd", momentum=0.9)
    _add_augment_flags(p)
    p.set_defaults(func=cmd_netfm)

    p = sub.add_parser("eval-cw", help="closed-world accuracy of a checkpoint")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.set_defaults(func=cmd_eval_cw)

    p = sub.add_parser("eval-ow", help="open-world precision/recall at thresholds")
    _add_common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--in", dest="input", required=True,
                   help=".dtrace file; label -1 marks unmonitored traces")
    p.add_argument("--thresholds", type=_float_list, default=[0.0, 0.5, 1.0])
    p.add_argument("--class-correct", action="store_true",
                   help="require the predicted class to match the true label")
    p.set_defaults(func=cmd_eval_ow)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    _add_common(p)
    p.add_argument("--instances", type=_positive_int("instances"), default=20)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser, sub.registry


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _config_snapshot(args) -> dict:
    skip = {"func", "command", "config"}
    return {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip
    }


def _finish(args, started, inputs, outputs) -> int:
    out = Path(args.out)
    write_manifest(
        out / "manifest.json",
        command=args.command,
        config=_config_snapshot(args),
        seed=getattr(args, "seed", None),
        inputs=inputs,
        outputs=outputs,
        started=started,
    )
    return EXIT_OK


def _load_dist(args, corpus) -> distributions.BurstSizeDistribution:
    if args.dist is not None:
        return distributions.load_bdist(args.dist)
    return distributions.build_distribution(corpus)


# -- commands ----------------------------------------------------------------


def cmd_gen(args) -> int:
    started = time.time()
    if len(args.visits) not in (1, 2):
        raise UsageError("--visits takes one count or one per profile (superior,inferior)")
    visits = args.visits * 2 if len(args.visits) == 1 else args.visits
    out = _outdir(args)
    rng = RandomSource(args.seed)
    templates = synth.make_templates(args.classes, rng.spawn(0), noise_scale=args.noise)
    profiles = [
        synth.ConditionProfile(args.superior_bandwidth, args.superior_control, args.jitter),
        synth.ConditionProfile(args.inferior_bandwidth, args.inferior_control, args.jitter),
    ]
    dataset = synth.make_dataset(templates, profiles, visits, rng.spawn(1))
    path = out / "dataset.ttrace"
    traces.save_ttrace(path, dataset)
    print(f"wrote {len(dataset)} traces for {args.classes} classes to {path}")
    return _finish(args, started, [], [path])


def cmd_ncm_split(args) -> int:
    started = time.time()
    out = _outdir(args)
    corpus = traces.load_ttrace(args.input)
    superior, inferior = [], []
    skipped = 0
    for i, t in enumerate(corpus):
        try:
            value = traces.compute_ncm(t)
        except traces.DegenerateTrace as exc:
            print(f"warning: skipping trace {i}: {exc}", file=sys.stderr)
            skipped += 1
            continue
        target = superior if value >= args.threshold else inferior
        target.append(traces.to_direction_trace(t, args.trace_len))
    sup_path = out / "superior.dtrace"
    inf_path = out / "inferior.dtrace"
    traces.save_dtrace(sup_path, superior)
    traces.save_dtrace(inf_path, inferior)
    print(
        f"superior: {len(superior)}  inferior: {len(inferior)}  skipped: {skipped}"
        f"  (threshold {args.threshold:g} B/s)"
    )
    return _finish(args, started, [args.input], [sup_path, inf_path])


def cmd_augment(args) -> int:
    started = time.time()
    out = _outdir(args)
    corpus = traces.load_dtrace(args.input)
    cfg = _augment_config(args)
    dist = _load_dist(args, corpus) if args.method == "net" else None
    if args.method == "net":
        aug_mod.check_net_inputs([t.nonzero_count for t in corpus], cfg, dist)
    root = RandomSource(args.seed)

    # view v of trace i draws from its own stream, spawn(i * views + v), so
    # the output does not depend on how the views are grouped into batches
    augmented = []
    for chunk in _augment_chunks(corpus, args.views, AUGMENT_CHUNK):
        cells = np.stack([corpus[i].cells for i, _ in chunk])
        rngs = [root.spawn(stream) for _, stream in chunk]
        if args.method == "net":
            views = aug_mod.net_augment_batch(cells, cfg, dist, rngs)
        else:
            views = aug_mod.flip_augment_batch(cells, cfg.p_flip, rngs)
        augmented += [
            traces.DirectionTrace(row, label=corpus[i].label) for row, (i, _) in zip(views, chunk)
        ]
    path = out / "augmented.dtrace"
    traces.save_dtrace(path, augmented)
    print(f"augmented {len(corpus)} traces x{args.views} with method={args.method}")
    return _finish(args, started, [args.input], [path])


def _augment_chunks(corpus, views: int, size: int):
    """(trace index, stream index) lists of at most ``size`` views in output
    order; a chunk never mixes trace lengths, so it stacks into a matrix."""
    chunk = []
    for i, t in enumerate(corpus):
        for v in range(views):
            if chunk and (len(chunk) == size or len(t) != len(corpus[chunk[0][0]])):
                yield chunk
                chunk = []
            chunk.append((i, i * views + v))
    if chunk:
        yield chunk


def cmd_stats(args) -> int:
    started = time.time()
    out = _outdir(args)
    corpus = traces.load_dtrace(args.input)
    dist = distributions.build_distribution(corpus)
    bdist_path = out / "burst_sizes.bdist"
    distributions.save_bdist(bdist_path, dist)

    by_label: dict[int, list[int]] = {}
    for t in corpus:
        if t.label is None:
            continue
        by_label.setdefault(t.label, []).append(int(np.sum(t.cells == -1)))
    stats_path = out / "incoming_stats.txt"
    with open(stats_path, "w", encoding="ascii") as fh:
        for label in sorted(by_label):
            counts = np.array(by_label[label], dtype=np.float64)
            fh.write(f"{label} {float(counts.mean())!r} {float(counts.std())!r}\n")
    print(
        f"{dist.total} outgoing bursts over {len(dist.support)} sizes; "
        f"{len(by_label)} labeled classes"
    )
    return _finish(args, started, [args.input], [bdist_path, stats_path])


def _write_history(path, values) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for v in values:
            fh.write(f"{v!r}\n")


def cmd_pretrain(args) -> int:
    started = time.time()
    out = _outdir(args)
    corpus = traces.load_dtrace(args.input, trace_len=args.trace_len)
    unlabeled = training.strip_labels(corpus)
    dist = _load_dist(args, corpus) if args.method == "net" else None
    dims = models.ModelDims(
        trace_len=args.trace_len, hidden=tuple(args.hidden), embed_dim=args.embed
    )
    result = training.pretrain(
        unlabeled,
        _train_config(args),
        _augment_config(args),
        dist,
        _ssl_config(args),
        dims=dims,
        augmenter=args.method,
    )
    ckpt = out / "model.ckpt"
    models.save_params(ckpt, result.params)
    hist = out / "loss_history.txt"
    _write_history(hist, result.loss_history)
    print(
        f"pre-trained on {len(unlabeled)} traces for {args.epochs} epochs; "
        f"loss {result.loss_history[0]:.4f} -> {result.loss_history[-1]:.4f}"
    )
    return _finish(args, started, [args.input], [ckpt, hist])


def _ssl_config(args):
    from .losses import SslConfig

    return SslConfig(
        tau_s=getattr(args, "tau_s", 0.5),
        tau_f=getattr(args, "tau_f", 0.95),
        lambda_u=getattr(args, "lambda_u", 1.0),
        mu=getattr(args, "mu", 19),
    )


def _map_unmonitored(corpus) -> tuple[list, int]:
    """Remap the -1 unmonitored sentinel to the last class index."""
    labels = [t.label for t in corpus if t.label is not None and t.label >= 0]
    n_mon = max(labels) + 1 if labels else 0
    mapped = []
    for t in corpus:
        if t.label == traces.UNMONITORED:
            mapped.append(traces.DirectionTrace(t.cells, label=n_mon))
        else:
            mapped.append(t)
    return mapped, n_mon


def cmd_finetune(args) -> int:
    started = time.time()
    out = _outdir(args)
    params = models.load_params(args.model)
    corpus = traces.load_dtrace(args.input, trace_len=params.trace_len)
    corpus, _ = _map_unmonitored(corpus)
    if args.n_labeled is not None:
        per_class: dict[int, int] = {}
        kept = []
        for t in corpus:
            if per_class.get(t.label, 0) < args.n_labeled:
                kept.append(t)
                per_class[t.label] = per_class.get(t.label, 0) + 1
        corpus = kept
    result = training.finetune(params, corpus, _train_config(args))
    ckpt = out / "model.ckpt"
    models.save_params(ckpt, result.params)
    hist = out / "loss_history.txt"
    _write_history(hist, result.loss_history)
    print(f"fine-tuned on {len(corpus)} labeled traces; final loss {result.loss_history[-1]:.4f}")
    return _finish(args, started, [args.model, args.input], [ckpt, hist])


def cmd_netfm(args) -> int:
    started = time.time()
    out = _outdir(args)
    labeled = traces.load_dtrace(args.labeled, trace_len=args.trace_len)
    labeled, _ = _map_unmonitored(labeled)
    unlabeled = traces.load_dtrace(args.unlabeled, trace_len=args.trace_len)
    dist = _load_dist(args, unlabeled)
    dims = models.ModelDims(
        trace_len=args.trace_len, hidden=tuple(args.hidden), embed_dim=args.embed
    )
    result = training.train_netfm(
        labeled,
        unlabeled,
        _train_config(args, mu=args.mu),
        _ssl_config(args),
        _augment_config(args),
        p_flip_weak=args.p_flip,
        dist=dist,
        dims=dims,
    )
    ckpt = out / "model.ckpt"
    models.save_params(ckpt, result.params)
    loss_hist = out / "loss_history.txt"
    _write_history(loss_hist, result.loss_history)
    retained_hist = out / "retained_history.txt"
    _write_history(retained_hist, result.retained_history)
    print(
        f"semi-supervised run on {len(labeled)} labeled + {len(unlabeled)} unlabeled; "
        f"final loss {result.loss_history[-1]:.4f}"
    )
    return _finish(args, started, [args.labeled, args.unlabeled],
                   [ckpt, loss_hist, retained_hist])


def cmd_eval_cw(args) -> int:
    started = time.time()
    out = _outdir(args)
    params = models.load_params(args.model)
    corpus = traces.load_dtrace(args.input, trace_len=params.trace_len)
    labels = [t.label for t in corpus]
    if any(lab is None or lab < 0 for lab in labels):
        raise UsageError("closed-world evaluation needs non-negative labels")
    preds = models.predict_batch(params, corpus)
    accuracy = evaluation.closed_world_accuracy(preds, labels)
    path = out / "accuracy.txt"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{accuracy!r}\n")
    print(f"closed-world accuracy: {accuracy:.4f} over {len(corpus)} traces")
    return _finish(args, started, [args.model, args.input], [path])


def cmd_eval_ow(args) -> int:
    started = time.time()
    out = _outdir(args)
    if any(b < a for a, b in zip(args.thresholds, args.thresholds[1:])):
        raise UsageError("--thresholds must be sorted ascending")
    params = models.load_params(args.model)
    corpus = traces.load_dtrace(args.input, trace_len=params.trace_len)
    if any(t.label is None for t in corpus):
        raise UsageError("open-world evaluation needs labels (-1 for unmonitored)")
    is_monitored = np.array([t.label != traces.UNMONITORED for t in corpus])
    labels = np.array([max(t.label, 0) for t in corpus])
    n_mon = params.n_classes - 1 if not is_monitored.all() else params.n_classes
    preds = models.predict_batch(params, corpus)
    outcomes = evaluation.pr_curve(
        preds, is_monitored, labels, args.thresholds,
        n_monitored_classes=n_mon, class_correct=args.class_correct,
    )
    path = out / "pr.txt"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(evaluation.format_pr_records(outcomes))
    for o in outcomes:
        print(
            f"threshold {o.threshold:g}: precision {o.precision:.4f} "
            f"recall {o.recall:.4f} f1 {o.f1:.4f}"
        )
    return _finish(args, started, [args.model, args.input], [path])


def cmd_gradcheck(args) -> int:
    started = time.time()
    out = _outdir(args)
    results = gradcheck.run_gradient_checks(
        seed=args.seed, instances=args.instances, step=args.step,
        tolerance=args.tolerance,
    )
    path = out / "gradcheck.txt"
    with open(path, "w", encoding="ascii") as fh:
        for name, value in results.items():
            fh.write(f"{name} {value!r}\n")
    passed = results.pop("passed") == 1.0
    worst = max(results.values())
    print(f"max relative error {worst:.3e} over {args.instances} instances per check")
    for name, value in results.items():
        print(f"  {name}: {value:.3e}")
    _finish(args, started, [], [path])
    if not passed:
        print(f"FAIL: tolerance {args.tolerance:g} exceeded", file=sys.stderr)
        return EXIT_CHECK
    return EXIT_OK


# -- entry -------------------------------------------------------------------


def _apply_config_file(commands, argv):
    """Load key=value defaults from --config before the real parse.

    Only value-typed flags can come from the file; explicit command-line
    flags override file entries because they are parsed on top of these
    defaults.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    defaults = {}
    with open(known.config, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"{known.config}:{line_no}: expected key=value")
            key, value = line.split("=", 1)
            defaults[key.strip().replace("-", "_")] = value.strip()
    for command in commands.values():
        usable = {
            a.dest: a.type(defaults[a.dest])
            for a in command._actions
            if a.dest in defaults and a.type is not None
        }
        command.set_defaults(**usable)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        _apply_config_file(commands, argv)
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
