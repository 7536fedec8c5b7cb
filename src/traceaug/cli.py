"""Command-line pipeline: generate, split, augment, train, evaluate.

Every command writes its outputs plus a manifest recording the resolved
configuration, the seed, and content hashes of all inputs and outputs;
re-running with the same inputs reproduces the output hashes byte for
byte. ``main`` runs each command in one envelope: it creates ``--out``,
calls the command, and writes the manifest only once the command has
returned, so a command that fails leaves none. Exit codes: 0 success,
1 runtime or I/O failure, 2 usage error, 3 check failure.
"""

import argparse
import ctypes
import sys
import time
from pathlib import Path

import numpy as np

from . import augment as aug_mod
from . import distributions, evaluation, gradcheck, models, synth, training, traces
from .manifest import write_manifest
from .rng import RandomSource

try:
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes, _malloc_trim.restype = [ctypes.c_size_t], ctypes.c_int
except (AttributeError, OSError, TypeError):  # not glibc
    _malloc_trim = None

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


def _finite_float(kind, positive=False):
    """A finite float >= 0, or > 0 when ``positive``; NaN, inf and values
    out of range are usage errors."""

    def convert(text):
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{kind} must be a number")
        if not ((value > 0 if positive else value >= 0) and value < np.inf):
            raise argparse.ArgumentTypeError(
                f"{kind} must be finite and {'>' if positive else '>='} 0")
        return value

    return convert


def _number_list(parse, text) -> list:
    try:
        return [parse(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a comma-separated {parse.__name__} list")


def _visits(text) -> list[int]:
    counts = _number_list(int, text)
    if len(counts) not in (1, 2) or min(counts) < 1:
        raise argparse.ArgumentTypeError("visits takes one or two counts (superior,inferior) >= 1")
    return counts


def _thresholds(text) -> list[float]:
    values = _number_list(float, text)
    if not all(0.0 <= v <= 1.0 for v in values):
        raise argparse.ArgumentTypeError("thresholds must be in [0, 1]")
    if any(b < a for a, b in zip(values, values[1:])):
        raise argparse.ArgumentTypeError("thresholds must be sorted ascending")
    return values


def _add_common(p):
    p.add_argument("--seed", type=int, default=0,
                   help="run seed (same bytes on one numpy/BLAS build and thread count)")
    p.add_argument("--config", default=None,
                   help="key=value config file; explicit flags override it")
    p.add_argument("--out", required=True, help="output directory")


#: The training flags of every training command; only netfm adds --mu.
_TRAIN_FLAGS = ("lr", "epochs", "batch", "optimizer", "momentum", "cosine")
#: The flag dests of each config dataclass. A flag is ``--`` plus its dest
#: with ``-`` for ``_``; its dest is its field's name unless _FIELDS renames it.
_CONFIG_FLAGS = {
    training.TrainConfig: (*_TRAIN_FLAGS, "mu"),
    training.SslConfig: ("tau_s", "tau_f", "lambda_u"),
    models.ModelDims: ("trace_len", "embed", "hidden"),
    aug_mod.AugmentConfig: (
        "shift_max", "r_upsample", "r_downsample", "r_insert", "burst_threshold",
        "n_merge", "r_merge", "preserve_prefix", "p_flip",
    ),
}
_FIELDS = {
    "lr": "learning_rate", "batch": "batch_size", "cosine": "cosine_decay",
    "burst_threshold": "burst_size_threshold", "embed": "embed_dim",
}


def _field_value(cls, name):
    """Parse a flag's text as field ``name`` of ``cls`` (a tuple field takes
    a comma-separated integer list) and build ``cls`` with just that field,
    so ``cls.__post_init__`` is the flag's only check; its ValueError
    becomes a usage error."""
    default = getattr(cls, name)

    def convert(text):
        try:
            if isinstance(default, tuple):
                value = tuple(_number_list(int, text))
            else:
                value = type(default)(text)
            cls(**{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
        return value

    return convert


def _add_config_flags(p, cls, dests=None, **defaults):
    """Add the flags of ``dests`` (all of ``cls``'s by default), each taking
    its type and default from its field; ``defaults`` overrides a default
    by dest. A bool field is a store_true flag."""
    for dest in dests or _CONFIG_FLAGS[cls]:
        name = _FIELDS.get(dest, dest)
        default = defaults.get(dest, getattr(cls, name))
        flag = "--" + dest.replace("_", "-")
        if isinstance(default, bool):
            p.add_argument(flag, action="store_true", default=default)
        else:
            choices = training.OPTIMIZERS if name == "optimizer" else None
            p.add_argument(flag, type=_field_value(cls, name), default=default, choices=choices)


def _config(cls, args, **fixed):
    """``cls`` from the flags of it that this command defines, plus ``fixed``;
    the dataclass supplies the rest."""
    flags = {_FIELDS.get(d, d): getattr(args, d) for d in _CONFIG_FLAGS[cls] if hasattr(args, d)}
    return cls(**flags, **fixed)


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    parser = argparse.ArgumentParser(
        prog="traceaug",
        description="Tor-trace augmentation, training, and evaluation pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic timed-trace corpus")
    _add_common(p)
    p.add_argument("--classes", type=_positive_int("classes", minimum=2), default=20)
    p.add_argument("--visits", type=_visits, default=[30, 30],
                   help="visits per class per profile (superior,inferior)")
    p.add_argument("--superior-bandwidth",
                   type=_finite_float("superior-bandwidth", positive=True), default=2.0)
    p.add_argument("--superior-control", type=_finite_float("superior-control"), default=0.05)
    p.add_argument("--inferior-bandwidth",
                   type=_finite_float("inferior-bandwidth", positive=True), default=0.4)
    p.add_argument("--inferior-control", type=_finite_float("inferior-control"), default=0.3)
    p.add_argument("--jitter", type=_finite_float("jitter"), default=0.05)
    p.add_argument("--noise", type=_finite_float("noise"), default=0.25)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("ncm-split", help="partition a .ttrace corpus at an NCM threshold")
    _add_common(p)
    p.add_argument("--in", dest="input", required=True, help="input .ttrace file")
    p.add_argument("--threshold", type=_finite_float("threshold"), default=40000.0,
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
    _add_config_flags(p, aug_mod.AugmentConfig)
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
    _add_config_flags(p, models.ModelDims)
    _add_config_flags(p, training.SslConfig, ("tau_s",))
    _add_config_flags(p, training.TrainConfig, _TRAIN_FLAGS)
    _add_config_flags(p, aug_mod.AugmentConfig)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("finetune", help="attach and train a classifier on labeled traces")
    _add_common(p)
    p.add_argument("--model", required=True, help="checkpoint from pretrain")
    p.add_argument("--in", dest="input", required=True, help="labeled .dtrace file")
    p.add_argument("--n-labeled", type=_positive_int("n-labeled"), default=None,
                   help="take only the first N labeled traces per class")
    _add_config_flags(p, training.TrainConfig, _TRAIN_FLAGS, lr=5e-4, batch=32)
    p.set_defaults(func=cmd_finetune)

    p = sub.add_parser("netfm", help="semi-supervised training with pseudo-labels")
    _add_common(p)
    p.add_argument("--labeled", required=True)
    p.add_argument("--unlabeled", required=True)
    p.add_argument("--dist", default=None)
    _add_config_flags(p, models.ModelDims)
    _add_config_flags(p, training.SslConfig, ("tau_f", "lambda_u"))
    _add_config_flags(p, training.TrainConfig, lr=1e-2, batch=32, optimizer="sgd",
                      momentum=0.9)
    _add_config_flags(p, aug_mod.AugmentConfig)
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
    p.add_argument("--thresholds", type=_thresholds, default=[0.0, 0.5, 1.0])
    p.add_argument("--class-correct", action="store_true",
                   help="require the predicted class to match the true label")
    p.set_defaults(func=cmd_eval_ow)

    p = sub.add_parser("gradcheck", help="finite-difference check of all gradients")
    _add_common(p)
    p.add_argument("--instances", type=_positive_int("instances"), default=20)
    p.add_argument("--step", type=_finite_float("step", positive=True), default=1e-5)
    p.add_argument("--tolerance", type=_finite_float("tolerance", positive=True), default=1e-4)
    p.set_defaults(func=cmd_gradcheck)

    return parser, sub.choices


def _config_snapshot(args) -> dict:
    skip = {"func", "command", "config"}
    return {
        k: (str(v) if isinstance(v, Path) else v)
        for k, v in sorted(vars(args).items())
        if k not in skip
    }


def _load_dist(args, corpus) -> distributions.BurstSizeDistribution:
    if args.dist is not None:
        return distributions.load_bdist(args.dist)
    return distributions.build_distribution(corpus)


def _load_model(args, classifier=False):
    """The ``--model`` checkpoint and the ``--in`` corpus at its trace
    length. With ``classifier``, a checkpoint that has none is refused
    before the corpus is read, and a corpus with a label past its classes
    is refused too."""
    params = models.load_params(args.model)
    if classifier and params.n_classes is None:
        raise ValueError(f"{args.model} has no classifier; fine-tune it first")
    corpus = traces.load_dtrace(args.input, trace_len=params.trace_len)
    top = max((t.label for t in corpus if t.label is not None), default=-1)
    if classifier and top >= params.n_classes:
        raise ValueError(f"label {top} has no class in {args.model}, which has"
                         f" {params.n_classes} classes")
    return params, corpus


def _save_model(out, params, **histories) -> list[Path]:
    """Write ``model.ckpt`` and, for each keyword, ``<name>.txt`` with one
    value per line; returns the paths in that order."""
    paths = [out / "model.ckpt"]
    models.save_params(paths[0], params)
    for name, values in histories.items():
        paths.append(out / f"{name}.txt")
        with open(paths[-1], "w", encoding="ascii") as fh:
            fh.writelines(f"{v!r}\n" for v in values)
    return paths


# -- commands ----------------------------------------------------------------
#
# A command takes the parsed flags and its existing output directory, and
# returns the input and output paths its manifest hashes, plus an exit code
# when that is not EXIT_OK; main() does the rest.


def cmd_gen(args, out):
    visits = args.visits * 2 if len(args.visits) == 1 else args.visits
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
    return [], [path]


def cmd_ncm_split(args, out):
    corpus = traces.load_ttrace(args.input)
    skipped: list[traces.DegenerateTrace] = []
    superior, inferior = traces.partition_by_ncm(corpus, args.threshold, skipped)
    for exc in skipped:
        print(f"warning: skipping {exc}", file=sys.stderr)
    sup_path = out / "superior.dtrace"
    inf_path = out / "inferior.dtrace"
    traces.save_dtrace(sup_path, [traces.to_direction_trace(t, args.trace_len) for t in superior])
    traces.save_dtrace(inf_path, [traces.to_direction_trace(t, args.trace_len) for t in inferior])
    print(
        f"superior: {len(superior)}  inferior: {len(inferior)}  skipped: {len(skipped)}"
        f"  (threshold {args.threshold:g} B/s)"
    )
    return [args.input], [sup_path, inf_path]


def cmd_augment(args, out):
    cfg = _config(aug_mod.AugmentConfig, args)
    corpus = traces.load_dtrace(args.input)
    dist = _load_dist(args, corpus) if args.method == "net" else None
    if args.method == "net":
        aug_mod.check_net_inputs([t.nonzero_count for t in corpus], cfg, dist)
    # the views draw from one stream in output order, so the output does
    # not depend on how they are grouped into batches
    rng = RandomSource(args.seed)
    augmented = []
    for chunk in _augment_chunks(corpus, args.views, AUGMENT_CHUNK):
        cells = np.stack([corpus[i].cells for i in chunk])
        if args.method == "net":
            views = aug_mod.net_augment_batch(cells, cfg, dist, rng)
        else:
            views = aug_mod.flip_augment_batch(cells, cfg.p_flip, rng)
        augmented += [
            traces.DirectionTrace(row, label=corpus[i].label) for row, i in zip(views, chunk)
        ]
    path = out / "augmented.dtrace"
    traces.save_dtrace(path, augmented)
    print(f"augmented {len(corpus)} traces x{args.views} with method={args.method}")
    return [args.input], [path]


def _augment_chunks(corpus, views: int, size: int):
    """Trace-index lists of at most ``size`` views in output order, each
    trace ``views`` times; a chunk never mixes trace lengths, so it stacks
    into a matrix."""
    chunk = []
    for i, t in enumerate(corpus):
        for _ in range(views):
            if chunk and (len(chunk) == size or len(t) != len(corpus[chunk[0]])):
                yield chunk
                chunk = []
            chunk.append(i)
    if chunk:
        yield chunk


def cmd_stats(args, out):
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
    return [args.input], [bdist_path, stats_path]


def cmd_pretrain(args, out):
    corpus = traces.load_dtrace(args.input, trace_len=args.trace_len)
    unlabeled = training.strip_labels(corpus)
    dist = _load_dist(args, corpus) if args.method == "net" else None
    result = training.pretrain(
        unlabeled,
        _config(training.TrainConfig, args, seed=args.seed),
        _config(aug_mod.AugmentConfig, args),
        dist,
        _config(training.SslConfig, args),
        dims=_config(models.ModelDims, args),
        augmenter=args.method,
    )
    outputs = _save_model(out, result.params, loss_history=result.loss_history)
    print(
        f"pre-trained on {len(unlabeled)} traces for {args.epochs} epochs; "
        f"loss {result.loss_history[0]:.4f} -> {result.loss_history[-1]:.4f}"
    )
    return [args.input], outputs


def _map_unmonitored(corpus) -> list:
    """Remap the -1 unmonitored sentinel to the last class index."""
    labels = [t.label for t in corpus if t.label is not None and t.label >= 0]
    n_mon = max(labels) + 1 if labels else 0
    mapped = []
    for t in corpus:
        if t.label == traces.UNMONITORED:
            mapped.append(traces.DirectionTrace(t.cells, label=n_mon))
        else:
            mapped.append(t)
    return mapped


def cmd_finetune(args, out):
    params, corpus = _load_model(args)
    corpus = _map_unmonitored(corpus)
    if args.n_labeled is not None:
        per_class: dict[int, int] = {}
        kept = []
        for t in corpus:
            if per_class.get(t.label, 0) < args.n_labeled:
                kept.append(t)
                per_class[t.label] = per_class.get(t.label, 0) + 1
        corpus = kept
    result = training.finetune(params, corpus, _config(training.TrainConfig, args, seed=args.seed))
    outputs = _save_model(out, result.params, loss_history=result.loss_history)
    print(f"fine-tuned on {len(corpus)} labeled traces; final loss {result.loss_history[-1]:.4f}")
    return [args.model, args.input], outputs


def cmd_netfm(args, out):
    labeled = _map_unmonitored(traces.load_dtrace(args.labeled, trace_len=args.trace_len))
    unlabeled = traces.load_dtrace(args.unlabeled, trace_len=args.trace_len)
    dist = _load_dist(args, unlabeled)
    result = training.train_netfm(
        labeled,
        unlabeled,
        _config(training.TrainConfig, args, seed=args.seed),
        _config(training.SslConfig, args),
        _config(aug_mod.AugmentConfig, args),
        p_flip_weak=args.p_flip,
        dist=dist,
        dims=_config(models.ModelDims, args),
    )
    outputs = _save_model(out, result.params, loss_history=result.loss_history,
                          retained_history=result.retained_history)
    print(
        f"semi-supervised run on {len(labeled)} labeled + {len(unlabeled)} unlabeled; "
        f"final loss {result.loss_history[-1]:.4f}"
    )
    return [args.labeled, args.unlabeled], outputs


def cmd_eval_cw(args, out):
    params, corpus = _load_model(args, classifier=True)
    labels = [t.label for t in corpus]
    if any(lab is None or lab < 0 for lab in labels):
        raise UsageError("closed-world evaluation needs non-negative labels")
    preds = models.predict_batch(params, corpus)
    accuracy = evaluation.closed_world_accuracy(preds, labels)
    path = out / "accuracy.txt"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(f"{accuracy!r}\n")
    print(f"closed-world accuracy: {accuracy:.4f} over {len(corpus)} traces")
    return [args.model, args.input], [path]


def cmd_eval_ow(args, out):
    params, corpus = _load_model(args, classifier=True)
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
    return [args.model, args.input], [path]


def cmd_gradcheck(args, out):
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
    if not passed:
        print(f"FAIL: tolerance {args.tolerance:g} exceeded", file=sys.stderr)
        return [], [path], EXIT_CHECK
    return [], [path]


# -- entry -------------------------------------------------------------------


_BOOLEANS = {"true": True, "1": True, "false": False, "0": False}


def _config_value(action, text, where):
    """Convert one config-file value the way the command line would."""
    if action.nargs == 0:  # a store_true flag
        try:
            return _BOOLEANS[text.lower()]
        except KeyError:
            raise UsageError(f"{where}: {action.dest} takes true/false/1/0, got {text!r}")
    try:
        value = (action.type or str)(text)
    except (argparse.ArgumentTypeError, ValueError) as exc:
        raise UsageError(f"{where}: {action.dest}: {exc}")
    if action.choices is not None and value not in action.choices:
        raise UsageError(f"{where}: {action.dest} must be one of {', '.join(action.choices)}")
    return value


def _apply_config_file(commands, argv):
    """Load key=value defaults from --config before the real parse.

    A key is a flag's destination name (``-`` may stand for ``_``) and must be
    defined by some subcommand; boolean flags take true/false/1/0. Explicit
    command-line flags override file entries because they are parsed on top
    of these defaults.
    """
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config", default=None)
    known, _ = probe.parse_known_args(argv)
    if known.config is None:
        return
    actions: dict[str, list] = {}
    for command in commands.values():
        for a in command._actions:
            if a.option_strings and a.dest != "help":
                actions.setdefault(a.dest, []).append((command, a))
    defaults = {}
    try:
        with open(known.config, "r", encoding="ascii") as fh:
            lines = fh.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read config file {known.config}: {exc}")
    for line_no, line in enumerate(lines, start=1):
        where = f"{known.config}:{line_no}"
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{where}: expected key=value")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        if key not in actions:
            raise UsageError(f"{where}: unknown key {key!r}")
        for command, a in actions[key]:
            defaults.setdefault(command, {})[key] = _config_value(a, value.strip(), where)
            a.required = False  # the file supplies it
    for command, values in defaults.items():
        command.set_defaults(**values)


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
    started = time.time()
    try:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        inputs, outputs, *code = args.func(args, out)
        write_manifest(
            out / "manifest.json",
            command=args.command,
            config=_config_snapshot(args),
            seed=args.seed,
            inputs=inputs,
            outputs=outputs,
            started=started,
        )
        return code[0] if code else EXIT_OK
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        # glibc keeps freed heap pages resident, so a command run in-process
        # after others would otherwise start from their leftovers
        if _malloc_trim is not None:
            _malloc_trim(0)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
