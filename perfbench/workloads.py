"""The benchmark's workloads, their operations and their output checks.

Every workload is a closed-loop batch job in one process: one client runs
the operations in order, each starting when the previous one has ended.
An operation is one training phase or one CLI command. It fails when it
raises, when a CLI command exits non-zero, or when one of its output checks
fails; the operations after a failed one are skipped and count as failed.

* ``c7-seed`` — one seed of the criterion-7 experiment at the acceptance
  configuration: net and flip contrastive pre-training, each followed by
  fine-tuning, then the supervised baseline, all scored on the inferior
  test traces. No file I/O.
* ``netfm`` — the pseudo-label loop ``train_netfm`` with the CLI defaults on
  the same seed's corpora: one strong burst view and one weak flip view per
  unlabeled trace, SGD with momentum, no contrastive loss. No file I/O. Run
  by hand; it is not one of the workloads ``BENCHMARK.json`` names.
* ``cli-5000`` — the README chain run in-process through ``cli.main`` at
  5,000 cells on a fifth of the README corpus, the only workload that reads
  and writes trace files.
"""

import contextlib
import io
import json
import math
import shutil
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from traceaug import cli, distributions, evaluation, models, synth, training, traces
from traceaug.augment import AugmentConfig
from traceaug.losses import SslConfig
from traceaug.rng import RandomSource

# Bound before a traced run patches the package, so that writing and hashing
# outputs for the determinism check, after the timed work, is not traced.
from traceaug.manifest import content_hash as _content_hash
from traceaug.models import save_params as _save_params

NCM_THRESHOLD = 40000.0

#: Labeled traces per class that the CLI chain fine-tunes on.
CLI_N_LABELED = 5

#: Criterion-7 gates, applied to the workload's single seed.
GATE_OVER_SUPERVISED = 0.10
GATE_OVER_FLIP = 0.03


@dataclass(frozen=True)
class Scale:
    """Corpus and training sizes; ``FULL`` is the benchmark, ``SMOKE`` the
    benchmark's own tests."""

    classes: int = 20
    unlabeled: int = 100       # superior traces per class for pre-training
    labeled: int = 5           # superior traces per class for fine-tuning
    test: int = 30             # inferior test traces per class
    trace_len: int = 500
    hidden: tuple = (256, 128)
    embed: int = 128           # criterion-7 encoder width
    netfm_embed: int = 64      # CLI default width
    epochs: int = 30
    pretrain_batch: int = 64
    mu: int = 19
    cli_visits: str = "27,6"   # a fifth of the README corpus: several passes a run
    cli_trace_len: int = 5000
    cli_pretrain_epochs: int = 2
    cli_pretrain_batch: int = 64
    cli_finetune_epochs: int = 30
    cli_model_flags: tuple = ()


FULL = Scale()
SMOKE = Scale(
    classes=4, unlabeled=16, labeled=2, test=4, trace_len=120, hidden=(32,),
    embed=16, netfm_embed=16, epochs=1, pretrain_batch=16, mu=2,
    cli_visits="8,3", cli_trace_len=200, cli_pretrain_epochs=1,
    cli_pretrain_batch=8, cli_finetune_epochs=1,
    cli_model_flags=("--embed", "16", "--hidden", "32"),
)


# -- operations and checks ---------------------------------------------------


@dataclass
class Op:
    name: str
    error: str | None = None
    checks: dict = field(default_factory=dict)
    seconds: float = 0.0

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(self.checks.values())


@dataclass
class Iteration:
    """One pass over a workload's operations and what it produced."""

    ops: list = field(default_factory=list)
    wall_s: float = 0.0
    train_s: float = 0.0
    train_samples: int = 0
    accuracy: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)  # "op:artifact" -> sha256
    pseudo_retained_frac: float | None = None

    def run(self, name, fn, region):
        """Run one operation inside a trace region; None when it failed."""
        op = Op(name)
        self.ops.append(op)
        if any(o.error for o in self.ops[:-1]):
            op.error = "skipped after an earlier operation failed"
            return None
        start = time.perf_counter()
        try:
            with region(f"bench.{name}"):
                return fn()
        except Exception:
            op.error = traceback.format_exc(limit=-4)
            return None
        finally:
            op.seconds = time.perf_counter() - start

    def train(self, samples, call):
        start = time.perf_counter()
        result = call()
        self.train_s += time.perf_counter() - start
        self.train_samples += samples
        return result

    def op(self, name) -> Op:
        return next(o for o in self.ops if o.name == name)

    def check(self, op_name, check, passed):
        op = self.op(op_name)
        op.checks[check] = bool(op.checks.get(check, True) and passed)


def _finite_history(values) -> bool:
    return len(values) > 0 and all(math.isfinite(v) for v in values)


def _accuracy(params, test):
    preds = models.predict_batch(params, test)
    return evaluation.closed_world_accuracy(preds, [t.label for t in test])


# -- corpora for c7-seed and netfm -------------------------------------------


@dataclass
class Corpora:
    unlabeled: list
    labeled: list
    test: list
    dist: object


def build_corpora(seed: int, scale: Scale) -> Corpora:
    """One criterion-7 seed's corpora through the real pipeline: synthesis,
    NCM partition, direction conversion, closed-world filter, burst-size
    distribution."""
    rng = RandomSource(seed)
    templates = synth.make_templates(scale.classes, rng.spawn(0))
    per_class = scale.unlabeled + scale.labeled + scale.test
    corpus = synth.make_dataset(
        templates,
        [synth.SUPERIOR_PROFILE, synth.INFERIOR_PROFILE],
        [per_class, scale.test],
        rng.spawn(1),
    )
    superior, inferior = traces.partition_by_ncm(corpus, NCM_THRESHOLD)
    by_class = {}
    for t in superior:
        by_class.setdefault(t.label, []).append(traces.to_direction_trace(t, scale.trace_len))
    test = [traces.to_direction_trace(t, scale.trace_len) for t in inferior]
    unlabeled, labeled = [], []
    for c in range(scale.classes):
        rows = by_class.get(c, [])
        if len(rows) != per_class:
            raise ValueError(f"class {c}: {len(rows)} superior traces, expected {per_class}")
        unlabeled += rows[: scale.unlabeled]
        labeled += rows[scale.unlabeled : scale.unlabeled + scale.labeled]
    labeled = traces.filter_traces(labeled, traces.FilterPolicy("closed-world"))
    unlabeled = training.strip_labels(unlabeled)
    return Corpora(unlabeled, labeled, test, distributions.build_distribution(unlabeled))


def _checkpoint_digest(params, workdir: Path, name: str) -> str:
    path = workdir / f"{name}.ckpt"
    _save_params(path, params)
    return _content_hash(path)


# -- c7-seed -----------------------------------------------------------------


def run_c7(c: Corpora, scale: Scale, seed: int, region, workdir: Path) -> Iteration:
    it = Iteration()
    dims = models.ModelDims(trace_len=scale.trace_len, hidden=scale.hidden, embed_dim=scale.embed)
    pre_cfg = training.TrainConfig(
        batch_size=scale.pretrain_batch, epochs=scale.epochs, learning_rate=1e-3,
        cosine_decay=True, seed=seed,
    )
    ft_cfg = training.TrainConfig(
        batch_size=32, epochs=scale.epochs, learning_rate=5e-4, seed=seed
    )
    ssl = SslConfig(tau_s=0.1)
    steps = len(c.unlabeled) // pre_cfg.batch_size
    pre_samples = scale.epochs * steps * pre_cfg.batch_size * 2
    ft_samples = scale.epochs * len(c.labeled)
    results = {}

    def pretrain(method):
        dist = c.dist if method == "net" else None
        return it.train(pre_samples, lambda: training.pretrain(
            c.unlabeled, pre_cfg, AugmentConfig(), dist, ssl, dims=dims, augmenter=method
        ))

    def finetune(pre):
        tuned = it.train(ft_samples, lambda: training.finetune(pre.params, c.labeled, ft_cfg))
        return tuned, _accuracy(tuned.params, c.test)

    def supervised():
        base = it.train(ft_samples, lambda: training.train_supervised(c.labeled, ft_cfg, dims=dims))
        return base, _accuracy(base.params, c.test)

    start = time.perf_counter()
    for method in ("net", "flip"):
        pre = it.run(f"pretrain-{method}", lambda: pretrain(method), region)
        results[f"pretrain-{method}"] = (pre, None)
        results[f"finetune-{method}"] = it.run(f"finetune-{method}", lambda: finetune(pre), region)
    results["supervised"] = it.run("supervised", supervised, region)
    it.wall_s = time.perf_counter() - start

    chance = 1.0 / scale.classes
    for name, outcome in results.items():
        if outcome is None or outcome[0] is None:
            continue
        trained, acc = outcome
        it.check(name, "loss_finite", _finite_history(trained.loss_history))
        if acc is None:
            continue
        label = name.rsplit("-", 1)[-1]
        it.accuracy[label] = acc
        it.check(name, "accuracy_above_chance", acc > chance)
        it.digests[f"{name}:model.ckpt"] = _checkpoint_digest(trained.params, workdir, name)
    if {"net", "flip", "supervised"} <= it.accuracy.keys():
        apply_gates(it)
    return it


def apply_gates(it: Iteration) -> None:
    """Criterion-7 gates on this seed's accuracies, charged to the net model."""
    acc = it.accuracy
    it.check("finetune-net", "gate_net_ge_supervised_plus_0.10",
             acc["net"] >= acc["supervised"] + GATE_OVER_SUPERVISED)
    it.check("finetune-net", "gate_net_ge_flip_plus_0.03",
             acc["net"] >= acc["flip"] + GATE_OVER_FLIP)


# -- netfm -------------------------------------------------------------------


def run_netfm(c: Corpora, scale: Scale, seed: int, region, workdir: Path) -> Iteration:
    it = Iteration()
    dims = models.ModelDims(
        trace_len=scale.trace_len, hidden=scale.hidden, embed_dim=scale.netfm_embed
    )
    cfg = training.TrainConfig(
        batch_size=32, epochs=scale.epochs, learning_rate=1e-2, optimizer="sgd",
        momentum=0.9, seed=seed, mu=scale.mu,
    )
    ssl = SslConfig(tau_f=0.95, lambda_u=1.0, mu=scale.mu)
    samples = scale.epochs * len(c.labeled) * (1 + scale.mu)

    def netfm():
        result = it.train(samples, lambda: training.train_netfm(
            c.labeled, c.unlabeled, cfg, ssl, AugmentConfig(), 0.1, c.dist, dims
        ))
        return result, _accuracy(result.params, c.test)

    start = time.perf_counter()
    outcome = it.run("netfm", netfm, region)
    it.wall_s = time.perf_counter() - start
    if outcome is not None:
        result, acc = outcome
        it.accuracy["netfm"] = acc
        it.check("netfm", "loss_finite", _finite_history(result.loss_history))
        it.check("netfm", "accuracy_above_chance", acc > 1.0 / scale.classes)
        it.digests["netfm:model.ckpt"] = _checkpoint_digest(result.params, workdir, "netfm")
        it.pseudo_retained_frac = sum(result.retained_history) / (
            scale.epochs * scale.mu * len(c.labeled)
        )
    return it


# -- cli-5000 ----------------------------------------------------------------


def _cli_chain(scale: Scale, seed: int, d: Path):
    """(command, output directory, argv) of the README chain."""
    sup, inf = d / "split" / "superior.dtrace", d / "split" / "inferior.dtrace"
    s, length = str(seed), str(scale.cli_trace_len)
    return [
        ("gen", d / "gen", ["gen", "--classes", str(scale.classes),
                            "--visits", scale.cli_visits, "--seed", s]),
        ("ncm-split", d / "split", ["ncm-split", "--in", d / "gen" / "dataset.ttrace",
                                    "--trace-len", length]),
        ("stats", d / "stats", ["stats", "--in", sup]),
        ("augment", d / "aug", ["augment", "--in", sup, "--views", "3", "--seed", s]),
        ("pretrain", d / "pt", ["pretrain", "--in", sup, "--trace-len", length,
                                "--epochs", str(scale.cli_pretrain_epochs),
                                "--batch", str(scale.cli_pretrain_batch), "--seed", s,
                                *scale.cli_model_flags]),
        ("finetune", d / "ft", ["finetune", "--model", d / "pt" / "model.ckpt",
                                "--in", sup, "--n-labeled", str(CLI_N_LABELED),
                                "--epochs", str(scale.cli_finetune_epochs), "--seed", s]),
        ("eval-cw", d / "cw", ["eval-cw", "--model", d / "ft" / "model.ckpt", "--in", inf]),
    ]


def _read_floats(path):
    return [float(line) for line in Path(path).read_text().split()]


def _manifest_ok(out: Path) -> bool:
    """The command wrote a manifest naming outputs that all exist."""
    try:
        record = json.loads((out / "manifest.json").read_text())
    except (OSError, ValueError):
        return False
    outputs = record.get("outputs", {})
    return bool(outputs) and all(Path(p).is_file() for p in outputs)


def run_cli(_, scale: Scale, seed: int, region, workdir: Path) -> Iteration:
    it = Iteration()
    d = workdir / "cli"
    shutil.rmtree(d, ignore_errors=True)
    d.mkdir(parents=True)
    chain = _cli_chain(scale, seed, d)
    codes, train_cmds = {}, {"pretrain", "finetune"}

    def command(name, argv):
        argv = [str(a) for a in argv]
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if name in train_cmds:
            it.train_s += time.perf_counter() - start
        codes[name] = code
        if code != 0:
            raise RuntimeError(f"traceaug {name} exited with code {code}")

    start = time.perf_counter()
    for name, out, argv in chain:
        it.run(name, lambda: command(name, [*argv, "--out", out]), region)
    it.wall_s = time.perf_counter() - start

    for name, out, _ in chain:
        if codes.get(name) is None:
            continue
        it.check(name, "exit_0", codes[name] == 0)
        it.check(name, "manifest_written", _manifest_ok(out))
    for name, out in (("pretrain", d / "pt"), ("finetune", d / "ft")):
        if codes.get(name) == 0:
            history = _read_floats(out / "loss_history.txt")
            it.check(name, "loss_finite", _finite_history(history))
            it.digests[f"{name}:model.ckpt"] = _content_hash(out / "model.ckpt")
    if codes.get("augment") == 0:
        it.digests["augment:augmented.dtrace"] = _content_hash(d / "aug" / "augmented.dtrace")
    if codes.get("eval-cw") == 0:
        acc = _read_floats(d / "cw" / "accuracy.txt")[0]
        it.accuracy["net"] = acc
        it.check("eval-cw", "accuracy_above_chance", acc > 1.0 / scale.classes)

    if codes.get("finetune") == 0:
        with open(d / "split" / "superior.dtrace", encoding="ascii") as fh:
            labels = Counter(line.split("\t", 1)[0] for line in fh)
        n_sup = sum(labels.values())
        n_labeled = sum(min(n, CLI_N_LABELED) for n in labels.values())
        steps = n_sup // scale.cli_pretrain_batch
        it.train_samples = (
            scale.cli_pretrain_epochs * steps * scale.cli_pretrain_batch * 2
            + scale.cli_finetune_epochs * n_labeled
        )
    return it


# -- registry ----------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    setup: object    # (seed, scale) -> inputs of every pass
    iterate: object  # (inputs, scale, seed, region, workdir) -> Iteration


WORKLOADS = {
    "c7-seed": Workload(build_corpora, run_c7),
    "netfm": Workload(build_corpora, run_netfm),
    "cli-5000": Workload(lambda seed, scale: None, run_cli),
}
