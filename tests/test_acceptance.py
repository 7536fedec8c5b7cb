"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete. The desk-scale generalization experiment
(criterion 7) dominates the runtime at a few minutes.
"""

import json
import time

import numpy as np

from traceaug.augment import (
    AugmentConfig,
    insert_outgoing_bursts,
    merge_incoming_bursts,
    net_augment,
)
from traceaug.bursts import bursts_to_cells, extract_bursts
from traceaug.cli import main as cli_main
from traceaug.distributions import BurstSizeDistribution, build_distribution
from traceaug.evaluation import closed_world_accuracy, open_world_eval, pr_curve
from traceaug.gradcheck import run_gradient_checks
from traceaug.losses import SslConfig, nt_xent_loss
from traceaug.models import ModelDims, pack_params, predict_batch
from traceaug.rng import RandomSource
from traceaug.synth import INFERIOR_PROFILE, SUPERIOR_PROFILE, make_dataset, make_templates
from traceaug.traces import (
    DirectionTrace,
    FilterPolicy,
    TimedTrace,
    filter_traces,
    fit_length,
    lower_median,
    partition_by_ncm,
    to_direction_trace,
    compute_ncm,
)
from traceaug.training import (
    TrainConfig,
    finetune,
    pretrain,
    strip_labels,
    train_netfm,
    train_supervised,
)


def weights(p):
    """Every weight block of p, flattened in checkpoint order."""
    blocks = [a for layer in p.encoder for a in layer] + [p.proj_w1, p.proj_w2, p.clf_w, p.clf_b]
    return pack_params([a for a in blocks if a is not None])


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def random_suffix_zero_trace(rng, max_len=5000):
    total = int(rng.integers(1, max_len + 1))
    body_len = int(rng.integers(1, total + 1))
    body = np.where(rng.random(body_len) < 0.5, -1, 1)
    return DirectionTrace(fit_length(body, total))


def test_criterion_1_burst_round_trip():
    rng = np.random.default_rng(1001)
    start = time.time()
    for _ in range(10_000):
        trace = random_suffix_zero_trace(rng)
        rebuilt = bursts_to_cells(extract_bursts(trace), len(trace))
        assert np.array_equal(rebuilt, trace.cells)
    elapsed = time.time() - start
    assert elapsed < 5.0, f"round trip took {elapsed:.1f}s"
    report(1, f"10,000 burst round trips exact in {elapsed:.1f}s")


def test_criterion_2_netaugment_structural_invariants():
    rng = np.random.default_rng(1002)
    dist = BurstSizeDistribution(np.arange(1, 6), np.array([5, 4, 3, 2, 1]))
    no_shift = AugmentConfig(shift_max=0)
    cfg = AugmentConfig()
    start = time.time()
    for i in range(10_000):
        n_nonzero = int(rng.integers(25, 480))
        body = np.where(rng.random(n_nonzero) < 0.65, -1, 1)
        trace = DirectionTrace(fit_length(body, 500))

        out = net_augment(trace, no_shift, dist, RandomSource(i))
        assert np.array_equal(out.cells[:20], trace.cells[:20])

        bursts = extract_bursts(trace)
        incoming = bursts[bursts < 0].sum()
        slots = np.random.default_rng(i).integers(0, 2**64, (len(bursts), 3), dtype=np.uint64)
        rows = np.zeros(len(bursts), dtype=np.int64)
        inserted, _ = insert_outgoing_bursts(bursts, rows, cfg, dist, slots)
        merged, _ = merge_incoming_bursts(bursts, rows, cfg, slots)
        assert inserted[inserted < 0].sum() == incoming
        assert merged[merged < 0].sum() == incoming

        first = net_augment(trace, cfg, dist, RandomSource(i))
        second = net_augment(trace, cfg, dist, RandomSource(i))
        assert first == second
    elapsed = time.time() - start
    assert elapsed < 30.0, f"invariant sweep took {elapsed:.1f}s"
    report(2, f"10,000 augmentation invariant checks in {elapsed:.1f}s")


def test_criterion_3_gradient_correctness():
    start = time.time()
    results = run_gradient_checks(seed=2024, instances=20, step=1e-5, tolerance=1e-4)
    elapsed = time.time() - start
    assert results.pop("passed") == 1.0
    worst = max(results.values())
    assert worst < 1e-4
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    report(3, f"all gradients within {worst:.2e} of finite differences in {elapsed:.1f}s")


def test_criterion_4_loss_identities():
    rng = np.random.default_rng(1004)
    # single positive pair: no negatives, loss exactly zero
    loss, _ = nt_xent_loss(rng.normal(size=(2, 8)), 0.5)
    assert abs(loss) <= 1e-12

    # uniform rescaling cannot move a cosine-based loss
    z = rng.normal(size=(12, 6))
    base, _ = nt_xent_loss(z, 0.5)
    for c in (1e-2, 3.7, 250.0):
        scaled, _ = nt_xent_loss(c * z, 0.5)
        assert abs(scaled - base) < 1e-12

    # lambda_u = 0 collapses the semi-supervised loop onto supervised training
    dims = ModelDims(trace_len=64, hidden=(32,), embed_dim=16)
    patterns = [np.where(rng.random(64) < 0.5, -1, 1) for _ in range(3)]
    labeled = [
        DirectionTrace(p.copy(), label=c)
        for c, p in enumerate(patterns)
        for _ in range(4)
    ]
    unlabeled = [
        DirectionTrace(fit_length(np.where(rng.random(40) < 0.5, -1, 1), 64))
        for _ in range(40)
    ]
    dist = build_distribution(unlabeled)
    cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=1e-3, seed=5, mu=2)
    semi = train_netfm(
        labeled, unlabeled, cfg, SslConfig(lambda_u=0.0, tau_f=0.9),
        AugmentConfig(), p_flip_weak=0.1, dist=dist, dims=dims,
    )
    plain = train_supervised(labeled, cfg, p_flip_weak=0.1, dims=dims)
    assert np.array_equal(weights(semi.params), weights(plain.params)), (
        "lambda_u=0 trajectory diverged"
    )

    # tau_f = 1 with an unsaturated model never retains a pseudo-label
    strict = train_netfm(
        labeled, unlabeled, cfg, SslConfig(lambda_u=1.0, tau_f=1.0),
        AugmentConfig(), p_flip_weak=0.1, dist=dist, dims=dims,
    )
    assert strict.retained_history and all(r == 0 for r in strict.retained_history)
    assert np.array_equal(weights(strict.params), weights(plain.params))
    report(4, "pair-loss zero, scaling invariance, lambda_u=0 twin, tau_f=1 dead term")


def _enumerate_confusion(preds, is_monitored, labels, threshold, n_mon):
    tp = fp = fn = tn = 0
    for row, monitored, label in zip(preds, is_monitored, labels):
        top = max(range(len(row)), key=lambda k: (row[k], -k))
        positive = top < n_mon and row[top] > threshold
        if monitored:
            tp += positive
            fn += not positive
        else:
            fp += positive
            tn += not positive
    return tp, fp, fn, tn


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(1005)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        classes = int(rng.integers(2, 5))
        preds = rng.dirichlet(np.ones(classes), size=n)
        is_monitored = rng.random(n) < 0.5
        labels = rng.integers(0, classes, size=n)
        threshold = float(rng.random())
        out = open_world_eval(preds, is_monitored, labels, threshold)
        assert (out.tp, out.fp, out.fn, out.tn) == _enumerate_confusion(
            preds, is_monitored, labels, threshold, classes
        )

    for trial in range(20):
        n = int(rng.integers(4, 40))
        classes = int(rng.integers(2, 6))
        preds = rng.dirichlet(np.ones(classes), size=n)
        is_monitored = rng.random(n) < 0.5
        labels = rng.integers(0, classes, size=n)
        grid = np.linspace(0.0, 1.0, 50)
        curve = pr_curve(preds, is_monitored, labels, grid)
        recalls = [o.recall for o in curve]
        assert all(b <= a for a, b in zip(recalls, recalls[1:]))
    report(5, "200 open-world enumerations exact; recall monotone on 50-point grids")


def test_criterion_6_ncm_and_filtering():
    # 400 kB of downstream data over 10 s: exactly the 40 kBps boundary
    n = 100
    boundary = TimedTrace(
        times=np.linspace(0.0, 10.0, n),
        directions=np.full(n, -1),
        sizes=np.full(n, 4000),
    )
    assert compute_ncm(boundary) == 40000.0
    superior, inferior = partition_by_ncm([boundary], 40000.0)
    assert len(superior) == 1 and not inferior

    rng = np.random.default_rng(1006)
    for _ in range(30):
        corpus = []
        for _ in range(int(rng.integers(2, 40))):
            m = int(rng.integers(2, 20))
            corpus.append(
                TimedTrace(
                    times=np.sort(rng.random(m)) * 10 + np.linspace(0, 1e-6, m),
                    directions=np.where(rng.random(m) < 0.5, -1, 1),
                    sizes=rng.integers(1, 1000, size=m),
                )
            )
        threshold = float(rng.uniform(0, 2000))
        superior, inferior = partition_by_ncm(corpus, threshold)
        assert len(superior) + len(inferior) == len(corpus)
        assert all(compute_ncm(t) >= threshold for t in superior)
        assert all(compute_ncm(t) < threshold for t in inferior)

    for _ in range(100):
        traces = []
        for _ in range(int(rng.integers(1, 40))):
            size = int(rng.integers(1, 150))
            label = int(rng.integers(0, 5))
            traces.append(DirectionTrace(fit_length(-np.ones(size), 150), label=label))
        fraction = float(rng.uniform(0.05, 0.95))
        sizes_by_label = {}
        for t in traces:
            sizes_by_label.setdefault(t.label, []).append(t.nonzero_count)
        expected = [
            t
            for t in traces
            if not t.nonzero_count
            < fraction * lower_median(sizes_by_label[t.label])
        ]
        got = filter_traces(traces, FilterPolicy("closed-world", median_fraction=fraction))
        assert got == expected
    report(6, "NCM boundary exact; partitions disjoint covers; median filter matches oracle")


# -- criterion 7: desk-scale generalization experiment -----------------------

N_CLASSES = 20
N_UNLABELED = 100
N_LABELED = 5
N_TEST = 30
TRACE_LEN = 500
EXPERIMENT_DIMS = ModelDims(trace_len=TRACE_LEN, hidden=(256, 128), embed_dim=128)
PRETRAIN_SSL = SslConfig(tau_s=0.1)


def build_experiment_data(seed):
    """Synthesize one seed's corpora and run them through the real pipeline:
    NCM partitioning, direction conversion, closed-world filtering."""
    rng = RandomSource(seed)
    templates = make_templates(N_CLASSES, rng.spawn(0))
    corpus = make_dataset(
        templates,
        [SUPERIOR_PROFILE, INFERIOR_PROFILE],
        [N_UNLABELED + N_LABELED + N_TEST, N_TEST],
        rng.spawn(1),
    )
    superior, inferior = partition_by_ncm(corpus, 40000.0)
    sup_by_class, test_inf = {}, []
    for t in superior:
        sup_by_class.setdefault(t.label, []).append(to_direction_trace(t, TRACE_LEN))
    for t in inferior:
        test_inf.append(to_direction_trace(t, TRACE_LEN))
    unlabeled, labeled, test_sup = [], [], []
    for c in range(N_CLASSES):
        per_class = sup_by_class[c]
        assert len(per_class) == N_UNLABELED + N_LABELED + N_TEST
        unlabeled += per_class[:N_UNLABELED]
        labeled += per_class[N_UNLABELED : N_UNLABELED + N_LABELED]
        test_sup += per_class[N_UNLABELED + N_LABELED :]
    labeled = filter_traces(labeled, FilterPolicy("closed-world"))
    return strip_labels(unlabeled), labeled, test_sup, test_inf


def _accuracy(params, traces):
    return closed_world_accuracy(predict_batch(params, traces), [t.label for t in traces])


def test_criterion_7_generalization_experiment():
    start = time.time()
    inferior_acc = {"net": [], "flip": [], "supervised": []}
    for seed in range(5):
        unlabeled, labeled, _, test_inf = build_experiment_data(seed)
        dist = build_distribution(unlabeled)
        pre_cfg = TrainConfig(
            batch_size=64, epochs=30, learning_rate=1e-3, cosine_decay=True, seed=seed
        )
        ft_cfg = TrainConfig(batch_size=32, epochs=30, learning_rate=5e-4, seed=seed)
        for method in ("net", "flip"):
            pre = pretrain(
                unlabeled, pre_cfg, AugmentConfig(),
                dist if method == "net" else None,
                PRETRAIN_SSL, dims=EXPERIMENT_DIMS, augmenter=method,
            )
            tuned = finetune(pre.params, labeled, ft_cfg)
            inferior_acc[method].append(_accuracy(tuned.params, test_inf))
        baseline = train_supervised(labeled, ft_cfg, dims=EXPERIMENT_DIMS)
        inferior_acc["supervised"].append(_accuracy(baseline.params, test_inf))

    elapsed = time.time() - start
    net = float(np.mean(inferior_acc["net"]))
    flip = float(np.mean(inferior_acc["flip"]))
    supervised = float(np.mean(inferior_acc["supervised"]))
    ordering_wins = sum(
        n >= f for n, f in zip(inferior_acc["net"], inferior_acc["flip"])
    )

    assert net >= supervised + 0.10, (
        f"(a) burst-augmented pipeline {net:.3f} vs supervised {supervised:.3f}"
    )
    assert net >= flip + 0.03 or ordering_wins >= 4, (
        f"(b) burst {net:.3f} vs flip {flip:.3f}, ordering wins {ordering_wins}/5"
    )
    assert elapsed < 15 * 60, f"experiment took {elapsed/60:.1f} min"
    report(
        7,
        f"inferior-test accuracy net={net:.3f} flip={flip:.3f} "
        f"supervised={supervised:.3f} over 5 seeds in {elapsed/60:.1f} min",
    )


def test_criterion_8_distribution_sampling():
    rng = np.random.default_rng(1008)
    support = np.arange(1, 21)
    counts = rng.integers(1, 200, size=20)
    dist = BurstSizeDistribution(support, counts)
    expected = dist.counts / dist.total
    draws = np.empty(100_000, dtype=np.int64)
    source = RandomSource(88)
    for i in range(len(draws)):
        draws[i] = dist.sample(source)
    observed = np.bincount(draws, minlength=21)[1:21] / len(draws)
    worst = float(np.abs(observed - expected).max())
    assert worst < 0.01, f"max per-value deviation {worst:.4f}"
    report(8, f"100,000 draws from a 20-point histogram deviate at most {worst:.4f}")


def test_criterion_9_cli_reproducibility(tmp_path):
    def run(*argv):
        code = cli_main([str(a) for a in argv])
        assert code == 0, argv
        return code

    def hashes(out_dir):
        manifest = json.loads((out_dir / "manifest.json").read_text())
        return {p.rsplit("/", 1)[-1]: h for p, h in manifest["outputs"].items()}

    def twice(name, *argv):
        run(*argv, "--out", tmp_path / f"{name}_a")
        run(*argv, "--out", tmp_path / f"{name}_b")
        a = hashes(tmp_path / f"{name}_a")
        b = hashes(tmp_path / f"{name}_b")
        assert a and a == b, f"{name} outputs differ between reruns"
        return tmp_path / f"{name}_a"

    gen = twice("gen", "gen", "--classes", 3, "--visits", 8, "--seed", 7)
    split = twice(
        "split", "ncm-split", "--in", gen / "dataset.ttrace", "--trace-len", 120
    )
    sup = split / "superior.dtrace"
    twice("augment", "augment", "--in", sup, "--seed", 5)
    twice("stats", "stats", "--in", sup)
    pt = twice(
        "pretrain", "pretrain", "--in", sup, "--epochs", 1, "--batch", 8,
        "--trace-len", 120, "--embed", 16, "--hidden", "32", "--seed", 3,
    )
    ft = twice(
        "finetune", "finetune", "--model", pt / "model.ckpt", "--in", sup,
        "--epochs", 2, "--seed", 3,
    )
    twice(
        "netfm", "netfm", "--labeled", sup, "--unlabeled", sup, "--epochs", 1,
        "--batch", 4, "--mu", 2, "--trace-len", 120, "--embed", 16,
        "--hidden", "32", "--seed", 2,
    )
    twice("evalcw", "eval-cw", "--model", ft / "model.ckpt", "--in", sup)
    twice(
        "evalow", "eval-ow", "--model", ft / "model.ckpt", "--in", sup,
        "--thresholds", "0,0.5,1.0",
    )
    twice("gradcheck", "gradcheck", "--instances", 2, "--seed", 0)
    report(9, "all ten commands rerun with byte-identical output hashes")
