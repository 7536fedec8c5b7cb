"""Golden sha256 digests of small training runs and CLI chain outputs.

They pin the exact bytes of augmentation, training and optimizer
arithmetic, so any change to draw order, augmentation arithmetic or
optimizer arithmetic shows up here as a digest mismatch. The three
``cli-gen``/``cli-split`` digests pin the synthetic corpus (``synth``'s
draw order and noise arithmetic, ``.ttrace`` formatting) and the
``.dtrace`` writer; they date from the per-burst synthesis loop and the
per-row ``.dtrace`` encoder. The two CLI augment digests hold no weights;
both were re-recorded when ``traceaug augment`` stopped spawning one
stream per view and let its views draw from one ``RandomSource(seed)`` in
output order, as training does. Draw slots are unchanged: 3 draws per
trace plus 3 per burst for net, one per nonzero cell for flip. The five
checkpoint digests (``pretrain-net``, ``pretrain-flip``, ``finetune-net``,
``netfm``, ``short-pretrain-finetune``) were re-recorded when training
moved from float64 to float32; the checkpoint still stores float64 blocks,
which hold the float32 weights exactly. The ``supervised`` digest pins
the no-pre-training baseline with weak flips and a partial last batch; it
was recorded while the flips were still made inside the training step.
They depend on the numpy and BLAS builds, whose float32 kernels may round
differently; CI prints both.

``short-pretrain-finetune`` pins the first layer's live-prefix path: its
traces all end by cell 48 of 64, so every fine-tuning batch and most
pre-training batches leave the weight columns past their last live cell
out of the products, and the optimizer gets first-layer gradients of
varying width, whose missing columns only decay Adam's state. The other
digests cannot show that path, because each of their batches has a row
that reaches the last cell. At 64 cells the shorter sums round exactly as
the full-width ones do, in float32 as in float64, so this digest is also
what full-width products give; the bytes differ only at longer traces
(the 5,000-cell chain).
"""

import numpy as np
import pytest

from traceaug.augment import AugmentConfig
from traceaug.cli import main
from traceaug.distributions import build_distribution
from traceaug.losses import SslConfig
from traceaug.manifest import content_hash
from traceaug.models import ModelDims, save_params
from traceaug.traces import DirectionTrace, fit_length
from traceaug.training import TrainConfig, finetune, pretrain, train_netfm, train_supervised

DIMS = ModelDims(trace_len=64, hidden=(32,), embed_dim=16)

# nonzero counts of the corpus straddle low_cells..high_cells, so the
# resize direction draw fires; bursts are large enough for all three
# manipulations; some traces lead with more zeros than the prefix holds
NET_CFG = AugmentConfig(
    shift_max=4, r_insert=0.5, r_merge=0.3, burst_size_threshold=6,
    preserve_prefix=8, p_flip=0.3, low_cells=34, high_cells=50,
)

GOLDEN = {
    "pretrain-net": "33996b1b4f7ee627f0d63b55243f93a35f486bcd88e0d5f662a01ffae944d9f6",
    "pretrain-flip": "7a6ae96a09310a267dbf1826dc59afada72ee10c9ffc67823092fef1007e2357",
    "finetune-net": "d6c2fc66752159e94a7ebab6d87c1d5b7d9321864bc986205b6283b2244d6e2d",
    "netfm": "b389900888cd2ea7b85085602ccc36710137f68d216959b07a0f4f9805d89581",
    "supervised": "2e4a2f289ce7925f90edb8b17e4a637a985e9d9f73e09b866d01454fe4f5970e",
    "cli-augment-net": "b7faa023e5e17ff7f9fc6f6fe2715f0f22cb2a0bd60a62cfe5ca916498288f73",
    "cli-augment-flip": "d1b045409c5e9911c0dcd692fc098ea183aaba5193d9a638d0bd659454494149",
    "short-pretrain-finetune": "109e41aeb52406e10413d4d0d07e3f05d7e6493a7f2a01d5ec86bf8a8e64a049",
    "cli-gen-ttrace": "3e542106a6fd5ae72d4db75582b8132063f0c8e53d17ab1434b528b08bbc0007",
    "cli-split-superior": "de37116c44a69ea30b0bc6c068e88651df9271f4c65dfd0a2d1dc624a6e9face",
    "cli-split-inferior": "2c9b28b8581ed8ff8fd120753a4d3042fddfad725544e4ba2a48a959b6e29512",
}


def bursty_corpus(n, seed, labels=None, length=64):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        lead = int(rng.integers(0, 13)) if i % 3 == 0 else 0
        cells = [0] * lead
        direction = -1
        while len(cells) < length - lead // 2:
            size = int(rng.integers(1, 16)) if direction < 0 else int(rng.integers(1, 4))
            cells += [direction] * size
            direction = -direction
        stop = int(rng.integers(lead + 30, length + 1))
        label = None if labels is None else i % labels
        out.append(DirectionTrace(fit_length(np.array(cells[:stop]), length), label=label))
    return out


def short_corpus(n, seed, labels=None):
    """bursty_corpus traces of 48 cells, zero-padded to 64."""
    return [DirectionTrace(fit_length(t.cells, 64), label=t.label)
            for t in bursty_corpus(n, seed, labels, length=48)]


def params_digest(params, tmp_path, name):
    path = tmp_path / f"{name}.ckpt"
    save_params(path, params)
    return content_hash(path)


@pytest.fixture(scope="module")
def unlabeled():
    return bursty_corpus(32, seed=11)


def run_pretrain(unlabeled, augmenter):
    cfg = TrainConfig(batch_size=8, epochs=2, learning_rate=1e-3, cosine_decay=True, seed=3)
    dist = build_distribution(unlabeled) if augmenter == "net" else None
    return pretrain(
        unlabeled, cfg, NET_CFG, dist, SslConfig(tau_s=0.2), dims=DIMS, augmenter=augmenter
    )


@pytest.mark.parametrize("augmenter", ["net", "flip"])
def test_pretrain_checkpoint_digest(unlabeled, augmenter, tmp_path):
    result = run_pretrain(unlabeled, augmenter)
    key = f"pretrain-{augmenter}"
    assert params_digest(result.params, tmp_path, key) == GOLDEN[key]


def test_finetune_checkpoint_digest(unlabeled, tmp_path):
    pre = run_pretrain(unlabeled, "net")
    labeled = bursty_corpus(12, seed=12, labels=3)
    cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=5e-4, seed=5)
    tuned = finetune(pre.params, labeled, cfg)
    assert params_digest(tuned.params, tmp_path, "finetune-net") == GOLDEN["finetune-net"]


def test_short_traces_pretrain_finetune_digest(tmp_path):
    unlabeled = short_corpus(32, seed=14)
    labeled = short_corpus(12, seed=15, labels=3)
    assert not np.stack([t.cells for t in unlabeled + labeled])[:, 48:].any()
    cfg = TrainConfig(batch_size=8, epochs=2, learning_rate=1e-3, cosine_decay=True, seed=6)
    pre = pretrain(unlabeled, cfg, NET_CFG, build_distribution(unlabeled),
                   SslConfig(tau_s=0.2), dims=DIMS)
    tuned = finetune(pre.params, labeled, TrainConfig(batch_size=4, epochs=2, seed=7))
    digest = params_digest(tuned.params, tmp_path, "short-pretrain-finetune")
    assert digest == GOLDEN["short-pretrain-finetune"]


def test_netfm_checkpoint_digest(unlabeled, tmp_path):
    labeled = bursty_corpus(12, seed=13, labels=3)
    cfg = TrainConfig(
        batch_size=4, epochs=2, learning_rate=1e-2, optimizer="sgd", momentum=0.9,
        seed=4, mu=2,
    )
    ssl = SslConfig(tau_f=0.45, lambda_u=1.0, mu=2)
    dist = build_distribution(unlabeled)
    result = train_netfm(labeled, unlabeled, cfg, ssl, NET_CFG, 0.2, dist, dims=DIMS)
    assert sum(result.retained_history) > 0
    assert params_digest(result.params, tmp_path, "netfm") == GOLDEN["netfm"]


def test_supervised_checkpoint_digest(tmp_path):
    labeled = bursty_corpus(14, seed=16, labels=3)  # batches of 4, 4, 4 and 2
    cfg = TrainConfig(batch_size=4, epochs=2, learning_rate=1e-3, seed=8)
    result = train_supervised(labeled, cfg, p_flip_weak=0.2, dims=DIMS)
    assert params_digest(result.params, tmp_path, "supervised") == GOLDEN["supervised"]


def test_cli_augment_digests(tmp_path):
    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("gen", "--classes", 3, "--visits", 6, "--seed", 7, "--out", tmp_path / "gen")
    run("ncm-split", "--in", tmp_path / "gen" / "dataset.ttrace", "--trace-len", 150,
        "--out", tmp_path / "split")
    src = tmp_path / "split" / "superior.dtrace"
    run("augment", "--in", src, "--views", 3, "--seed", 5, "--out", tmp_path / "net")
    run("augment", "--in", src, "--method", "flip", "--views", 2, "--seed", 6,
        "--p-flip", 0.3, "--out", tmp_path / "flip")
    digests = {
        "cli-gen-ttrace": content_hash(tmp_path / "gen" / "dataset.ttrace"),
        "cli-split-superior": content_hash(src),
        "cli-split-inferior": content_hash(tmp_path / "split" / "inferior.dtrace"),
        "cli-augment-net": content_hash(tmp_path / "net" / "augmented.dtrace"),
        "cli-augment-flip": content_hash(tmp_path / "flip" / "augmented.dtrace"),
    }
    assert digests == {k: GOLDEN[k] for k in digests}
