"""Golden sha256 digests of small training runs and CLI augment outputs.

The digests were recorded before the augmentation engine was batched and
the Adam step fused, so they pin the exact bytes the per-trace engine and
the unfused optimizer produced. Any change to draw order, augmentation
arithmetic or optimizer arithmetic shows up here as a digest mismatch.
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
from traceaug.training import TrainConfig, finetune, pretrain, train_netfm

DIMS = ModelDims(trace_len=64, hidden=(32,), embed_dim=16)

# nonzero counts of the corpus straddle low_cells..high_cells, so the
# resize direction draw fires; bursts are large enough for all three
# manipulations; some traces lead with more zeros than the prefix holds
NET_CFG = AugmentConfig(
    shift_max=4, r_insert=0.5, r_merge=0.3, burst_size_threshold=6,
    preserve_prefix=8, p_flip=0.3, low_cells=34, high_cells=50,
)

GOLDEN = {
    "pretrain-net": "f3c30d05f20aea0f3be8c0aabec788b12ae9e9a2f2f6750cee1b9017a0b7e49c",
    "pretrain-flip": "7149526aaa036d943a18bd6f54e92a0658e83e38c38228541dc12ad248002af7",
    "finetune-net": "3949774ee5171fefbe491fb7e88ba14e70c08b416dd0b957bbccbb1766b969c9",
    "netfm": "69b26508d95849428a067e93211e6e8e4804745f973e9d2620659b0470632986",
    "cli-augment-net": "00769d592798e4d91687c43ad25f0060e853eb8edcedefc1b36465c7fb1e68c7",
    "cli-augment-flip": "307dbb2698f439c6776b44a809a5719ce8b890a080d75f23915d32e2b10f326b",
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
        "cli-augment-net": content_hash(tmp_path / "net" / "augmented.dtrace"),
        "cli-augment-flip": content_hash(tmp_path / "flip" / "augmented.dtrace"),
    }
    assert digests == {k: GOLDEN[k] for k in digests}
