"""Training loops: contrastive pre-training, fine-tuning, supervised
baseline, and the pseudo-labeling semi-supervised loop.

Every loop is single-threaded and draws all randomness from streams
spawned off the run seed, so a (seed, data, config) triple reproduces the
parameter trajectory bit for bit. Stream assignments are fixed per
concern (init, shuffling, augmentation, ...); in particular the
semi-supervised loop consumes its labeled-side streams exactly like the
plain supervised loop, which makes the two trajectories identical when
the unlabeled weight is zero.
"""

from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentConfig, check_net_inputs, flip_augment_batch, net_augment_batch
from .augment import flip_augment, net_augment  # noqa: F401  perfbench/tracing.py wraps these
from .losses import SslConfig, softmax
from .models import (
    ModelDims,
    ModelParams,
    attach_classifier,
    contrastive_forward_backward,
    encode_backward,
    encode_batch,
    init_params,
    supervised_forward_backward,
    trainable_arrays,
)
from .rng import RandomSource
from .traces import DirectionTrace, MissingLabel

# spawn indices of the per-concern rng streams
_S_INIT, _S_SHUFFLE, _S_AUG, _S_UNLAB_SHUFFLE, _S_UNLAB_AUG, _S_CLF = range(6)


class InsufficientData(ValueError):
    """Not enough traces for the requested batch construction."""


class MissingClass(ValueError):
    """A class in 0..L-1 has no labeled sample."""


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings shared by all training phases."""

    batch_size: int = 64
    epochs: int = 30
    learning_rate: float = 3e-4
    optimizer: str = "adam"
    momentum: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    cosine_decay: bool = False
    seed: int = 0
    mu: int = 19

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError("learning rate must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")


@dataclass
class TrainResult:
    params: ModelParams
    loss_history: list[float] = field(default_factory=list)
    retained_history: list[int] = field(default_factory=list)


class _Optimizer:
    """SGD (optionally with momentum) or Adam over a fixed array list,
    with optional cosine decay of the learning rate to zero."""

    def __init__(self, arrays: list[np.ndarray], cfg: TrainConfig, total_steps: int):
        self.arrays = arrays
        self.cfg = cfg
        self.total_steps = max(1, total_steps)
        self.t = 0
        if cfg.optimizer == "adam":
            self.m = [np.zeros_like(a) for a in arrays]
            self.v = [np.zeros_like(a) for a in arrays]
            # two scratch buffers shared by all arrays keep the step free of
            # per-operation temporaries
            largest = max(a.size for a in arrays)
            self._scratch = (np.empty(largest), np.empty(largest))
        elif cfg.momentum > 0:
            self.vel = [np.zeros_like(a) for a in arrays]

    def _lr(self) -> float:
        if not self.cfg.cosine_decay:
            return self.cfg.learning_rate
        frac = (self.t - 1) / self.total_steps
        return self.cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * frac))

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        lr = self._lr()
        cfg = self.cfg
        if cfg.optimizer == "adam":
            bc1 = 1.0 - cfg.beta1 ** self.t
            bc2 = 1.0 - cfg.beta2 ** self.t
            # in place, but the same operations in the same order as
            # a -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the bytes match
            for a, g, m, v in zip(self.arrays, grads, self.m, self.v):
                s1, s2 = (buf[: a.size].reshape(a.shape) for buf in self._scratch)
                m *= cfg.beta1
                np.multiply(g, 1.0 - cfg.beta1, out=s1)
                m += s1
                v *= cfg.beta2
                np.multiply(g, 1.0 - cfg.beta2, out=s1)
                s1 *= g
                v += s1
                np.divide(m, bc1, out=s1)
                s1 *= lr
                np.divide(v, bc2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += cfg.eps
                s1 /= s2
                a -= s1
        elif cfg.momentum > 0:
            for a, g, vel in zip(self.arrays, grads, self.vel):
                vel *= cfg.momentum
                vel += g
                a -= lr * vel
        else:
            for a, g in zip(self.arrays, grads):
                a -= lr * g


class _CyclingPool:
    """Deterministic sampler over a shuffled index pool; reshuffles when a
    request would run past the end, so draws within a step never repeat."""

    def __init__(self, n: int, rng: RandomSource):
        self.n = n
        self.rng = rng
        self.order: list[int] = []
        self.cursor = 0

    def take(self, k: int) -> list[int]:
        if self.cursor + k > len(self.order):
            self.order = list(range(self.n))
            self.rng.shuffle(self.order)
            self.cursor = 0
        out = self.order[self.cursor : self.cursor + k]
        self.cursor += k
        return out


def strip_labels(traces: list[DirectionTrace]) -> list[DirectionTrace]:
    """Label-free copies for the pre-training phase."""
    return [DirectionTrace(t.cells.copy(), label=None) for t in traces]


def _flat_grads(enc_grads, *heads) -> list[np.ndarray]:
    return [g for pair in enc_grads for g in pair] + list(heads)


def _epoch_batches(n: int, batch_size: int, rng: RandomSource, drop_last: bool):
    order = list(range(n))
    rng.shuffle(order)
    stop = n - (n % batch_size) if drop_last else n
    for start in range(0, stop, batch_size):
        yield order[start : start + batch_size]


def _class_count(labels: np.ndarray) -> int:
    n_classes = int(labels.max()) + 1
    missing = sorted(set(range(n_classes)) - set(np.unique(labels).tolist()))
    if missing:
        raise MissingClass(f"no labeled sample for class(es) {missing}")
    return n_classes


def _labeled_arrays(traces: list[DirectionTrace]):
    """(int8 cell matrix, int64 labels) of a fully labeled corpus."""
    for t in traces:
        if t.label is None or t.label < 0:
            raise MissingLabel("training requires non-negative labels on every trace")
    cells = np.stack([t.cells for t in traces])
    y = np.array([t.label for t in traces], dtype=np.int64)
    return cells, y


def pretrain(
    unlabeled: list[DirectionTrace],
    cfg: TrainConfig,
    aug: AugmentConfig,
    dist,
    ssl: SslConfig,
    dims: ModelDims | None = None,
    augmenter: str = "net",
) -> TrainResult:
    """Contrastive pre-training on two augmented views per trace.

    ``augmenter`` selects the view generator: "net" for the burst
    augmenter, "flip" for the direction-flip baseline. The input must be
    label-free (see strip_labels); labels are never read here. Partial
    trailing batches are dropped. Records the per-epoch mean loss.
    """
    if any(t.label is not None for t in unlabeled):
        raise ValueError("pre-training input must be label-free; call strip_labels()")
    if cfg.batch_size < 2:
        raise ValueError("pre-training needs batch_size >= 2 for positive pairs")
    if len(unlabeled) < cfg.batch_size:
        raise InsufficientData(
            f"need at least {cfg.batch_size} traces, got {len(unlabeled)}"
        )
    if augmenter not in ("net", "flip"):
        raise ValueError(f"unknown augmenter {augmenter!r}")
    corpus = np.stack([t.cells for t in unlabeled])
    if augmenter == "net":
        check_net_inputs(np.count_nonzero(corpus, axis=1), aug, dist)

    dims = dims or ModelDims(trace_len=len(unlabeled[0]))
    root = RandomSource(cfg.seed)
    params = init_params(dims, root.spawn(_S_INIT))
    rng_shuffle = root.spawn(_S_SHUFFLE)
    rng_aug = root.spawn(_S_AUG)

    steps_per_epoch = len(unlabeled) // cfg.batch_size
    opt = _Optimizer(
        trainable_arrays(params, "projection"), cfg, cfg.epochs * steps_per_epoch
    )

    result = TrainResult(params=params)
    for _ in range(cfg.epochs):
        epoch_losses = []
        for batch in _epoch_batches(len(unlabeled), cfg.batch_size, rng_shuffle, True):
            # two consecutive views of each trace, as rows 2i and 2i+1
            rows = corpus[np.repeat(batch, 2)]
            if augmenter == "net":
                views = net_augment_batch(rows, aug, dist, rng_aug)
            else:
                views = flip_augment_batch(rows, aug.p_flip, rng_aug)
            x = views.astype(np.float64)
            loss, enc_grads, d_w1, d_w2 = contrastive_forward_backward(
                x, params, ssl.tau_s
            )
            opt.step(_flat_grads(enc_grads, d_w1, d_w2))
            epoch_losses.append(loss)
        result.loss_history.append(float(np.mean(epoch_losses)))
    return result


def finetune(
    params: ModelParams, labeled: list[DirectionTrace], cfg: TrainConfig
) -> TrainResult:
    """Cross-entropy training of encoder plus classifier on labeled traces.

    The projection head plays no further role and is left as is. A fresh
    classifier is attached when none of the right width is present;
    partial batches are kept.
    """
    cells, y = _labeled_arrays(labeled)
    x = cells.astype(np.float64)
    n_classes = _class_count(y)
    root = RandomSource(cfg.seed)
    if params.n_classes != n_classes:
        attach_classifier(params, n_classes, root.spawn(_S_CLF))
    rng_shuffle = root.spawn(_S_SHUFFLE)

    steps_per_epoch = int(np.ceil(len(labeled) / cfg.batch_size))
    opt = _Optimizer(
        trainable_arrays(params, "classifier"), cfg, cfg.epochs * steps_per_epoch
    )
    result = TrainResult(params=params)
    for _ in range(cfg.epochs):
        epoch_losses = []
        for batch in _epoch_batches(len(labeled), cfg.batch_size, rng_shuffle, False):
            loss, _, enc_grads, d_w, d_b = supervised_forward_backward(
                x[batch], y[batch], params
            )
            opt.step(_flat_grads(enc_grads, d_w, d_b))
            epoch_losses.append(loss)
        result.loss_history.append(float(np.mean(epoch_losses)))
    return result


def train_supervised(
    labeled: list[DirectionTrace],
    cfg: TrainConfig,
    p_flip_weak: float = 0.0,
    dims: ModelDims | None = None,
) -> TrainResult:
    """Supervised-only training from scratch, optionally weakly augmented.

    This is both the no-pre-training baseline and the labeled half of the
    semi-supervised loop; the two share rng stream assignments, so the
    semi-supervised trajectory with lambda_u = 0 matches this one exactly.
    """
    return _semi_supervised_loop(
        labeled, None, cfg, SslConfig(lambda_u=0.0), None, p_flip_weak, None,
        dims=dims, use_unlabeled=False,
    )


def train_netfm(
    labeled: list[DirectionTrace],
    unlabeled: list[DirectionTrace],
    cfg: TrainConfig,
    ssl: SslConfig,
    aug_strong: AugmentConfig,
    p_flip_weak: float,
    dist,
    dims: ModelDims | None = None,
) -> TrainResult:
    """Semi-supervised training with pseudo-labeled consistency.

    Each step takes a labeled batch B and an unlabeled batch of mu*B
    traces; the labeled batch is weakly augmented (direction flips), the
    unlabeled batch both weakly and strongly (burst) augmented. Weak
    predictions at or above tau_f yield pseudo-labels scored against the
    strong predictions; the objective is loss_s + lambda_u * loss_u.
    Records the per-step retained pseudo-label count.
    """
    if len(unlabeled) < cfg.mu * min(cfg.batch_size, len(labeled)):
        raise InsufficientData(
            f"need at least {cfg.mu * min(cfg.batch_size, len(labeled))} "
            f"unlabeled traces, got {len(unlabeled)}"
        )
    check_net_inputs([t.nonzero_count for t in unlabeled], aug_strong, dist)
    return _semi_supervised_loop(
        labeled, unlabeled, cfg, ssl, aug_strong, p_flip_weak, dist,
        dims=dims, use_unlabeled=True,
    )


def _semi_supervised_loop(
    labeled, unlabeled, cfg, ssl, aug_strong, p_flip_weak, dist, dims, use_unlabeled
) -> TrainResult:
    labeled_cells, y = _labeled_arrays(labeled)
    n_classes = _class_count(y)
    dims = dims or ModelDims(trace_len=len(labeled[0]))
    root = RandomSource(cfg.seed)
    params = init_params(dims, root.spawn(_S_INIT))
    attach_classifier(params, n_classes, root.spawn(_S_CLF))
    rng_shuffle = root.spawn(_S_SHUFFLE)
    rng_weak = root.spawn(_S_AUG)
    if use_unlabeled:
        unlabeled_cells = np.stack([t.cells for t in unlabeled])
        pool = _CyclingPool(len(unlabeled), root.spawn(_S_UNLAB_SHUFFLE))
        rng_uaug = root.spawn(_S_UNLAB_AUG)

    steps_per_epoch = int(np.ceil(len(labeled) / cfg.batch_size))
    opt = _Optimizer(
        trainable_arrays(params, "classifier"), cfg, cfg.epochs * steps_per_epoch
    )
    result = TrainResult(params=params)

    for _ in range(cfg.epochs):
        epoch_losses = []
        for batch in _epoch_batches(len(labeled), cfg.batch_size, rng_shuffle, False):
            xw = flip_augment_batch(labeled_cells[batch], p_flip_weak, rng_weak)
            xw = xw.astype(np.float64)
            loss_s, _, enc_grads, d_w, d_b = supervised_forward_backward(
                xw, y[batch], params
            )
            grads = _flat_grads(enc_grads, d_w, d_b)
            total = loss_s

            if use_unlabeled:
                ubatch = unlabeled_cells[pool.take(cfg.mu * len(batch))]
                u_weak = flip_augment_batch(ubatch, p_flip_weak, rng_uaug)
                u_strong = net_augment_batch(ubatch, aug_strong, dist, rng_uaug)
                q_weak = _predict_rows(u_weak.astype(np.float64), params)
                pseudo = np.argmax(q_weak, axis=1)
                keep = q_weak.max(axis=1) >= ssl.tau_f
                result.retained_history.append(int(keep.sum()))
                loss_u = 0.0
                if keep.any():
                    loss_u, u_grads = _masked_xent_backward(
                        u_strong.astype(np.float64), pseudo, keep, len(ubatch), params
                    )
                    if ssl.lambda_u != 0.0:
                        for g, gu in zip(grads, u_grads):
                            g += ssl.lambda_u * gu
                total = loss_s + ssl.lambda_u * loss_u

            opt.step(grads)
            epoch_losses.append(total)
        result.loss_history.append(float(np.mean(epoch_losses)))
    return result


def _predict_rows(x: np.ndarray, params: ModelParams) -> np.ndarray:
    embed, _ = encode_batch(x, params)
    return softmax(embed @ params.clf_w.T + params.clf_b)


def _masked_xent_backward(x, pseudo, keep, denom, params):
    """Cross-entropy summed over retained rows, divided by the full batch
    size; gradients flow only through the strong-view predictions."""
    embed, caches = encode_batch(x, params)
    logits = embed @ params.clf_w.T + params.clf_b
    probs = softmax(logits)
    n = len(pseudo)
    picked = probs[np.arange(n), pseudo]
    loss = float(-(np.log(np.maximum(picked, 1e-300)) * keep).sum() / denom)
    d_logits = probs.copy()
    d_logits[np.arange(n), pseudo] -= 1.0
    d_logits *= keep[:, None] / denom
    d_w = d_logits.T @ embed
    d_b = d_logits.sum(axis=0)
    d_embed = d_logits @ params.clf_w
    enc_grads = encode_backward(d_embed, caches, params)
    return loss, _flat_grads(enc_grads, d_w, d_b)
