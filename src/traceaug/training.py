"""Training phases: contrastive pre-training, fine-tuning, supervised
baseline, and the pseudo-labeling semi-supervised loop.

Every phase runs on one driver, ``_fit`` (optimizer, shuffling, epoch
loop, non-finite loss and gradient guard, per-epoch mean loss), and
supplies only its step: a closure from a batch of row indices to (loss,
gradients). Weights, gradients and optimizer state are float32.
All randomness comes from streams spawned off the run seed, so a (seed,
data, config) triple reproduces the parameter trajectory bit for bit on
the same numpy/BLAS build at the same BLAS thread count. Another thread
count may round the float32 products differently: criterion 7 reads net
0.638 with one OpenBLAS thread and 0.649 with two. Stream assignments are
fixed per concern (init, shuffling, augmentation, ...), and a stream
depends only on the seed and its spawn index, not on where it is spawned.
The semi-supervised loop consumes its labeled-side streams exactly like
the plain supervised loop, which makes the two trajectories identical
when the unlabeled weight is zero.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentConfig, check_net_inputs, flip_augment_batch, net_augment_batch
from .augment import flip_augment, net_augment  # noqa: F401  perfbench/tracing.py wraps these
from .losses import SslConfig
from .models import (
    ModelDims,
    ModelParams,
    attach_classifier,
    classify_batch,
    contrastive_forward_backward,
    init_params,
    supervised_forward_backward,
    trainable_arrays,
)
from .models import encode_backward, encode_batch, softmax  # noqa: F401  perfbench wraps these
from .rng import RandomSource
from .traces import DirectionTrace, MissingLabel

# spawn indices of the per-concern rng streams
_S_INIT, _S_SHUFFLE, _S_AUG, _S_UNLAB_SHUFFLE, _S_UNLAB_AUG, _S_CLF = range(6)


class InsufficientData(ValueError):
    """Not enough traces for the requested batch construction."""


class MissingClass(ValueError):
    """A class in 0..L-1 has no labeled sample."""


class NonFiniteLoss(ValueError):
    """A training step's loss or gradient is NaN or infinite, so the run is
    stopped before the step updates any weight."""


#: float32's smallest subnormal. Adam adds eps to float32 arrays, where an
#: eps of half this or less is 0, and 0/0 then turns untouched weights NaN.
_EPS_MIN = float(np.finfo(np.float32).smallest_subnormal)


#: TrainConfig's optimizer names.
OPTIMIZERS = ("adam", "sgd")


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
        # the range checks also reject NaN; Adam's skipped columns are exact
        # only when lr is finite, eps > 0 and beta1 < 1
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
        if not _EPS_MIN / 2 < self.eps < np.inf:
            raise ValueError(
                f"eps must be finite and nonzero in float32 (whose smallest is "
                f"{_EPS_MIN:.3g}), got {self.eps!r}"
            )
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)!r}")
        if not 0 <= self.momentum < np.inf:
            raise ValueError(f"momentum must be finite and >= 0, got {self.momentum!r}")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.optimizer not in OPTIMIZERS:
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
    with optional cosine decay of the learning rate to zero.

    A 2-D gradient may be narrower than its array (the first layer's covers
    only the batch's live column prefix); its missing columns are exact
    zeros, and every step gives the same bytes as the textbook update on
    the gradient zero-padded to full width. Plain SGD updates the
    gradient's columns only. Adam and momentum update the live prefix of
    each array, as wide as the widest gradient so far: columns right of it
    have only ever seen zero gradients, so their state is +0 and they would
    move by exactly +0. Inside the prefix, columns right of this step's
    gradient only decay their state.
    """

    def __init__(self, arrays: list[np.ndarray], cfg: TrainConfig, total_steps: int):
        self.arrays = arrays
        self.cfg = cfg
        self.total_steps = max(1, total_steps)
        self.t = 0
        # live column count per array: the widest gradient so far
        self._live = [0] * len(arrays)
        if cfg.optimizer == "adam":
            # np.zeros, unlike zeros_like, leaves the pages of the never-live
            # tail of m and v uncommitted
            self.m = [np.zeros(a.shape, a.dtype) for a in arrays]
            self.v = [np.zeros(a.shape, a.dtype) for a in arrays]
            # two scratch buffers shared by all arrays keep the step free of
            # per-operation temporaries
            largest = max(a.size for a in arrays)
            dtype = np.result_type(*arrays)
            self._scratch = (np.empty(largest, dtype), np.empty(largest, dtype))
        elif cfg.momentum > 0:
            self.vel = [np.zeros(a.shape, a.dtype) for a in arrays]

    def _lr(self) -> float:
        # a Python float, so that it scales float32 arrays in float32
        if not self.cfg.cosine_decay:
            return self.cfg.learning_rate
        frac = (self.t - 1) / self.total_steps
        return float(self.cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * frac)))

    def _prefix(self, i: int, width: int) -> int:
        self._live[i] = max(self._live[i], width)
        return self._live[i]

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        lr = self._lr()
        cfg = self.cfg
        if cfg.optimizer == "adam":
            bc1 = 1.0 - cfg.beta1 ** self.t
            bc2 = 1.0 - cfg.beta2 ** self.t
            # in place, but the same operations in the same order as
            # a -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the bytes match
            for i, (a, g, m, v) in enumerate(zip(self.arrays, grads, self.m, self.v)):
                w = g.shape[-1]
                k = self._prefix(i, w)
                a, m, v = a[..., :k], m[..., :k], v[..., :k]
                sg = self._scratch[0][: g.size].reshape(g.shape)
                m *= cfg.beta1
                # the padded update adds (1 - beta1) * +0.0 right of the
                # gradient, which turns -0.0 into +0.0; v is never -0.0
                m[..., w:] += 0.0
                np.multiply(g, 1.0 - cfg.beta1, out=sg)
                m[..., :w] += sg
                v *= cfg.beta2
                np.multiply(g, 1.0 - cfg.beta2, out=sg)
                sg *= g
                v[..., :w] += sg
                s1, s2 = (buf[: a.size].reshape(a.shape) for buf in self._scratch)
                np.divide(m, bc1, out=s1)
                s1 *= lr
                np.divide(v, bc2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += cfg.eps
                s1 /= s2
                a -= s1
        elif cfg.momentum > 0:
            for i, (a, g, vel) in enumerate(zip(self.arrays, grads, self.vel)):
                w = g.shape[-1]
                k = self._prefix(i, w)
                a, vel = a[..., :k], vel[..., :k]
                vel *= cfg.momentum
                vel[..., w:] += 0.0  # as for Adam's m
                vel[..., :w] += g
                a -= lr * vel
        else:
            for a, g in zip(self.arrays, grads):
                a[..., : g.shape[-1]] -= lr * g


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


def _add_scaled(g: np.ndarray, gu: np.ndarray, scale: float) -> np.ndarray:
    """g + scale * gu over the wider of the two; a narrow first-layer
    gradient's missing columns are zeros. Writes into g when it is the wider."""
    if gu.shape[-1] > g.shape[-1]:
        out = scale * gu
        out[..., : g.shape[-1]] += g
        return out
    g[..., : gu.shape[-1]] += scale * gu
    return g


def _check_finite(loss: float, grads, phase: str, epoch: int, step: int) -> None:
    """Raise NonFiniteLoss if the loss or any gradient element is NaN or inf."""
    where = f"at epoch {epoch + 1}, step {step + 1}; training stopped"
    if not math.isfinite(loss):
        raise NonFiniteLoss(f"{phase}: loss is {loss} {where} (is the learning rate too high?)")
    for i, g in enumerate(grads):
        if not np.isfinite(g).all():
            raise NonFiniteLoss(f"{phase}: gradient of array {i} is not finite {where}")


def _epoch_batches(n: int, batch_size: int, rng: RandomSource, drop_last: bool):
    order = list(range(n))
    rng.shuffle(order)
    stop = n - (n % batch_size) if drop_last else n
    for start in range(0, stop, batch_size):
        yield order[start : start + batch_size]


def _labeled_arrays(traces: list[DirectionTrace]):
    """(int8 cell matrix, int64 labels, class count) of a fully labeled corpus."""
    for t in traces:
        if t.label is None or t.label < 0:
            raise MissingLabel("training requires non-negative labels on every trace")
    cells = np.stack([t.cells for t in traces])
    y = np.array([t.label for t in traces], dtype=np.int64)
    n_classes = int(y.max()) + 1
    missing = sorted(set(range(n_classes)) - set(np.unique(y).tolist()))
    if missing:
        raise MissingClass(f"no labeled sample for class(es) {missing}")
    return cells, y, n_classes


def _fit(phase: str, params, head: str, cfg: TrainConfig, n: int, drop_last: bool, step):
    """Train ``head`` and the encoder for cfg.epochs shuffled passes over n rows.

    ``step(batch)`` maps a list of row indices to (loss, gradients), the
    gradients in trainable_arrays order; a non-finite loss or gradient
    stops the run before the optimizer step. The cosine schedule spans
    exactly the steps taken: n // B per epoch when partial batches are
    dropped, ceil(n / B) when they are kept. Records the per-epoch mean
    loss.
    """
    steps_per_epoch = n // cfg.batch_size if drop_last else math.ceil(n / cfg.batch_size)
    opt = _Optimizer(trainable_arrays(params, head), cfg, cfg.epochs * steps_per_epoch)
    rng_shuffle = RandomSource(cfg.seed).spawn(_S_SHUFFLE)
    result = TrainResult(params=params)
    for epoch in range(cfg.epochs):
        epoch_losses = []
        for i, batch in enumerate(_epoch_batches(n, cfg.batch_size, rng_shuffle, drop_last)):
            loss, grads = step(batch)
            _check_finite(loss, grads, phase, epoch, i)
            opt.step(grads)
            epoch_losses.append(loss)
        result.loss_history.append(float(np.mean(epoch_losses)))
    return result


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
    rng_aug = root.spawn(_S_AUG)

    def step(batch):
        # two consecutive views of each trace, as rows 2i and 2i+1
        rows = corpus[np.repeat(batch, 2)]
        if augmenter == "net":
            views = net_augment_batch(rows, aug, dist, rng_aug)
        else:
            views = flip_augment_batch(rows, aug.p_flip, rng_aug)
        loss, enc_grads, d_w1, d_w2 = contrastive_forward_backward(views, params, ssl.tau_s)
        return loss, _flat_grads(enc_grads, d_w1, d_w2)

    return _fit("pretrain", params, "projection", cfg, len(unlabeled), True, step)


def finetune(
    params: ModelParams, labeled: list[DirectionTrace], cfg: TrainConfig
) -> TrainResult:
    """Cross-entropy training of encoder plus classifier on labeled traces.

    The projection head plays no further role and is left as is. A fresh
    classifier is attached when none of the right width is present;
    partial batches are kept.
    """
    cells, y, n_classes = _labeled_arrays(labeled)
    if params.n_classes != n_classes:
        attach_classifier(params, n_classes, RandomSource(cfg.seed).spawn(_S_CLF))

    def step(batch):
        loss, enc_grads, d_w, d_b = supervised_forward_backward(cells[batch], y[batch], params)
        return loss, _flat_grads(enc_grads, d_w, d_b)

    return _fit("finetune", params, "classifier", cfg, len(labeled), False, step)


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
    return _semi_supervised(labeled, None, cfg, None, None, p_flip_weak, None, dims)


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
    need = cfg.mu * min(cfg.batch_size, len(labeled))
    if len(unlabeled) < need:
        raise InsufficientData(f"need at least {need} unlabeled traces, got {len(unlabeled)}")
    check_net_inputs([t.nonzero_count for t in unlabeled], aug_strong, dist)
    return _semi_supervised(labeled, unlabeled, cfg, ssl, aug_strong, p_flip_weak, dist, dims)


def _semi_supervised(labeled, unlabeled, cfg, ssl, aug_strong, p_flip_weak, dist, dims):
    """Weakly flipped cross-entropy on labeled batches, plus the pseudo-label
    term when ``unlabeled`` is given; ``unlabeled=None`` is the supervised
    baseline."""
    labeled_cells, y, n_classes = _labeled_arrays(labeled)
    dims = dims or ModelDims(trace_len=len(labeled[0]))
    root = RandomSource(cfg.seed)
    params = init_params(dims, root.spawn(_S_INIT))
    attach_classifier(params, n_classes, root.spawn(_S_CLF))
    rng_weak = root.spawn(_S_AUG)
    retained: list[int] = []
    if unlabeled is not None:
        unlabeled_cells = np.stack([t.cells for t in unlabeled])
        pool = _CyclingPool(len(unlabeled), root.spawn(_S_UNLAB_SHUFFLE))
        rng_uaug = root.spawn(_S_UNLAB_AUG)

    def step(batch):
        xw = flip_augment_batch(labeled_cells[batch], p_flip_weak, rng_weak)
        loss_s, enc_grads, d_w, d_b = supervised_forward_backward(xw, y[batch], params)
        grads = _flat_grads(enc_grads, d_w, d_b)
        if unlabeled is None:
            return loss_s, grads

        ubatch = unlabeled_cells[pool.take(cfg.mu * len(batch))]
        u_weak = flip_augment_batch(ubatch, p_flip_weak, rng_uaug)
        u_strong = net_augment_batch(ubatch, aug_strong, dist, rng_uaug)
        q_weak = classify_batch(u_weak, params)
        pseudo = np.argmax(q_weak, axis=1)
        keep = q_weak.max(axis=1) >= ssl.tau_f
        retained.append(int(keep.sum()))
        loss_u = 0.0
        if keep.any():
            # retained rows summed, divided by the whole unlabeled batch
            loss_u, u_enc, u_w, u_b = supervised_forward_backward(
                u_strong, pseudo, params, keep, len(ubatch)
            )
            if ssl.lambda_u != 0.0:
                grads = [_add_scaled(g, gu, ssl.lambda_u)
                         for g, gu in zip(grads, _flat_grads(u_enc, u_w, u_b))]
        return loss_s + ssl.lambda_u * loss_u, grads

    phase = "supervised" if unlabeled is None else "netfm"
    result = _fit(phase, params, "classifier", cfg, len(labeled), False, step)
    result.retained_history = retained
    return result
