"""Training phases: contrastive pre-training, and fine-tuning, the supervised
baseline and the pseudo-labeling loop, all three run by ``_semi_supervised``.

Every phase runs on one driver, ``_fit`` (optimizer, epoch loop,
non-finite loss and gradient guard, per-epoch mean loss, and the view
path), and supplies its step: a closure from a batch of row indices and
the step's views to (loss, gradients), which only runs the model. Every
step's rows are drawn before the first step (``_step_rows``).
Weights, gradients and optimizer state are float32. A phase with views to
make (pre-training, ``netfm``, the baseline with weak flips) also supplies
a maker of them; a phase without forks nothing. The views depend only on
the corpus, the step rows (and, for ``netfm``, the unlabeled rows, also
drawn before the first step) and the augmentation streams, never on the
weights, and every step's first draw is known ahead, so a forked helper
makes them ahead of the steps (``_views_ahead``), many steps to a call, and
the parent makes any step the helper has not made yet (the contract in
``helper``); the bytes are those of making them inline one step at a time.
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

import itertools
import math
import mmap
import os
from contextlib import closing, suppress
from dataclasses import dataclass, field

import numpy as np

from . import helper
from .augment import (
    AugmentConfig,
    check_net_inputs,
    flip_augment_batch,
    flip_draw_counts,
    net_augment_batch,
    net_draw_counts,
)
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


#: TrainConfig's optimizer names.
OPTIMIZERS = ("adam", "sgd")
#: Adam's decay rates and the eps added to its denominator.
_BETA1, _BETA2, _EPS = 0.9, 0.999, 1e-8


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings shared by all training phases."""

    batch_size: int = 64
    epochs: int = 30
    learning_rate: float = 3e-4
    optimizer: str = "adam"
    momentum: float = 0.0
    cosine_decay: bool = False
    seed: int = 0
    mu: int = 19

    def __post_init__(self):
        # the range checks also reject NaN; Adam's skipped columns are exact
        # only when lr is finite
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate!r}")
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
    gradient's columns only. Adam's and momentum's state is held for each
    array's live prefix only, as wide as the widest gradient so far, and
    widens with zeros when a wider gradient arrives; they update that
    prefix. Columns right of it have only ever seen zero gradients, so
    their state would be +0 and they would move by exactly +0. Inside the
    prefix, columns right of this step's gradient only decay their state.
    Adam's two scratch buffers are sized by what a step touches, the largest
    array state (the first layer's live prefix, or a full-width array), and
    grow when ``_widened`` grows that state, never to the full first layer.
    """

    def __init__(self, arrays: list[np.ndarray], cfg: TrainConfig, total_steps: int):
        self.arrays = arrays
        self.cfg = cfg
        self.total_steps = max(1, total_steps)
        self.t = 0
        # state starts zero columns wide; _widened replaces, never writes, it
        narrow = [np.zeros(a.shape[:-1] + (0,), a.dtype) for a in arrays]
        if cfg.optimizer == "adam":
            self.m, self.v = list(narrow), list(narrow)
            # two scratch buffers shared by all arrays keep the step free of
            # per-operation temporaries
            self._scratch = (np.empty(0, np.result_type(*arrays)),) * 2
        elif cfg.momentum > 0:
            self.vel = narrow

    def _lr(self) -> float:
        # a Python float, so that it scales float32 arrays in float32
        if not self.cfg.cosine_decay:
            return self.cfg.learning_rate
        frac = (self.t - 1) / self.total_steps
        return float(self.cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * frac)))

    def step(self, grads: list[np.ndarray]) -> None:
        self.t += 1
        lr = self._lr()
        cfg = self.cfg
        if cfg.optimizer == "adam":
            bc1 = 1.0 - _BETA1 ** self.t
            bc2 = 1.0 - _BETA2 ** self.t
            # in place, but the same operations in the same order as
            # a -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the bytes match
            for i, (a, g) in enumerate(zip(self.arrays, grads)):
                w = g.shape[-1]
                m = self.m[i] = _widened(self.m[i], w)
                v = self.v[i] = _widened(self.v[i], w)
                if m.size > len(self._scratch[0]):
                    self._scratch = tuple(np.empty(m.size, buf.dtype) for buf in self._scratch)
                a = a[..., : m.shape[-1]]
                sg = self._scratch[0][: g.size].reshape(g.shape)
                m *= _BETA1
                # the padded update adds (1 - beta1) * +0.0 right of the
                # gradient, which turns -0.0 into +0.0; v is never -0.0
                m[..., w:] += 0.0
                np.multiply(g, 1.0 - _BETA1, out=sg)
                m[..., :w] += sg
                v *= _BETA2
                np.multiply(g, 1.0 - _BETA2, out=sg)
                sg *= g
                v[..., :w] += sg
                s1, s2 = (buf[: a.size].reshape(a.shape) for buf in self._scratch)
                np.divide(m, bc1, out=s1)
                s1 *= lr
                np.divide(v, bc2, out=s2)
                np.sqrt(s2, out=s2)
                s2 += _EPS
                s1 /= s2
                a -= s1
        elif cfg.momentum > 0:
            for i, (a, g) in enumerate(zip(self.arrays, grads)):
                w = g.shape[-1]
                vel = self.vel[i] = _widened(self.vel[i], w)
                a = a[..., : vel.shape[-1]]
                vel *= cfg.momentum
                vel[..., w:] += 0.0  # as for Adam's m
                vel[..., :w] += g
                a -= lr * vel
        else:
            for a, g in zip(self.arrays, grads):
                a[..., : g.shape[-1]] -= lr * g


def _widened(state: np.ndarray, width: int) -> np.ndarray:
    """``state``, or a zero-filled copy ``width`` columns wide when that is
    wider."""
    if width <= state.shape[-1]:
        return state
    wide = np.zeros(state.shape[:-1] + (width,), state.dtype)
    wide[..., : state.shape[-1]] = state
    return wide


#: Size of the shared ring of step slots that the view worker fills.
_RING_BYTES = 1 << 20
#: Most cells of views the parent makes in one call when the child is late:
#: the call's temporaries, several times its views, are the parent's memory.
_OWN_CELLS = 1 << 18


def _views_ahead(make, steps: int):
    """Generator of a phase's views: one int8 block for each of ``steps``
    steps, where ``make(first, stop)`` makes the blocks of steps first to
    stop - 1, one after another as the rows of one array, from nothing but
    those numbers. Step 0 is made first, before any fork, and its block sets
    the shape of every block and the ring's slots: as many as _RING_BYTES
    holds, at least two and at most 256, so that a slot index is one byte.
    No call makes more steps than the ring has slots.

    It starts a helper (``helper.start``, whose contract this keeps) that
    makes the steps ahead of their use, in calls of 1, 2, 4, ... steps up to
    the ring's slots, at the lowest priority, and puts them in order into the
    ring, in a shared anonymous mapping. Slot indices go back and forth as
    single bytes over two pipes: the parent hands the child a free slot, and
    the child hands it back filled. The ring's header holds the step in each
    slot. A block from a slot is a view of it, valid until the next block is
    asked for, which frees the slot. The parent lets go of the blocks of
    steps it made itself, step 0's among them, as it yields them.

    The parent never waits for the child: when the step it needs is not in
    the ring, it makes that step itself, and more steps to a call while the
    child stays late, and records the last of them in the header; the child
    skips the steps the parent has made. Once the ready pipe reads end of
    file, after the last step the child made, the parent stops the helper
    and makes every step left itself, a ring's worth at a time. Closing the
    generator stops the helper.
    """
    own = list(make(0, 1)[None])  # the blocks made here and not yet yielded
    shape, size = own[0].shape, own[0].nbytes
    slots = max(2, min(256, _RING_BYTES // size))
    header = -(-8 * (slots + 1) // 64) * 64
    ring = mmap.mmap(-1, header + slots * size)
    # made[0] is the last step the parent has made, made[1 + s] the step in slot s
    made = np.frombuffer(ring, np.int64, slots + 1)
    blocks = np.frombuffer(ring, np.int8, offset=header).reshape(slots, *shape)
    free_r, free_w = os.pipe()
    ready_r, ready_w = os.pipe()
    os.set_blocking(ready_r, False)
    os.write(free_w, bytes(range(slots)))  # every slot is free

    def serve(free_r: int, ready_w: int):
        """The child: fill each slot the parent frees with the next step."""
        os.nice(19)
        # the first calls are short, so that the ring has steps in it soon
        first, call = 0, 1
        while (first := max(first, int(made[0]) + 1)) < steps:
            stop = min(first + call, steps)
            views = make(first, stop).reshape(stop - first, *shape)
            for k in range(first, stop):
                if k <= made[0]:  # the parent has made it
                    continue
                token = os.read(free_r, 1)
                if not token:  # the parent is done
                    return
                made[1 + token[0]] = k
                blocks[token[0]] = views[k - first]
                os.write(ready_w, token)
            first, call = stop, min(2 * call, slots)

    def free(token: bytes):
        with suppress(BrokenPipeError):  # the child has left; what it made is still read
            os.write(free_w, token)

    mine = (free_w, ready_r)
    pid = helper.start(serve, mine, (free_r, ready_w))
    own_call, own_max = 1, min(slots, max(1, _OWN_CELLS // size))
    try:
        for k in range(steps):
            if not own:
                token = b""
                while pid is not None and not token:
                    try:
                        token = os.read(ready_r, 1)
                    except BlockingIOError:  # the child has not made it yet
                        break
                    if not token:  # the child is gone, and every step it made was read
                        helper.stop(pid, mine)
                        pid, mine = None, ()
                    elif made[1 + token[0]] != k:  # a step made here
                        free(token)
                        token = b""
                if token:
                    own_call = 1
                    yield blocks[token[0]]
                    free(token)  # the caller is done with the block
                    continue
                # the child is late, or there is none: the longer it stays late,
                # the more steps the parent makes to a call, as a call of many
                # steps is cheaper per step; with no child, a ring's worth a call
                stop = min(k + (slots if pid is None else own_call), steps)
                own_call = min(2 * own_call, own_max)
                own = list(make(k, stop).reshape(stop - k, *shape))
                made[0] = stop - 1
            yield own.pop(0)
    finally:
        helper.stop(pid, mine)


def strip_labels(traces: list[DirectionTrace]) -> list[DirectionTrace]:
    """Label-free traces for the pre-training phase. They share the given
    traces' cell arrays, which no training phase writes, rather than copy
    them."""
    return [DirectionTrace._valid(t.cells) for t in traces]


def _live_stack(traces: list[DirectionTrace]) -> tuple[np.ndarray, int]:
    """(cells, L): the traces' cells as one int8 matrix only W columns wide,
    W one past the last column that holds a nonzero cell of any trace, and
    the traces' length L. The columns cut off are zeros, so ``_padded``
    gives back the L-wide rows."""
    cells = np.stack([t.cells for t in traces])
    live = np.flatnonzero(cells.any(axis=0))
    width = int(live[-1]) + 1 if live.size else 0
    return (cells if width == cells.shape[1] else cells[:, :width].copy()), cells.shape[1]


def _padded(cells: np.ndarray, length: int) -> np.ndarray:
    """The rows of an int8 matrix zero-padded on the right to ``length``
    columns; the matrix itself when it is that wide."""
    if cells.shape[1] == length:
        return cells
    out = np.zeros((len(cells), length), np.int8)
    out[:, : cells.shape[1]] = cells
    return out


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


def _step_rows(n: int, cfg: TrainConfig, drop_last: bool) -> list[np.ndarray]:
    """Every step's rows, drawn before the first step: each epoch's row
    order from the shuffling stream, cut into batches of B consecutive rows,
    its partial last batch dropped or kept."""
    rng = RandomSource(cfg.seed).spawn(_S_SHUFFLE)
    B = cfg.batch_size
    stop = n - n % B if drop_last else n
    steps = []
    for _ in range(cfg.epochs):
        order = list(range(n))
        rng.shuffle(order)
        steps += [np.array(order[i : i + B]) for i in range(0, stop, B)]
    return steps


def _labeled_arrays(traces: list[DirectionTrace]):
    """(int8 cell matrix and trace length as _live_stack gives them, int64
    labels, class count) of a fully labeled corpus."""
    if not traces:
        raise InsufficientData("no labeled traces")
    for t in traces:
        if t.label is None or t.label < 0:
            raise MissingLabel("training requires non-negative labels on every trace")
    cells, length = _live_stack(traces)
    y = np.array([t.label for t in traces], dtype=np.int64)
    present = np.unique(y)
    n_classes = int(present[-1]) + 1
    if len(present) < n_classes:
        # at most len(present) of the first len(present) + 5 classes are present
        first = np.setdiff1d(np.arange(min(n_classes, len(present) + 5)), present)[:5]
        raise MissingClass(
            f"no labeled sample for {n_classes - len(present)} of classes 0..{n_classes - 1},"
            f" starting with {first.tolist()}"
        )
    return cells, length, y, n_classes


def _first_draws(draws, steps) -> list[int]:
    """Each step's first draw on a stream that every step draws from in
    turn, ``draws[r]`` draws for each row r of its row array in ``steps``."""
    return [0, *itertools.accumulate(int(draws[rows].sum()) for rows in steps)]


def _pool_rows(n: int, sizes, rng: RandomSource):
    """Yield each step's rows of a pool of n, ``sizes[k]`` of them for step
    k, taken in turn from a shuffled order of the pool. A fresh order is
    drawn when a step would run past the end, so a step never repeats a row."""
    order = []
    for k in sizes:
        if len(order) < k:
            order = list(range(n))
            rng.shuffle(order)
        yield np.array(order[:k])
        order = order[k:]


def _fit(phase: str, params, head: str, cfg: TrainConfig, steps, step, make=None):
    """Train ``head`` and the encoder for one step per row array in
    ``steps`` (see _step_rows), cfg.epochs epochs of equally many steps.

    ``step(rows, views)`` maps a step's row indices and views to (loss,
    gradients), the gradients in trainable_arrays order; a non-finite loss
    or gradient stops the run before the optimizer step. With ``make``,
    each step's views are its block from _views_ahead over ``make``;
    without, they are None. The cosine schedule spans exactly the steps
    taken. Records the per-epoch mean loss.
    """
    per_epoch = len(steps) // cfg.epochs
    opt = _Optimizer(trainable_arrays(params, head), cfg, len(steps))
    views = (None for _ in steps) if make is None else _views_ahead(make, len(steps))
    losses = []
    with closing(views):
        for k, rows in enumerate(steps):
            loss, grads = step(rows, next(views))
            _check_finite(loss, grads, phase, *divmod(k, per_epoch))
            opt.step(grads)
            losses.append(loss)
    history = [float(np.mean(losses[k : k + per_epoch])) for k in range(0, len(losses), per_epoch)]
    return TrainResult(params=params, loss_history=history)


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
    # the corpus is held W wide (_live_stack). Net views are made from rows
    # padded back to L, as a net view may reach further right; a flip never
    # moves a cell, so flip views are made W wide and padded after
    corpus, length = _live_stack(unlabeled)
    if augmenter == "net":
        check_net_inputs(np.count_nonzero(corpus, axis=1), aug, dist)

    dims = dims or ModelDims(trace_len=length)
    root = RandomSource(cfg.seed)
    params = init_params(dims, root.spawn(_S_INIT))
    rng_aug = root.spawn(_S_AUG)
    # each step's traces take two consecutive views, as rows 2i and 2i+1. A
    # row's augmentation draws depend on its cells alone, so every step's
    # first draw is known ahead, and any run of steps can be made on its own
    # in one call, with the bytes of making every step in order.
    steps = _step_rows(len(unlabeled), cfg, drop_last=True)
    draws = net_draw_counts(corpus, aug) if augmenter == "net" else flip_draw_counts(corpus)
    first_draw = _first_draws(2 * draws, steps)

    def make(first, stop):
        cells = corpus[np.repeat(np.concatenate(steps[first:stop]), 2)]
        rng = rng_aug.at(first_draw[first])
        if augmenter == "net":
            return net_augment_batch(_padded(cells, length), aug, dist, rng)
        return _padded(flip_augment_batch(cells, aug.p_flip, rng), length)

    def step(rows, views):
        return contrastive_forward_backward(views, params, ssl.tau_s)

    return _fit("pretrain", params, "projection", cfg, steps, step, make)


def finetune(
    params: ModelParams, labeled: list[DirectionTrace], cfg: TrainConfig
) -> TrainResult:
    """Cross-entropy training of encoder plus classifier on labeled traces.

    The projection head plays no further role and is left as is. A fresh
    classifier is attached when none of the right width is present;
    partial batches are kept.
    """
    return _semi_supervised(labeled, None, cfg, None, None, 0.0, None, None, params)


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


def _semi_supervised(labeled, unlabeled, cfg, ssl, aug_strong, p_flip_weak, dist, dims,
                     params=None):
    """Weakly flipped cross-entropy on labeled batches, plus the pseudo-label
    term when ``unlabeled`` is given: fine-tuning of ``params``, or, on a
    fresh encoder, the supervised baseline or ``netfm``.

    A step's views are one block: its labeled rows flipped, then its
    unlabeled rows flipped and burst-augmented, zero-padded to the rows of
    step 0, which has the most. The labeled flips draw from their stream in
    step order, the unlabeled views from theirs, flips then bursts; no view
    depends on the weights, so every step's rows and first draws are known
    before the first step. With neither unlabeled rows nor weak flips, no
    views are made and a step scores its labeled cells. Each corpus is held
    W wide (_live_stack); flips are made W wide and net views from rows
    padded to L, and every block and scored row is L wide.
    """
    labeled_cells, length, y, n_classes = _labeled_arrays(labeled)
    if unlabeled is not None:
        unlabeled_cells, unlabeled_length = _live_stack(unlabeled)
        if unlabeled_length != length:
            raise ValueError(f"unlabeled traces are {unlabeled_length} cells long, labeled"
                             f" traces {length}; both must have the same length")
    phase = "netfm" if unlabeled is not None else "supervised" if params is None else "finetune"
    root = RandomSource(cfg.seed)
    if params is None:
        params = init_params(dims or ModelDims(trace_len=length), root.spawn(_S_INIT))
    if params.n_classes != n_classes:
        attach_classifier(params, n_classes, root.spawn(_S_CLF))
    steps = _step_rows(len(labeled), cfg, drop_last=False)
    augmented = unlabeled is not None or p_flip_weak != 0
    if augmented:
        rng_weak = root.spawn(_S_AUG)
        weak_first = _first_draws(flip_draw_counts(labeled_cells), steps)
    # step 0 has the most rows
    rows = len(steps[0]) * (1 if unlabeled is None else 1 + 2 * cfg.mu)
    if unlabeled is not None:
        pool = list(_pool_rows(len(unlabeled), [cfg.mu * len(b) for b in steps],
                               root.spawn(_S_UNLAB_SHUFFLE)))
        rng_uaug = root.spawn(_S_UNLAB_AUG)
        draws = flip_draw_counts(unlabeled_cells) + net_draw_counts(unlabeled_cells, aug_strong)
        pool_first = _first_draws(draws, pool)

    def make(first, stop):
        out = np.zeros((stop - first, rows, length), np.int8)
        for k in range(first, stop):
            views = [flip_augment_batch(labeled_cells[steps[k]], p_flip_weak,
                                        rng_weak.at(weak_first[k]))]
            if unlabeled is not None:
                cells, rng = unlabeled_cells[pool[k]], rng_uaug.at(pool_first[k])
                views += [flip_augment_batch(cells, p_flip_weak, rng),
                          net_augment_batch(_padded(cells, length), aug_strong, dist, rng)]
            row = 0
            for v in views:
                out[k - first, row : row + len(v), : v.shape[1]] = v
                row += len(v)
        return out.reshape(-1, length)

    retained: list[int] = []

    def step(batch, views):
        n, m = len(batch), cfg.mu * len(batch)
        x = _padded(labeled_cells[batch], length) if views is None else views[:n]
        loss_s, grads = supervised_forward_backward(x, y[batch], params)
        if unlabeled is None:
            return loss_s, grads

        q_weak = classify_batch(views[n : n + m], params)
        pseudo = np.argmax(q_weak, axis=1)
        keep = q_weak.max(axis=1) >= ssl.tau_f
        retained.append(int(keep.sum()))
        loss_u = 0.0
        if keep.any():
            # retained rows summed, divided by the whole unlabeled batch
            loss_u, grads_u = supervised_forward_backward(
                views[n + m : n + 2 * m], pseudo, params, keep, m
            )
            if ssl.lambda_u != 0.0:
                grads = [_add_scaled(g, gu, ssl.lambda_u) for g, gu in zip(grads, grads_u)]
        return loss_s + ssl.lambda_u * loss_u, grads

    result = _fit(phase, params, "classifier", cfg, steps, step, make if augmented else None)
    result.retained_history = retained
    return result
