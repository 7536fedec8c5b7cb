"""Reference encoder, heads, their training losses, and checkpoint format.

The encoder is a configurable fully connected stack with relu between
layers and a linear output (the trace embedding). Two heads attach to it:
a bias-free two-matrix projection head used only during contrastive
pre-training, and a softmax classifier used for fine-tuning and
deployment. The projection output width is a quarter of the embedding
width. Weights, activations, gradients and optimizer state are float32:
weights are drawn in float64 and stored rounded. Every forward and
backward function follows the dtype of the weights it is given, so
``gradcheck`` runs the same code on float64 copies of the weights.
Checkpoints store float64 blocks, which hold float32 values exactly.

``supervised_forward_backward`` is the only softmax cross-entropy: it
scores labeled rows and, with a row mask and a larger denominator,
pseudo-labeled rows. ``gradcheck`` checks it and the contrastive loss
against finite differences.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

from .losses import log_softmax_picked, project_backward, project_batch, softmax
from .rng import RandomSource
from .traces import DirectionTrace

_CKPT_MAGIC = b"TAUG"
_CKPT_VERSION = 1

# the working dtype of weights and of training
_DTYPE = np.float32

#: float64 values per block when weights are drawn, saved or loaded
_BLOCK = 1 << 16

# the smallest true-class log-probability the cross-entropy scores
_LOG_FLOOR = float(np.log(1e-300))


@dataclass(frozen=True)
class ModelDims:
    """Shape of the network; defaults are the desk-scale configuration."""

    trace_len: int = 500
    hidden: tuple[int, ...] = (256, 128)
    embed_dim: int = 64

    def __post_init__(self):
        if self.trace_len < 1:
            raise ValueError("trace_len must be >= 1")
        if any(width < 1 for width in self.hidden):
            raise ValueError("hidden widths must be >= 1")
        if self.embed_dim < 4 or self.embed_dim % 4 != 0:
            raise ValueError("embed_dim must be a multiple of 4 (projection is embed/4)")

    @property
    def proj_dim(self) -> int:
        return self.embed_dim // 4


@dataclass(eq=False)
class ModelParams:
    """Encoder layer weights plus projection and (optional) classifier heads."""

    encoder: list[tuple[np.ndarray, np.ndarray]]
    proj_w1: np.ndarray
    proj_w2: np.ndarray
    clf_w: np.ndarray | None = None
    clf_b: np.ndarray | None = None

    @property
    def trace_len(self) -> int:
        return self.encoder[0][0].shape[1]

    @property
    def embed_dim(self) -> int:
        return self.encoder[-1][0].shape[0]

    @property
    def n_classes(self) -> int | None:
        return None if self.clf_w is None else self.clf_w.shape[0]


def _glorot_uniform(rng: RandomSource, fan_out: int, fan_in: int) -> np.ndarray:
    """Glorot-uniform weights, drawn and scaled in float64, stored rounded.

    The values are drawn _BLOCK at a time, so the float64 temporaries of a
    wide first layer stay small; the stream is counter-based, so the values
    are those of one draw of them all.
    """
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    w = np.empty(fan_out * fan_in, _DTYPE)
    for start in range(0, w.size, _BLOCK):
        u = rng.uniforms(min(_BLOCK, w.size - start))
        w[start : start + len(u)] = (u * 2.0 - 1.0) * bound
    return w.reshape(fan_out, fan_in)


def init_params(dims: ModelDims, rng: RandomSource) -> ModelParams:
    """Fresh encoder and projection head; no classifier attached yet."""
    sizes = (dims.trace_len, *dims.hidden, dims.embed_dim)
    encoder = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        encoder.append((_glorot_uniform(rng, fan_out, fan_in), np.zeros(fan_out, _DTYPE)))
    proj_w1 = _glorot_uniform(rng, dims.embed_dim, dims.embed_dim)
    proj_w2 = _glorot_uniform(rng, dims.proj_dim, dims.embed_dim)
    return ModelParams(encoder=encoder, proj_w1=proj_w1, proj_w2=proj_w2)


def attach_classifier(params: ModelParams, n_classes: int, rng: RandomSource) -> None:
    """Attach a freshly initialized softmax head for n_classes, in place."""
    if n_classes < 2:
        raise ValueError("need at least 2 classes")
    params.clf_w = _glorot_uniform(rng, n_classes, params.embed_dim)
    params.clf_b = np.zeros(n_classes, _DTYPE)


def cast_params(params: ModelParams, dtype) -> ModelParams:
    """A copy of params with every array in ``dtype``; the gradient checks
    run on float64 copies."""
    def cast(a):
        return None if a is None else a.astype(dtype)

    return ModelParams(
        encoder=[(cast(w), cast(b)) for w, b in params.encoder],
        proj_w1=cast(params.proj_w1), proj_w2=cast(params.proj_w2),
        clf_w=cast(params.clf_w), clf_b=cast(params.clf_b),
    )


# -- forward / backward -----------------------------------------------------


def encode_batch(x: np.ndarray, params: ModelParams):
    """Forward pass of the encoder; returns (embeddings, layer caches).

    ``x`` holds int8 or float rows. The first layer works on the batch's
    live column prefix only: columns right of the last one with a nonzero
    cell in any row are zero padding, so only ``x[:, :k]`` is cast to the
    weights' dtype and multiplied by ``W[:, :k]``; for k = 0 the first
    preactivation is the bias. Caches hold each layer's input activation
    (k columns wide for the first layer) and preactivation, which is
    exactly what the backward pass needs.
    """
    x = np.atleast_2d(np.asarray(x))
    if x.shape[1] != params.trace_len:
        raise ValueError(f"expected trace length {params.trace_len}, got {x.shape[1]}")
    live = np.flatnonzero(x.any(axis=0))
    k = int(live[-1]) + 1 if live.size else 0
    caches = []
    act = np.asarray(x[:, :k], dtype=params.encoder[0][0].dtype)
    last = len(params.encoder) - 1
    for i, (w, b) in enumerate(params.encoder):
        pre = act @ (w[:, :k] if i == 0 else w).T + b
        caches.append((act, pre))
        act = pre if i == last else np.maximum(pre, 0.0)
    return act, caches


def encode_backward(d_embed: np.ndarray, caches, params: ModelParams):
    """Gradients of all encoder weights given d(loss)/d(embeddings).

    The first-layer weight gradient covers only the live prefix that
    encode_batch used, shape (hidden, k); the columns it leaves out are
    exact zeros. Every other gradient has its array's full shape.
    """
    grads = [None] * len(params.encoder)
    d_act = d_embed
    last = len(params.encoder) - 1
    for i in range(last, -1, -1):
        act_in, pre = caches[i]
        d_pre = d_act if i == last else d_act * (pre > 0.0)
        grads[i] = (d_pre.T @ act_in, d_pre.sum(axis=0))
        if i > 0:
            d_act = d_pre @ params.encoder[i][0]
    return grads


def classify_batch(x: np.ndarray, params: ModelParams) -> np.ndarray:
    """Class probability rows for a batch of cell arrays."""
    if params.clf_w is None:
        raise ValueError("no classifier attached; fine-tune or attach one first")
    embed, _ = encode_batch(x, params)
    return softmax(embed @ params.clf_w.T + params.clf_b)


def predict_batch(params: ModelParams, traces: list[DirectionTrace]) -> np.ndarray:
    """Probability rows for a list of traces, input order preserved."""
    if len(traces) == 0:
        n = params.n_classes or 0
        return np.empty((0, n), dtype=params.encoder[0][0].dtype)
    return classify_batch(np.stack([t.cells for t in traces]), params)


def contrastive_forward_backward(x: np.ndarray, params: ModelParams, tau_s: float):
    """Loss and gradients of NT-Xent through projection head and encoder.

    Returns (loss, encoder grads, d_proj_w1, d_proj_w2).
    """
    from .losses import nt_xent_loss

    embed, caches = encode_batch(x, params)
    z, pre = project_batch(embed, params.proj_w1, params.proj_w2)
    loss, d_z = nt_xent_loss(z, tau_s)
    d_embed, d_w1, d_w2 = project_backward(d_z, embed, pre, params.proj_w1, params.proj_w2)
    enc_grads = encode_backward(d_embed, caches, params)
    return loss, enc_grads, d_w1, d_w2


def supervised_forward_backward(x: np.ndarray, labels: np.ndarray, params: ModelParams,
                                keep: np.ndarray | None = None, denom: float | None = None):
    """Softmax cross-entropy through classifier and encoder, the one used
    for both labeled and pseudo-labeled rows.

    The loss is -sum over the rows in ``keep`` of log p[label], divided by
    ``denom``; a true-class probability below 1e-300 counts as 1e-300, in
    float32 too, since the floor applies to the log-probability. By
    default every row is kept and ``denom`` is the row count, which gives
    the mean. Returns (loss, encoder grads, d_clf_w, d_clf_b).
    """
    n = len(labels)
    keep = np.ones(n, dtype=bool) if keep is None else keep
    denom = n if denom is None else denom
    embed, caches = encode_batch(x, params)
    probs, log_picked = log_softmax_picked(embed @ params.clf_w.T + params.clf_b, labels)
    loss = float(-(np.maximum(log_picked, _LOG_FLOOR) * keep).sum() / denom)
    d_logits = probs
    d_logits[np.arange(n), labels] -= 1.0
    d_logits *= (keep / denom).astype(d_logits.dtype)[:, None]
    d_clf_w = d_logits.T @ embed
    d_clf_b = d_logits.sum(axis=0)
    d_embed = d_logits @ params.clf_w
    enc_grads = encode_backward(d_embed, caches, params)
    return loss, enc_grads, d_clf_w, d_clf_b


# -- flat parameter views (finite-difference checks) -------------------------


def pack_params(arrays: list[np.ndarray]) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def unpack_params(flat: np.ndarray, arrays: list[np.ndarray]) -> None:
    """Write a flat vector back into the given arrays, in place."""
    offset = 0
    for a in arrays:
        a[...] = flat[offset : offset + a.size].reshape(a.shape)
        offset += a.size


def trainable_arrays(params: ModelParams, head: str) -> list[np.ndarray]:
    """Parameter arrays updated in a phase: head is 'projection' or 'classifier'."""
    arrays = []
    for w, b in params.encoder:
        arrays += [w, b]
    if head == "projection":
        arrays += [params.proj_w1, params.proj_w2]
    elif head == "classifier":
        if params.clf_w is None:
            raise ValueError("no classifier attached")
        arrays += [params.clf_w, params.clf_b]
    else:
        raise ValueError(f"unknown head {head!r}")
    return arrays


# -- checkpoint format -------------------------------------------------------
#
# Binary container: magic, version, then dims header (layer shapes) and
# row-major float64 blocks, little-endian throughout. float32 weights are
# written exactly and read back rounded to float32, so a float32 model
# round-trips byte for byte.


def _write_block(fh, arr: np.ndarray) -> None:
    fh.write(struct.pack("<II", *arr.shape) if arr.ndim == 2 else struct.pack("<I", arr.shape[0]))
    flat = arr.ravel()
    for start in range(0, flat.size, _BLOCK):
        fh.write(flat[start : start + _BLOCK].astype("<f8"))


def save_params(path, params: ModelParams) -> None:
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<I", _CKPT_VERSION))
        fh.write(struct.pack("<IB", len(params.encoder), params.clf_w is not None))
        for w, b in params.encoder:
            _write_block(fh, w)
            _write_block(fh, b)
        _write_block(fh, params.proj_w1)
        _write_block(fh, params.proj_w2)
        if params.clf_w is not None:
            _write_block(fh, params.clf_w)
            _write_block(fh, params.clf_b)


def _read_exact(fh, n: int) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise ValueError("truncated checkpoint")
    return data


def _read_values(fh, n: int) -> np.ndarray:
    if os.fstat(fh.fileno()).st_size - fh.tell() < 8 * n:  # a header may claim any size
        raise ValueError("truncated checkpoint")
    out = np.empty(n, _DTYPE)
    for start in range(0, n, _BLOCK):
        k = min(_BLOCK, n - start)
        out[start : start + k] = np.frombuffer(_read_exact(fh, k * 8), dtype="<f8")
    return out


def _read_matrix(fh) -> np.ndarray:
    rows, cols = struct.unpack("<II", _read_exact(fh, 8))
    return _read_values(fh, rows * cols).reshape(rows, cols)


def _read_vector(fh) -> np.ndarray:
    (n,) = struct.unpack("<I", _read_exact(fh, 4))
    return _read_values(fh, n)


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4) != _CKPT_MAGIC:
            raise ValueError("not a model checkpoint")
        (version,) = struct.unpack("<I", _read_exact(fh, 4))
        if version != _CKPT_VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        n_layers, has_clf = struct.unpack("<IB", _read_exact(fh, 5))
        encoder = [(_read_matrix(fh), _read_vector(fh)) for _ in range(n_layers)]
        proj_w1 = _read_matrix(fh)
        proj_w2 = _read_matrix(fh)
        clf_w = clf_b = None
        if has_clf:
            clf_w = _read_matrix(fh)
            clf_b = _read_vector(fh)
    return ModelParams(encoder=encoder, proj_w1=proj_w1, proj_w2=proj_w2, clf_w=clf_w, clf_b=clf_b)
