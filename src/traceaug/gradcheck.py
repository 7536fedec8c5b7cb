"""Central finite-difference verification of every analytic gradient.

The checks are the independent oracle for the hand-written backward
passes: they only ever call the forward/loss functions. Training runs in
float32, but the checks run the same dtype-generic functions on float64
copies of the weights: in float32, rounding alone moves a 1e-5 step's
difference quotient by ~1e-2, far above the 1e-4 tolerance. Random
instances whose relu preactivations sit within a guard band of zero are
resampled, since a finite-difference step across the kink measures a
subgradient mismatch rather than an implementation error.
"""

import numpy as np

from .losses import nt_xent_loss, project_batch, project_backward, softmax
from .models import (
    ModelDims,
    attach_classifier,
    cast_params,
    contrastive_forward_backward,
    encode_batch,
    init_params,
    pack_params,
    supervised_forward_backward,
    trainable_arrays,
    unpack_params,
)
from .rng import RandomSource

_KINK_GUARD = 1e-3


def finite_difference(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function of a flat vector."""
    grad = np.zeros_like(x)
    for i in range(len(x)):
        xp = x.copy()
        xp[i] += step
        xm = x.copy()
        xm[i] -= step
        grad[i] = (f(xp) - f(xm)) / (2.0 * step)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    return float((np.abs(analytic - numeric) / denom).max())


def _near_kink(pre: np.ndarray) -> bool:
    return bool((np.abs(pre) < _KINK_GUARD).any())


def _random_instance(rng: RandomSource, dims: ModelDims, rows: int, n_classes: int,
                     live: int | None = None):
    """Params and inputs with no relu preactivation near zero; with ``live``,
    every input column from ``live`` on is zero padding."""
    for _ in range(100):
        params = init_params(dims, rng)
        attach_classifier(params, n_classes, rng)
        params = cast_params(params, np.float64)
        x = (rng.uniforms(rows * dims.trace_len).reshape(rows, dims.trace_len) * 2.0) - 1.0
        if live is not None:
            x[:, live:] = 0.0
        embed, caches = encode_batch(x, params)
        _, proj_pre = project_batch(embed, params.proj_w1, params.proj_w2)
        # relu applies to every encoder layer except the last
        if not any(_near_kink(pre) for _, pre in caches[:-1]) and not _near_kink(proj_pre):
            labels = np.array([rng.randbelow(n_classes) for _ in range(rows)])
            return params, x, labels
    raise RuntimeError("could not sample an instance away from relu kinks")


def check_nt_xent(rng: RandomSource, two_n: int = 8, dim: int = 5, tau: float = 0.5,
                  step: float = 1e-5) -> float:
    z = rng.uniforms(two_n * dim).reshape(two_n, dim) * 2.0 - 1.0
    _, grad = nt_xent_loss(z, tau)
    numeric = finite_difference(
        lambda flat: nt_xent_loss(flat.reshape(two_n, dim), tau)[0], z.ravel(), step
    )
    return max_rel_error(pack_params([grad]), numeric)


def check_softmax_xent(rng: RandomSource, n_classes: int = 6, step: float = 1e-5) -> float:
    logits = rng.uniforms(n_classes) * 4.0 - 2.0
    label = rng.randbelow(n_classes)
    probs = softmax(logits)[0]
    analytic = probs.copy()
    analytic[label] -= 1.0

    def f(flat):
        return float(-np.log(softmax(flat)[0][label]))

    return max_rel_error(analytic, finite_difference(f, logits, step))


def check_projection(rng: RandomSource, dims: ModelDims | None = None, rows: int = 4,
                     step: float = 1e-5) -> float:
    dims = dims or ModelDims(trace_len=32, hidden=(16,), embed_dim=8)
    params, x, _ = _random_instance(rng, dims, rows, n_classes=3)
    embed, _ = encode_batch(x, params)
    w1, w2 = params.proj_w1, params.proj_w2

    def loss_of(e_flat, w1_flat, w2_flat):
        e = e_flat.reshape(embed.shape)
        z, _ = project_batch(e, w1_flat.reshape(w1.shape), w2_flat.reshape(w2.shape))
        return float((z ** 2).sum())

    z, pre = project_batch(embed, w1, w2)
    d_e, d_w1, d_w2 = project_backward(2.0 * z, embed, pre, w1, w2)
    analytic = pack_params([d_e, d_w1, d_w2])
    flat0 = pack_params([embed, w1, w2])
    sizes = [embed.size, w1.size, w2.size]

    def f(flat):
        parts = np.split(flat, np.cumsum(sizes)[:-1])
        return loss_of(*parts)

    return max_rel_error(analytic, finite_difference(f, flat0, step))


def _pack_padded(enc_grads, heads, trace_len: int) -> np.ndarray:
    """pack_params of the gradients, the first-layer weight gradient
    zero-padded to its weight's full width."""
    (w0, b0), *rest = enc_grads
    full = np.zeros((w0.shape[0], trace_len))
    full[:, : w0.shape[1]] = w0
    return pack_params([full, b0] + [g for pair in rest for g in pair] + heads)


def check_full_model(rng: RandomSource, head: str, dims: ModelDims | None = None,
                     rows: int = 8, tau: float = 0.5, step: float = 1e-5,
                     masked: bool = False, zero_tail: bool = False) -> float:
    """End-to-end gradient through the encoder plus one head and its loss.

    ``masked`` scores the classifier as pseudo-labeled rows do: a random row
    mask keeping at least one row, over a denominator above the row count.
    ``zero_tail`` zeroes a random number of trailing input columns in every
    row, so the analytic first-layer weight gradient is narrower than the
    weight; it is zero-padded for the comparison, and the finite differences
    of the dead columns must be exactly 0.
    """
    dims = dims or ModelDims(trace_len=32, hidden=(16,), embed_dim=8)
    live = 1 + rng.randbelow(dims.trace_len - 1) if zero_tail else None
    params, x, labels = _random_instance(rng, dims, rows, n_classes=3, live=live)
    arrays = trainable_arrays(params, head)

    if head == "projection":
        _, enc_grads, d_w1, d_w2 = contrastive_forward_backward(x, params, tau)
        analytic = _pack_padded(enc_grads, [d_w1, d_w2], dims.trace_len)

        def f(flat):
            unpack_params(flat, arrays)
            embed, _ = encode_batch(x, params)
            z, _ = project_batch(embed, params.proj_w1, params.proj_w2)
            return nt_xent_loss(z, tau)[0]

    else:
        keep, denom, mask = np.ones(rows, dtype=bool), rows, ()
        if masked:
            keep = rng.uniforms(rows) < 0.5
            keep[rng.randbelow(rows)] = True
            denom = rows + 1 + rng.randbelow(4 * rows)
            mask = (keep, denom)
        _, enc_grads, d_w, d_b = supervised_forward_backward(x, labels, params, *mask)
        analytic = _pack_padded(enc_grads, [d_w, d_b], dims.trace_len)

        def f(flat):
            unpack_params(flat, arrays)
            embed, _ = encode_batch(x, params)
            probs = softmax(embed @ params.clf_w.T + params.clf_b)
            return float(-np.log(probs[np.arange(rows), labels])[keep].sum() / denom)

    flat0 = pack_params(arrays)
    numeric = finite_difference(f, flat0, step)
    unpack_params(flat0, arrays)
    live_w = enc_grads[0][0].shape[1]
    if numeric[: arrays[0].size].reshape(arrays[0].shape)[:, live_w:].any():
        return float("inf")  # a weight the forward pass skips moved the loss
    return max_rel_error(analytic, numeric)


def run_gradient_checks(seed: int = 0, instances: int = 20, step: float = 1e-5,
                        tolerance: float = 1e-4) -> dict[str, float]:
    """Worst relative error per gradient family over random instances."""
    root = RandomSource(seed)
    results = {
        "nt_xent": max(check_nt_xent(root.spawn(i), step=step) for i in range(instances)),
        "softmax_xent": max(
            check_softmax_xent(root.spawn(1000 + i), step=step) for i in range(instances)
        ),
        "projection": max(
            check_projection(root.spawn(2000 + i), step=step) for i in range(instances)
        ),
        "encoder_contrastive": max(
            check_full_model(root.spawn(3000 + i), "projection", step=step)
            for i in range(instances)
        ),
        "encoder_supervised": max(
            check_full_model(root.spawn(4000 + i), "classifier", step=step)
            for i in range(instances)
        ),
        "encoder_pseudo_label": max(
            check_full_model(root.spawn(5000 + i), "classifier", step=step, masked=True)
            for i in range(instances)
        ),
        "encoder_zero_tail": max(
            check_full_model(root.spawn(6000 + i), "projection", step=step, zero_tail=True)
            for i in range(instances)
        ),
    }
    results["passed"] = float(all(v < tolerance for v in results.values()))
    return results
