"""Contrastive loss, projection head and softmax, with analytic gradients.

The contrastive loss is the normalized temperature-scaled cross entropy
over a batch of 2N projected embeddings where rows 2k and 2k+1 are the
two augmented views of source trace k:

    l(i,j) = -log( exp(sim(z_i, z_j)/tau) / sum_{k != i} exp(sim(z_i, z_k)/tau) )

averaged over all 2N ordered positive pairs. sim is cosine similarity.
The projection head maps embeddings to the rows z it scores. The softmax
cross-entropy for labeled and pseudo-labeled rows is
``models.supervised_forward_backward``; ``SslConfig`` holds the
temperature, the pseudo-label threshold and the unlabeled weight.

Every function computes in the dtype of its inputs: float32 in training,
float64 in the gradient checks. Softmax-style denominators are
log-sum-exp stabilized.
"""

from dataclasses import dataclass

import numpy as np


class ZeroVector(ValueError):
    """Cosine similarity is undefined for zero-norm vectors."""


@dataclass(frozen=True)
class SslConfig:
    """Temperatures and weights for the contrastive/semi-supervised losses.

    tau_s: contrastive softmax temperature.
    tau_f: pseudo-label confidence threshold.
    lambda_u: weight of the unlabeled loss term.
    mu: unlabeled-to-labeled batch size ratio; unread, the loop takes
        ``TrainConfig.mu``.
    """

    tau_s: float = 0.5
    tau_f: float = 0.95
    lambda_u: float = 1.0
    mu: int = 19

    def __post_init__(self):
        if not 0.0 < self.tau_s < np.inf:
            raise ValueError("tau_s must be positive and finite")
        if not 0.0 < self.tau_f <= 1.0:
            raise ValueError("tau_f must be in (0, 1]")
        if not 0.0 <= self.lambda_u < np.inf:
            raise ValueError("lambda_u must be finite and >= 0")
        if self.mu < 1:
            raise ValueError("mu must be >= 1")


def _shifted_exp(logits: np.ndarray):
    """(logits minus each row's max, their exp, the exp's row sums)."""
    logits = np.atleast_2d(logits)
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return shifted, e, e.sum(axis=1, keepdims=True)


def softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise stabilized softmax."""
    _, e, total = _shifted_exp(logits)
    return e / total


def log_softmax_picked(logits: np.ndarray, labels: np.ndarray):
    """Softmax rows and each row's log-probability at its label.

    The log-probability is the shifted logit minus the log of the row sum,
    so it stays finite where the probability itself underflows to 0.
    """
    shifted, e, total = _shifted_exp(logits)
    picked = shifted[np.arange(len(shifted)), labels] - np.log(total[:, 0])
    return e / total, picked


def _pair_index(two_n: int) -> np.ndarray:
    """Partner row of each row under the (2k, 2k+1) pairing."""
    idx = np.arange(two_n)
    return idx + 1 - 2 * (idx % 2)


def nt_xent_loss(z: np.ndarray, tau_s: float) -> tuple[float, np.ndarray]:
    """Contrastive loss over 2N paired rows and its gradient w.r.t. z.

    Returns (loss, grad) where grad has the shape of z. With a single
    pair (2N == 2) there are no negatives and the loss is exactly 0.
    """
    z = np.asarray(z)
    two_n, _ = z.shape
    if two_n < 2 or two_n % 2 != 0:
        raise ValueError("need an even number of rows, at least one pair")
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0.0):
        raise ZeroVector("contrastive loss undefined for zero rows")
    zn = z / norms[:, None]
    sims = zn @ zn.T
    logits = sims / tau_s
    np.fill_diagonal(logits, -np.inf)

    row_max = logits.max(axis=1)
    lse = row_max + np.log(np.exp(logits - row_max[:, None]).sum(axis=1))
    partner = _pair_index(two_n)
    losses = lse - logits[np.arange(two_n), partner]
    loss = float(losses.mean())

    # dL/dsims, treating sims[i, k] as it appears in row i's term only;
    # the symmetric contribution is added by the transpose below.
    probs = np.exp(logits - lse[:, None])
    probs[np.arange(two_n), partner] -= 1.0
    g = probs / (tau_s * two_n)
    m = g + g.T
    d_zn = m @ zn
    # back through the row normalization z -> z / |z|
    grad = (d_zn - (d_zn * zn).sum(axis=1, keepdims=True) * zn) / norms[:, None]
    return loss, grad


def project_batch(embeddings: np.ndarray, w1: np.ndarray, w2: np.ndarray):
    """Batched projection forward pass; returns (z, hidden preactivation)."""
    pre = embeddings @ w1.T
    return np.maximum(pre, 0.0) @ w2.T, pre


def project_backward(
    d_z: np.ndarray, embeddings: np.ndarray, pre: np.ndarray, w1, w2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_embeddings, d_w1, d_w2) of the batched projection."""
    hidden = np.maximum(pre, 0.0)
    d_w2 = d_z.T @ hidden
    d_hidden = (d_z @ w2) * (pre > 0.0)
    d_w1 = d_hidden.T @ embeddings
    d_e = d_hidden @ w1
    return d_e, d_w1, d_w2
