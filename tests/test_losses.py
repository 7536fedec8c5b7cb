import math

import numpy as np
import pytest

from traceaug.augment import AugmentConfig
from traceaug.distributions import build_distribution
from traceaug.gradcheck import finite_difference, max_rel_error
from traceaug.losses import (
    SslConfig,
    ZeroVector,
    nt_xent_loss,
    project_backward,
    project_batch,
    softmax,
)
from traceaug.models import (
    ModelDims,
    ModelParams,
    attach_classifier,
    cast_params,
    init_params,
    supervised_forward_backward,
)
from traceaug.rng import RandomSource
from traceaug.traces import DirectionTrace, fit_length
from traceaug.training import TrainConfig, train_netfm


def xent(logits, labels, keep=None, denom=None, dtype=np.float64):
    """supervised_forward_backward on a one-layer model whose logits are
    exactly its inputs, so each test sets the probabilities it scores."""
    logits = np.asarray(logits, dtype=dtype)
    k = logits.shape[1]
    eye = np.eye(k, dtype=dtype)
    params = ModelParams(
        encoder=[(eye.copy(), np.zeros(k, dtype))], proj_w1=eye.copy(), proj_w2=eye.copy(),
        clf_w=eye.copy(), clf_b=np.zeros(k, dtype),
    )
    return supervised_forward_backward(logits, np.asarray(labels), params, keep, denom)


def flat_grads(result):
    _, enc_grads, d_w, d_b = result
    return np.concatenate([g.ravel() for pair in enc_grads for g in pair] + [d_w.ravel(), d_b])


class TestNtXent:
    def test_single_pair_loss_is_zero(self):
        z = np.random.default_rng(0).normal(size=(2, 6))
        loss, grad = nt_xent_loss(z, 0.5)
        assert loss == 0.0
        assert np.all(grad == 0.0)

    def test_orthonormal_pairs_value(self):
        e1 = np.array([1.0, 0.0, 0.0])
        e2 = np.array([0.0, 1.0, 0.0])
        loss, _ = nt_xent_loss(np.stack([e1, e1, e2, e2]), 1.0)
        assert loss == pytest.approx(math.log(1 + 2 / math.e), abs=1e-12)

    def test_direct_evaluation_oracle(self):
        # independent scalar evaluation of the formula
        rng = np.random.default_rng(1)
        z = rng.normal(size=(6, 4))
        tau = 0.7
        zn = z / np.linalg.norm(z, axis=1, keepdims=True)
        expected = 0.0
        for i in range(6):
            j = i + 1 if i % 2 == 0 else i - 1
            num = math.exp(np.dot(zn[i], zn[j]) / tau)
            den = sum(
                math.exp(np.dot(zn[i], zn[k]) / tau) for k in range(6) if k != i
            )
            expected += -math.log(num / den)
        expected /= 6
        loss, _ = nt_xent_loss(z, tau)
        assert loss == pytest.approx(expected, rel=1e-12)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(5):
            z = rng.normal(size=(8, 5))
            _, grad = nt_xent_loss(z, 0.5)
            numeric = finite_difference(
                lambda flat: nt_xent_loss(flat.reshape(8, 5), 0.5)[0],
                z.ravel(),
                step=1e-5,
            )
            worst = max(worst, max_rel_error(grad.ravel(), numeric))
        assert worst < 1e-4

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            z = rng.normal(size=(10, 3))
            loss, _ = nt_xent_loss(z, 0.5)
            assert loss >= 0.0

    def test_uniform_scaling_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.normal(size=(8, 5))
        base, _ = nt_xent_loss(z, 0.5)
        for c in (1e-3, 0.37, 41.0):
            scaled, _ = nt_xent_loss(c * z, 0.5)
            assert abs(scaled - base) < 1e-12

    def test_zero_row_rejected(self):
        z = np.ones((4, 3))
        z[2] = 0.0
        with pytest.raises(ZeroVector):
            nt_xent_loss(z, 1.0)


class TestCrossEntropy:
    """The one softmax cross-entropy, models.supervised_forward_backward."""

    def test_perfect_prediction(self):
        # exp(-800) underflows, so the true class gets probability exactly 1
        assert xent([[0.0, 800.0]], [1])[0] == 0.0

    def test_uniform_prediction(self):
        # a zero classifier gives uniform rows, whatever the encoder does
        params = init_params(ModelDims(trace_len=32, hidden=(16,), embed_dim=8), RandomSource(0))
        attach_classifier(params, 4, RandomSource(1))
        params = cast_params(params, np.float64)
        params.clf_w[:] = 0.0
        x = np.random.default_rng(0).choice([-1.0, 1.0], size=(5, 32))
        loss = supervised_forward_backward(x, np.array([0, 1, 2, 3, 3]), params)[0]
        assert loss == pytest.approx(math.log(4), rel=1e-14)

    def test_quarter_probability(self):
        assert xent([np.log([0.5, 0.25, 0.25])], [1])[0] == pytest.approx(math.log(4))

    def test_zero_probability_clamped(self):
        # the true class underflows to 0; it scores as 1e-300, not inf
        result = xent([[0.0, -1e4]], [1])
        assert result[0] == pytest.approx(300 * math.log(10))
        assert np.all(np.isfinite(flat_grads(result)))

    def test_zero_probability_clamped_float32(self):
        # float32 rounds 1e-300 itself to 0; the floor holds on the log scale
        result = xent([[0.0, -1e4]], [1], dtype=np.float32)
        assert result[0] == pytest.approx(300 * math.log(10))
        grads = flat_grads(result)
        assert grads.dtype == np.float32 and np.all(np.isfinite(grads))


def tiny_netfm_corpus():
    """Three labeled classes, four rows each, and 40 unlabeled traces."""
    rng = np.random.default_rng(1004)
    patterns = [np.where(rng.random(64) < 0.5, -1, 1) for _ in range(3)]
    labeled = [DirectionTrace(p.copy(), label=c) for c, p in enumerate(patterns) for _ in range(4)]
    unlabeled = [
        DirectionTrace(fit_length(np.where(rng.random(40) < 0.5, -1, 1), 64))
        for _ in range(40)
    ]
    return labeled, unlabeled


class TestFixmatch:
    """The pseudo-label term: the masked cross-entropy over retained rows,
    divided by the whole unlabeled batch, and train_netfm's threshold."""

    def test_supervised_perfect(self):
        assert xent(800.0 * np.eye(3), [0, 1, 2])[0] == 0.0

    def test_supervised_mean(self):
        logits = [[800.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]
        assert xent(logits, [0, 1])[0] == pytest.approx(math.log(4) / 2)

    def test_supervised_single_row_reduces_to_cross_entropy(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        rows = [xent(logits[i : i + 1], labels[i : i + 1])[0] for i in range(5)]
        for i, loss in enumerate(rows):
            assert loss == pytest.approx(-math.log(softmax(logits[i])[0][labels[i]]), rel=1e-14)
        assert xent(logits, labels)[0] == pytest.approx(np.mean(rows), rel=1e-14)

    def test_unsupervised_all_below_threshold(self):
        result = xent([[0.4, 0.1], [0.0, 0.0]], [0, 1], keep=np.zeros(2, dtype=bool), denom=2)
        assert result[0] == 0.0
        assert np.all(flat_grads(result) == 0.0)

    def test_unsupervised_zero_threshold_keeps_all(self):
        # keeping every row over the row count is the labeled loss, bit for bit
        logits = np.random.default_rng(9).normal(size=(6, 4))
        labels = np.array([3, 0, 1, 1, 2, 0])
        kept = xent(logits, labels, keep=np.ones(6, dtype=bool), denom=6)
        plain = xent(logits, labels)
        assert kept[0] == plain[0]
        assert flat_grads(kept).tobytes() == flat_grads(plain).tobytes()

    def test_unsupervised_hand_evaluation(self):
        # one of two rows retained; its strong row puts 0.5 on the pseudo-class
        strong = np.log([[0.5, 0.5], [0.1, 0.9]])
        keep = np.array([True, False])
        assert xent(strong, [0, 0], keep=keep, denom=2)[0] == pytest.approx(math.log(2) / 2)
        assert xent(strong, [0, 0], keep=keep, denom=5)[0] == pytest.approx(math.log(2) / 5)

    def test_retained_monotone_in_threshold(self):
        # one step per run: every tau_f sees the same first weak predictions
        labeled, unlabeled = tiny_netfm_corpus()
        dist = build_distribution(unlabeled)
        dims = ModelDims(trace_len=64, hidden=(32,), embed_dim=16)
        cfg = TrainConfig(batch_size=12, epochs=1, learning_rate=1e-3, seed=5, mu=2)
        retained = [
            train_netfm(
                labeled, unlabeled, cfg, SslConfig(tau_f=tau_f), AugmentConfig(),
                p_flip_weak=0.1, dist=dist, dims=dims,
            ).retained_history[0]
            for tau_f in np.linspace(0.05, 1.0, 20)
        ]
        # any softmax max clears 1/3, and an unsaturated model never reaches 1
        assert retained[0] == 24 and retained[-1] == 0
        assert all(a >= b for a, b in zip(retained, retained[1:]))

    def test_joint_permutation_invariance(self):
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(12, 4))
        labels = rng.integers(0, 4, size=12)
        keep = rng.random(12) < 0.5
        perm = rng.permutation(12)
        a = xent(logits, labels, keep, 12)
        b = xent(logits[perm], labels[perm], keep[perm], 12)
        assert a[0] == pytest.approx(b[0], rel=1e-14)
        assert np.allclose(flat_grads(a), flat_grads(b), rtol=1e-13, atol=1e-16)


class TestProject:
    def test_identity_weights_passthrough(self):
        e = np.array([[0.5, 2.0, 0.0], [1.0, 0.0, 3.0]])
        eye = np.eye(3)
        z, pre = project_batch(e, eye, eye)
        assert np.allclose(z, e) and np.allclose(pre, e)

    def test_relu_clamps_negative(self):
        e = np.array([[-1.0, -2.0], [-0.5, 3.0]])
        z, _ = project_batch(e, np.eye(2), np.eye(2))
        assert np.allclose(z, [[0.0, 0.0], [0.0, 3.0]])

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        e = rng.normal(size=(3, 6))
        w1 = rng.normal(size=(6, 6))
        w2 = rng.normal(size=(2, 6))
        z, pre = project_batch(e, w1, w2)
        d_e, d_w1, d_w2 = project_backward(2 * z, e, pre, w1, w2)
        analytic = np.concatenate([d_e.ravel(), d_w1.ravel(), d_w2.ravel()])
        sizes = [e.size, w1.size, w2.size]

        def f(flat):
            pe, p1, p2 = np.split(flat, np.cumsum(sizes)[:-1])
            zz, _ = project_batch(pe.reshape(e.shape), p1.reshape(w1.shape), p2.reshape(w2.shape))
            return float((zz ** 2).sum())

        numeric = finite_difference(f, np.concatenate([e.ravel(), w1.ravel(), w2.ravel()]))
        assert max_rel_error(analytic, numeric) < 1e-4


class TestSslConfig:
    def test_defaults_valid(self):
        cfg = SslConfig()
        assert cfg.tau_s == 0.5 and cfg.tau_f == 0.95 and cfg.lambda_u == 1.0 and cfg.mu == 19

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            SslConfig(tau_s=0.0)
        with pytest.raises(ValueError):
            SslConfig(tau_f=0.0)
        with pytest.raises(ValueError):
            SslConfig(lambda_u=-0.1)
        with pytest.raises(ValueError):
            SslConfig(mu=0)

    @pytest.mark.parametrize("field", ["tau_s", "lambda_u"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            SslConfig(**{field: value})
