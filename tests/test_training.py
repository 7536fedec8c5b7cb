import numpy as np
import pytest

from traceaug import training
from traceaug.augment import AugmentConfig, EmptyDistribution, TraceTooShort
from traceaug.distributions import build_distribution
from traceaug.losses import SslConfig
from traceaug.models import ModelDims, init_params, predict_batch
from traceaug.rng import RandomSource
from traceaug.traces import DirectionTrace, MissingLabel, fit_length
from traceaug.training import (
    InsufficientData,
    MissingClass,
    TrainConfig,
    finetune,
    pretrain,
    strip_labels,
    train_netfm,
    train_supervised,
)

DIMS = ModelDims(trace_len=64, hidden=(32,), embed_dim=16)


def make_corpus(n, rng, label=None, trace_len=64):
    out = []
    for _ in range(n):
        body = np.where(rng.random(int(rng.integers(30, trace_len))) < 0.6, -1, 1)
        out.append(DirectionTrace(fit_length(body, trace_len), label=label))
    return out


def separable_corpus(n_per_class, n_classes, rng, trace_len=64):
    """Each class has its own fixed direction pattern plus tiny noise."""
    patterns = [
        np.where(rng.random(trace_len) < 0.5, -1, 1).astype(np.int8)
        for _ in range(n_classes)
    ]
    traces = []
    for label, pattern in enumerate(patterns):
        for _ in range(n_per_class):
            cells = pattern.copy()
            flip = rng.integers(0, trace_len, size=2)
            cells[flip] = -cells[flip]
            traces.append(DirectionTrace(cells, label=label))
    return traces


def fast_cfg(**kw):
    defaults = dict(batch_size=8, epochs=2, learning_rate=3e-4, seed=0)
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestPretrain:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.corpus = make_corpus(24, rng)
        self.dist = build_distribution(self.corpus)

    def test_rejects_labeled_input(self):
        labeled = make_corpus(8, np.random.default_rng(1), label=0)
        with pytest.raises(ValueError, match="label-free"):
            pretrain(labeled, fast_cfg(), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)

    def test_strip_labels_enables_pretraining(self):
        labeled = make_corpus(8, np.random.default_rng(1), label=0)
        result = pretrain(
            strip_labels(labeled), fast_cfg(epochs=1), AugmentConfig(),
            self.dist, SslConfig(), dims=DIMS,
        )
        assert len(result.loss_history) == 1

    def test_lr_zero_leaves_params_at_init(self):
        result = pretrain(
            self.corpus, fast_cfg(learning_rate=0.0, epochs=1), AugmentConfig(),
            self.dist, SslConfig(), dims=DIMS,
        )
        fresh = init_params(DIMS, RandomSource(0).spawn(0))
        assert result.params.equal(
            type(result.params)(
                encoder=fresh.encoder, proj_w1=fresh.proj_w1, proj_w2=fresh.proj_w2
            )
        )

    def test_same_seed_identical_params(self):
        a = pretrain(self.corpus, fast_cfg(), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)
        b = pretrain(self.corpus, fast_cfg(), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)
        assert a.params.equal(b.params)
        assert a.loss_history == b.loss_history

    def test_different_seed_differs(self):
        a = pretrain(self.corpus, fast_cfg(seed=1), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)
        b = pretrain(self.corpus, fast_cfg(seed=2), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)
        assert not a.params.equal(b.params)

    def test_insufficient_data(self):
        with pytest.raises(InsufficientData):
            pretrain(self.corpus[:4], fast_cfg(), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError):
            pretrain(self.corpus, fast_cfg(batch_size=1), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)

    def test_flip_augmenter_supported(self):
        result = pretrain(
            self.corpus, fast_cfg(epochs=1), AugmentConfig(), None, SslConfig(),
            dims=DIMS, augmenter="flip",
        )
        assert len(result.loss_history) == 1

    def test_loss_decreases_on_structured_data(self):
        rng = np.random.default_rng(7)
        corpus = strip_labels(separable_corpus(12, 4, rng))
        dist = build_distribution(corpus)
        result = pretrain(
            corpus, fast_cfg(epochs=8, batch_size=16, learning_rate=1e-3),
            AugmentConfig(), dist, SslConfig(), dims=DIMS,
        )
        assert result.loss_history[-1] < result.loss_history[0]


class TestFinetune:
    def setup_method(self):
        rng = np.random.default_rng(3)
        self.labeled = separable_corpus(6, 3, rng)
        self.params = init_params(DIMS, RandomSource(9))

    def test_lr_zero_classification_unchanged(self):
        from traceaug.models import attach_classifier

        attach_classifier(self.params, 3, RandomSource(5))
        before = predict_batch(self.params, self.labeled)
        result = finetune(self.params.copy(), self.labeled, fast_cfg(learning_rate=0.0))
        after = predict_batch(result.params, self.labeled)
        assert np.array_equal(before, after)

    def test_missing_class_rejected(self):
        bad = [t for t in self.labeled if t.label != 1]
        with pytest.raises(MissingClass):
            finetune(self.params.copy(), bad, fast_cfg())

    def test_missing_label_rejected(self):
        bad = self.labeled[:4] + make_corpus(1, np.random.default_rng(0))
        with pytest.raises(MissingLabel):
            finetune(self.params.copy(), bad, fast_cfg())

    def test_same_seed_identical(self):
        a = finetune(self.params.copy(), self.labeled, fast_cfg(seed=4))
        b = finetune(self.params.copy(), self.labeled, fast_cfg(seed=4))
        assert a.params.equal(b.params)

    def test_separable_toy_reaches_full_training_accuracy(self):
        rng = np.random.default_rng(11)
        labeled = separable_corpus(1, 5, rng)  # N=1 per class
        result = finetune(
            init_params(DIMS, RandomSource(2)), labeled,
            fast_cfg(epochs=60, learning_rate=5e-3, batch_size=5),
        )
        preds = predict_batch(result.params, labeled)
        labels = [t.label for t in labeled]
        assert np.all(np.argmax(preds, axis=1) == labels)


class TestNetFm:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.labeled = separable_corpus(4, 3, rng)
        self.unlabeled = make_corpus(60, rng)
        self.dist = build_distribution(self.unlabeled)

    def test_lambda_zero_matches_supervised_bitwise(self):
        cfg = fast_cfg(batch_size=4, epochs=2, mu=2)
        ssl = SslConfig(lambda_u=0.0, tau_f=0.9)
        semi = train_netfm(
            self.labeled, self.unlabeled, cfg, ssl, AugmentConfig(),
            p_flip_weak=0.1, dist=self.dist, dims=DIMS,
        )
        plain = train_supervised(self.labeled, cfg, p_flip_weak=0.1, dims=DIMS)
        assert semi.params.equal(plain.params)
        assert semi.loss_history == plain.loss_history

    def test_tau_one_retains_nothing_for_unsaturated_model(self):
        cfg = fast_cfg(batch_size=4, epochs=2, mu=2)
        ssl = SslConfig(lambda_u=1.0, tau_f=1.0)
        result = train_netfm(
            self.labeled, self.unlabeled, cfg, ssl, AugmentConfig(),
            p_flip_weak=0.1, dist=self.dist, dims=DIMS,
        )
        assert all(r == 0 for r in result.retained_history)
        plain = train_supervised(self.labeled, cfg, p_flip_weak=0.1, dims=DIMS)
        assert result.params.equal(plain.params)

    def test_retained_history_recorded_each_step(self):
        cfg = fast_cfg(batch_size=4, epochs=3, mu=2)
        # any softmax max clears 1/L, so every row is retained at this tau
        ssl = SslConfig(lambda_u=1.0, tau_f=0.2)
        result = train_netfm(
            self.labeled, self.unlabeled, cfg, ssl, AugmentConfig(),
            p_flip_weak=0.1, dist=self.dist, dims=DIMS,
        )
        steps = 3 * int(np.ceil(len(self.labeled) / 4))
        assert len(result.retained_history) == steps
        assert all(r >= 0 for r in result.retained_history)

    def test_insufficient_unlabeled_rejected(self):
        cfg = fast_cfg(batch_size=4, mu=19)
        with pytest.raises(InsufficientData):
            train_netfm(
                self.labeled, self.unlabeled[:10], cfg, SslConfig(), AugmentConfig(),
                p_flip_weak=0.1, dist=self.dist, dims=DIMS,
            )

    def test_deterministic(self):
        cfg = fast_cfg(batch_size=4, epochs=1, mu=2)
        ssl = SslConfig(tau_f=0.5)
        a = train_netfm(self.labeled, self.unlabeled, cfg, ssl, AugmentConfig(),
                        p_flip_weak=0.1, dist=self.dist, dims=DIMS)
        b = train_netfm(self.labeled, self.unlabeled, cfg, ssl, AugmentConfig(),
                        p_flip_weak=0.1, dist=self.dist, dims=DIMS)
        assert a.params.equal(b.params)
        assert a.retained_history == b.retained_history


class TestOptimizers:
    def test_sgd_and_adam_both_learn(self):
        rng = np.random.default_rng(13)
        labeled = separable_corpus(4, 3, rng)
        for opt, lr in (("sgd", 0.05), ("adam", 2e-3)):
            result = finetune(
                init_params(DIMS, RandomSource(1)), labeled,
                fast_cfg(optimizer=opt, learning_rate=lr, epochs=25, batch_size=6),
            )
            assert result.loss_history[-1] < result.loss_history[0]

    def test_momentum_changes_trajectory(self):
        rng = np.random.default_rng(14)
        labeled = separable_corpus(3, 3, rng)
        base = finetune(init_params(DIMS, RandomSource(1)), labeled,
                        fast_cfg(optimizer="sgd", learning_rate=0.01))
        mom = finetune(init_params(DIMS, RandomSource(1)), labeled,
                       fast_cfg(optimizer="sgd", learning_rate=0.01, momentum=0.9))
        assert not base.params.equal(mom.params)

    def test_cosine_decay_changes_trajectory_and_learns(self):
        rng = np.random.default_rng(15)
        labeled = separable_corpus(3, 3, rng)
        plain = finetune(init_params(DIMS, RandomSource(1)), labeled, fast_cfg(epochs=4))
        cosine = finetune(init_params(DIMS, RandomSource(1)), labeled,
                          fast_cfg(epochs=4, cosine_decay=True))
        assert not plain.params.equal(cosine.params)

    def test_adam_step_matches_reference_formula_bitwise(self):
        rng = np.random.default_rng(16)
        shapes = [(7, 5), (5,), (3, 7), (2,)]  # scratch is shared across sizes
        arrays = [rng.standard_normal(s) for s in shapes]
        ref = [a.copy() for a in arrays]
        m = [np.zeros_like(a) for a in ref]
        v = [np.zeros_like(a) for a in ref]
        cfg = fast_cfg(learning_rate=1e-2, cosine_decay=True)
        opt = training._Optimizer(arrays, cfg, total_steps=200)
        for t in range(1, 201):
            grads = [rng.standard_normal(s) for s in shapes]
            lr = cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * ((t - 1) / 200)))
            opt.step(grads)
            bc1, bc2 = 1.0 - cfg.beta1 ** t, 1.0 - cfg.beta2 ** t
            for a, g, mm, vv in zip(ref, grads, m, v):
                mm *= cfg.beta1
                mm += (1.0 - cfg.beta1) * g
                vv *= cfg.beta2
                vv += (1.0 - cfg.beta2) * g * g
                a -= lr * (mm / bc1) / (np.sqrt(vv / bc2) + cfg.eps)
        for a, r in zip(arrays, ref):
            assert a.tobytes() == r.tobytes()


class TestBadInputsFailBeforeTraining:
    """Short traces and a missing distribution fail before the first step."""

    @pytest.fixture(autouse=True)
    def count_steps(self, monkeypatch):
        self.steps = 0
        step = training._Optimizer.step

        def counted(opt, grads):
            self.steps += 1
            step(opt, grads)

        monkeypatch.setattr(training._Optimizer, "step", counted)

    def setup_method(self):
        rng = np.random.default_rng(17)
        self.unlabeled = make_corpus(24, rng)
        self.unlabeled[13] = DirectionTrace(fit_length(np.array([-1] * 5), 64))
        self.unlabeled[19] = DirectionTrace(fit_length(np.array([1] * 3), 64))
        self.labeled = separable_corpus(4, 3, rng)
        self.dist = build_distribution(self.unlabeled)

    def test_pretrain_names_first_short_trace(self):
        with pytest.raises(TraceTooShort, match="trace 13"):
            pretrain(self.unlabeled, fast_cfg(), AugmentConfig(), self.dist,
                     SslConfig(), dims=DIMS)
        assert self.steps == 0

    def test_pretrain_rejects_missing_distribution(self):
        with pytest.raises(EmptyDistribution):
            pretrain(self.unlabeled[:12], fast_cfg(), AugmentConfig(), None,
                     SslConfig(), dims=DIMS)
        assert self.steps == 0

    def test_flip_pretrain_needs_neither(self):
        pretrain(self.unlabeled, fast_cfg(epochs=1), AugmentConfig(), None,
                 SslConfig(), dims=DIMS, augmenter="flip")
        assert self.steps == len(self.unlabeled) // 8

    def test_netfm_names_first_short_trace(self):
        with pytest.raises(TraceTooShort, match="trace 13"):
            train_netfm(self.labeled, self.unlabeled, fast_cfg(batch_size=4, mu=2),
                        SslConfig(), AugmentConfig(), 0.1, self.dist, dims=DIMS)
        assert self.steps == 0

    def test_netfm_rejects_missing_distribution(self):
        with pytest.raises(EmptyDistribution):
            train_netfm(self.labeled, self.unlabeled[:12], fast_cfg(batch_size=4, mu=2),
                        SslConfig(), AugmentConfig(), 0.1, None, dims=DIMS)
        assert self.steps == 0
