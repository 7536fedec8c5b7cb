import contextlib
import copy
import errno
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceaug import training
from traceaug.augment import AugmentConfig, EmptyDistribution, TraceTooShort
from traceaug.distributions import build_distribution
from traceaug.losses import SslConfig
from traceaug.models import ModelDims, init_params, pack_params, predict_batch, save_params
from traceaug.rng import RandomSource
from traceaug.traces import DirectionTrace, MissingLabel, fit_length, load_dtrace, save_dtrace
from traceaug.training import (
    InsufficientData,
    MissingClass,
    NonFiniteLoss,
    TrainConfig,
    finetune,
    pretrain,
    strip_labels,
    train_netfm,
    train_supervised,
)

DIMS = ModelDims(trace_len=64, hidden=(32,), embed_dim=16)


def weights(p):
    """Every weight block of p, flattened in checkpoint order."""
    blocks = [a for layer in p.encoder for a in layer] + [p.proj_w1, p.proj_w2, p.clf_w, p.clf_b]
    return pack_params([a for a in blocks if a is not None])


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


@st.composite
def narrow_runs(draw):
    """(rows, width, per-step gradient widths of array 0, special-value rate)."""
    width = draw(st.integers(1, 9))
    widths = draw(st.lists(st.integers(0, width), min_size=1, max_size=30))
    special = draw(st.sampled_from([0.0, 0.05, 0.3]))
    return draw(st.integers(1, 4)), width, widths, special


def narrow_step_inputs(rng, shapes, cols, special):
    """Random gradients for arrays of ``shapes``, array 0's only ``cols``
    columns wide, with NaN, inf and signed zeros at rate ``special``; and
    the same gradients zero-padded to full width."""
    grads = [rng.standard_normal(s) for s in [(shapes[0][0], cols)] + shapes[1:]]
    for g in grads:
        hit = rng.random(g.shape) < special
        g[hit] = rng.choice([np.nan, np.inf, -np.inf, 0.0, -0.0], hit.sum())
    padded = [g.copy() for g in grads]
    padded[0] = np.zeros(shapes[0])
    padded[0][:, :cols] = grads[0]
    return grads, padded


def random_weights(rng, shapes):
    arrays = [rng.standard_normal(s) for s in shapes]
    for a in arrays:  # -0.0 weights, in the never-live tail of array 0 too
        a[rng.random(a.shape) < 0.2] = -0.0
    return arrays


def nan_blind_bytes(x):
    """Bytes of x with every NaN replaced by one canonical NaN."""
    return np.where(np.isnan(x), np.nan, x).tobytes()


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
        assert np.array_equal(weights(result.params), weights(fresh))

    def test_same_seed_identical_params(self):
        a = pretrain(self.corpus, fast_cfg(), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)
        b = pretrain(self.corpus, fast_cfg(), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)
        assert np.array_equal(weights(a.params), weights(b.params))
        assert a.loss_history == b.loss_history

    def test_different_seed_differs(self):
        a = pretrain(self.corpus, fast_cfg(seed=1), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)
        b = pretrain(self.corpus, fast_cfg(seed=2), AugmentConfig(), self.dist, SslConfig(), dims=DIMS)
        assert not np.array_equal(weights(a.params), weights(b.params))

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
        result = finetune(copy.deepcopy(self.params), self.labeled, fast_cfg(learning_rate=0.0))
        after = predict_batch(result.params, self.labeled)
        assert np.array_equal(before, after)

    def test_missing_class_rejected(self):
        bad = [t for t in self.labeled if t.label != 1]
        with pytest.raises(MissingClass):
            finetune(copy.deepcopy(self.params), bad, fast_cfg())

    def test_missing_classes_are_counted_and_the_first_named(self):
        far = [DirectionTrace(self.labeled[0].cells, label=0),
               DirectionTrace(self.labeled[1].cells, label=200_000)]
        with pytest.raises(MissingClass) as info:
            finetune(copy.deepcopy(self.params), far, fast_cfg())
        assert str(info.value) == (
            "no labeled sample for 199999 of classes 0..200000, starting with [1, 2, 3, 4, 5]"
        )

    @pytest.mark.parametrize("labels,message", [
        ((0, 2, 5), "no labeled sample for 3 of classes 0..5, starting with [1, 3, 4]"),
        ((3,), "no labeled sample for 3 of classes 0..3, starting with [0, 1, 2]"),
    ])
    def test_few_missing_classes_are_all_named(self, labels, message):
        few = [DirectionTrace(self.labeled[i].cells, label=c) for i, c in enumerate(labels)]
        with pytest.raises(MissingClass) as info:
            finetune(copy.deepcopy(self.params), few, fast_cfg())
        assert str(info.value) == message

    def test_dtrace_label_near_2_62_is_a_missing_class(self, tmp_path):
        save_dtrace(tmp_path / "far.dtrace", [DirectionTrace(self.labeled[0].cells, label=0),
                                              DirectionTrace(self.labeled[1].cells, label=2**62)])
        far = load_dtrace(tmp_path / "far.dtrace", trace_len=64)
        with pytest.raises(MissingClass, match=rf"^no labeled sample for {2**62 - 1} of classes "):
            finetune(copy.deepcopy(self.params), far, fast_cfg())

    @pytest.mark.parametrize("train", [
        lambda params: finetune(params, [], fast_cfg()),
        lambda params: train_supervised([], fast_cfg(), dims=DIMS),
    ], ids=["finetune", "train_supervised"])
    def test_empty_corpus_rejected(self, train):
        with pytest.raises(InsufficientData, match="^no labeled traces$"):
            train(copy.deepcopy(self.params))

    def test_missing_label_rejected(self):
        bad = self.labeled[:4] + make_corpus(1, np.random.default_rng(0))
        with pytest.raises(MissingLabel):
            finetune(copy.deepcopy(self.params), bad, fast_cfg())

    def test_same_seed_identical(self):
        a = finetune(copy.deepcopy(self.params), self.labeled, fast_cfg(seed=4))
        b = finetune(copy.deepcopy(self.params), self.labeled, fast_cfg(seed=4))
        assert np.array_equal(weights(a.params), weights(b.params))

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
        assert np.array_equal(weights(semi.params), weights(plain.params))
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
        assert np.array_equal(weights(result.params), weights(plain.params))

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

    def test_labeled_rows_narrower_than_unlabeled_match_padded_gradients(self, monkeypatch):
        """Labeled traces end at cell 24 and unlabeled ones run longer, so the
        labeled and pseudo-labeled first-layer gradients differ in width and
        are summed over the wider. The run equals one whose gradients are
        zero-padded to full width, byte for byte."""
        labeled = [DirectionTrace(fit_length(t.cells[:24], 64), label=t.label)
                   for t in self.labeled]
        real = training.supervised_forward_backward

        def run(pad):
            widths = []

            def step(x, *args):
                loss, enc_grads, d_w, d_b = real(x, *args)
                w0, b0 = enc_grads[0]
                widths.append(w0.shape[1])
                if pad:
                    w0 = np.pad(w0, ((0, 0), (0, 64 - w0.shape[1])))
                return loss, [(w0, b0), *enc_grads[1:]], d_w, d_b

            monkeypatch.setattr(training, "supervised_forward_backward", step)
            cfg = fast_cfg(optimizer="sgd", learning_rate=1e-2, momentum=0.9,
                           batch_size=4, epochs=2, mu=2)
            # any softmax max clears 1/L, so every step scores pseudo-labels
            result = train_netfm(labeled, self.unlabeled, cfg, SslConfig(tau_f=0.2),
                                 AugmentConfig(), 0.1, self.dist, dims=DIMS)
            return result, widths

        narrow, widths = run(pad=False)
        padded, _ = run(pad=True)
        assert len(widths) == 2 * len(narrow.retained_history)
        assert all(w_l <= 24 < w_u for w_l, w_u in zip(widths[0::2], widths[1::2]))
        assert weights(narrow.params).tobytes() == weights(padded.params).tobytes()

    def test_insufficient_unlabeled_rejected(self):
        cfg = fast_cfg(batch_size=4, mu=19)
        with pytest.raises(InsufficientData):
            train_netfm(
                self.labeled, self.unlabeled[:10], cfg, SslConfig(), AugmentConfig(),
                p_flip_weak=0.1, dist=self.dist, dims=DIMS,
            )

    def test_unlabeled_of_another_length_rejected_before_any_draw(self, monkeypatch):
        unlabeled = make_corpus(60, np.random.default_rng(6), trace_len=80)
        monkeypatch.setattr(training, "RandomSource", None)  # any draw would raise TypeError
        with pytest.raises(ValueError) as info:
            train_netfm(self.labeled, unlabeled, fast_cfg(batch_size=4, mu=2), SslConfig(),
                        AugmentConfig(), 0.1, build_distribution(unlabeled), dims=DIMS)
        assert info.type is ValueError
        assert str(info.value) == (
            "unlabeled traces are 80 cells long, labeled traces 64; both must have the same length"
        )

    def test_deterministic(self):
        cfg = fast_cfg(batch_size=4, epochs=1, mu=2)
        ssl = SslConfig(tau_f=0.5)
        a = train_netfm(self.labeled, self.unlabeled, cfg, ssl, AugmentConfig(),
                        p_flip_weak=0.1, dist=self.dist, dims=DIMS)
        b = train_netfm(self.labeled, self.unlabeled, cfg, ssl, AugmentConfig(),
                        p_flip_weak=0.1, dist=self.dist, dims=DIMS)
        assert np.array_equal(weights(a.params), weights(b.params))
        assert a.retained_history == b.retained_history


class TestNonFiniteLoss:
    """Each loop stops at the first NaN or infinite loss and names where."""

    HUGE = dict(learning_rate=1e300, optimizer="sgd", epochs=3)

    def test_pretrain(self):
        unlabeled = strip_labels(make_corpus(16, np.random.default_rng(0)))
        dist = build_distribution(unlabeled)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteLoss, match=r"^pretrain: loss is nan at epoch 1, step 2;"
        ):
            pretrain(unlabeled, fast_cfg(**self.HUGE), AugmentConfig(), dist, SslConfig(),
                     dims=DIMS)

    def test_finetune(self):
        params = init_params(DIMS, RandomSource(9))
        labeled = separable_corpus(6, 3, np.random.default_rng(3))
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteLoss, match=r"^finetune: loss is nan at epoch 1, step 2;"
        ):
            finetune(params, labeled, fast_cfg(**self.HUGE))

    def test_semi_supervised_loop(self):
        rng = np.random.default_rng(5)
        labeled = separable_corpus(4, 3, rng)
        unlabeled = make_corpus(60, rng)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NonFiniteLoss, match=r"^netfm: loss is nan at epoch 1, step 2;"
        ):
            train_netfm(
                labeled, unlabeled, fast_cfg(batch_size=4, mu=2, **self.HUGE),
                SslConfig(tau_f=0.2), AugmentConfig(), p_flip_weak=0.1,
                dist=build_distribution(unlabeled), dims=DIMS,
            )


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def refused_fork():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


def wait_for_exit(pid):
    """Return once child ``pid`` has ended, leaving it to be reaped; at once
    when it has been reaped already."""
    with contextlib.suppress(ChildProcessError):
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)


def dying_child(forks, augment):
    """``augment`` for a view worker whose child dies on its first call, and
    the row counts of the training process's calls. Step 0 is made before
    the fork; the first call after the fork returns only once the child is
    dead, so the training process finds it gone mid-run."""
    made_here = []

    def dying(cells, *args):
        if forks == [0]:
            os._exit(3)
        if len(made_here) == 1:  # the first call after step 0's
            wait_for_exit(forks[0])
        made_here.append(len(cells))
        return augment(cells, *args)

    return dying, made_here


#: each augmented phase -> (the augmentation patched in it, the rows that
#: augmentation makes in a run, the most calls that make them all in the
#: training process). A child-free net pre-training makes step 0, maybe
#: step 1, then every step left in one call; the others make a step a call.
PHASES = {
    "net": ("net_augment_batch", 240, 3),  # 3 epochs x 5 steps x 16 views
    "flip": ("flip_augment_batch", 240, 15),
    "supervised": ("flip_augment_batch", 36, 6),  # 3 epochs x (8 + 4) labeled rows
    "netfm": ("net_augment_batch", 72, 6),  # mu = 2 unlabeled rows a labeled one
}


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestViewWorker:
    """Every augmented phase makes its views in a forked child; the bytes are
    those of making them inline, and no child outlives the call."""

    def setup_method(self):
        rng = np.random.default_rng(8)
        self.unlabeled = strip_labels(make_corpus(40, rng))
        self.labeled = separable_corpus(4, 3, rng)
        self.dist = build_distribution(self.unlabeled)

    def run(self, phase, **cfg):
        cfg = fast_cfg(**{"epochs": 3, "mu": 2, **cfg})
        if phase == "supervised":
            return train_supervised(self.labeled, cfg, p_flip_weak=0.1, dims=DIMS)
        if phase == "netfm":
            return train_netfm(self.labeled, self.unlabeled, cfg, SslConfig(tau_f=0.2),
                               AugmentConfig(), 0.1, self.dist, dims=DIMS)
        return pretrain(self.unlabeled, cfg, AugmentConfig(), self.dist, SslConfig(),
                        dims=DIMS, augmenter=phase)

    def patch(self, monkeypatch, phase, make_fake):
        """Put ``make_fake(real)`` in place of the phase's augmentation."""
        name = PHASES[phase][0]
        fake = make_fake(getattr(training, name))
        monkeypatch.setattr(training, name, fake[0] if isinstance(fake, tuple) else fake)
        return fake

    @pytest.mark.parametrize("phase", PHASES)
    def test_checkpoint_equals_the_inline_one(self, phase, monkeypatch, tmp_path):
        forks = []
        fork = os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        save_params(tmp_path / "forked.ckpt", self.run(phase).params)
        assert forks == [1]
        monkeypatch.delattr(os, "fork")
        save_params(tmp_path / "inline.ckpt", self.run(phase).params)
        assert (tmp_path / "forked.ckpt").read_bytes() == (tmp_path / "inline.ckpt").read_bytes()

    def test_ring_size_leaves_the_bytes(self, monkeypatch, tmp_path):
        save_params(tmp_path / "one-call.ckpt", self.run("net").params)  # an epoch a call
        monkeypatch.setattr(training, "_RING_BYTES", 1)  # two slots: calls of at most 2 steps
        save_params(tmp_path / "ring-calls.ckpt", self.run("net").params)
        assert (tmp_path / "one-call.ckpt").read_bytes() == (tmp_path / "ring-calls.ckpt").read_bytes()

    def test_step_zero_block_let_go_once_past(self):
        """Step 0 is made here before the fork; once the child has made every
        later step, taking them leaves the parent holding none of its bytes."""
        def make(first, stop):  # each step a block of 8 rows of its number
            return np.repeat(np.arange(first, stop, dtype=np.int8), 8 * 16).reshape(-1, 16)

        with training._ViewsAhead(make, steps=4, call=4) as views:
            assert views.pid is not None and views.own.nbytes == 8 * 16
            deadline = time.monotonic() + 30
            while not {1, 2, 3} <= set(views.made[1:].tolist()):
                assert time.monotonic() < deadline, "the child made no steps"
                time.sleep(0.01)
            taken = [int(next(views)[0, 0]) for _ in range(4)]
            assert views.own.nbytes == 0
        assert taken == [0, 1, 2, 3]
        assert_no_child_left()

    @pytest.mark.parametrize("phase", PHASES)
    def test_no_child_left_after_return(self, phase):
        self.run(phase)
        assert_no_child_left()

    @pytest.mark.parametrize("phase", PHASES)
    def test_no_child_left_after_non_finite_loss(self, phase):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLoss):
            self.run(phase, **TestNonFiniteLoss.HUGE)
        assert_no_child_left()

    def fork_recorded(self, monkeypatch):
        """os.fork that records its result: [0] in the child, [pid] in the parent."""
        forks, fork = [], os.fork
        monkeypatch.setattr(os, "fork", lambda: forks.append(fork()) or forks[-1])
        return forks

    @pytest.mark.parametrize("phase", PHASES)
    def test_steps_made_by_the_parent_leave_the_bytes(self, phase, monkeypatch, tmp_path):
        save_params(tmp_path / "forked.ckpt", self.run(phase).params)
        forks = self.fork_recorded(monkeypatch)
        made_here = []

        def slow_child(real):
            def slow(cells, *args):
                if forks == [0]:
                    time.sleep(0.02)
                elif forks:
                    made_here.append(len(cells))
                return real(cells, *args)
            return slow

        self.patch(monkeypatch, phase, slow_child)
        save_params(tmp_path / "slow-child.ckpt", self.run(phase).params)
        assert made_here  # the parent made the steps the child was late with
        forked, slow = (tmp_path / f"{n}.ckpt" for n in ("forked", "slow-child"))
        assert forked.read_bytes() == slow.read_bytes()

    @pytest.mark.parametrize("death", ["exit", "kill"])
    @pytest.mark.parametrize("phase", PHASES)
    def test_child_that_dies_leaves_the_bytes(self, phase, death, monkeypatch, tmp_path):
        save_params(tmp_path / "forked.ckpt", self.run(phase).params)
        forks = self.fork_recorded(monkeypatch)
        if death == "kill":
            monkeypatch.setattr(os, "_exit", lambda status: os.kill(os.getpid(), signal.SIGKILL))
        _, made_here = self.patch(monkeypatch, phase, lambda real: dying_child(forks, real))
        save_params(tmp_path / "dead-child.ckpt", self.run(phase).params)
        # every row was made here, and once the parent has found the child
        # gone, it makes the steps left ``call`` at a time
        _, rows, calls = PHASES[phase]
        assert sum(made_here) == rows and len(made_here) <= calls
        forked, dead = (tmp_path / f"{n}.ckpt" for n in ("forked", "dead-child"))
        assert forked.read_bytes() == dead.read_bytes()
        assert_no_child_left()

    @pytest.mark.parametrize("phase", PHASES)
    def test_make_that_raises_raises_in_the_training_process(self, phase, monkeypatch):
        forks = self.fork_recorded(monkeypatch)

        def failing(real):
            def fail(cells, *args):
                if not forks:  # step 0, made before the fork
                    return real(cells, *args)
                if forks != [0]:  # the parent's call comes once the child has raised and left
                    wait_for_exit(forks[0])
                raise ValueError(f"no views in process {os.getpid()}")
            return fail

        self.patch(monkeypatch, phase, failing)
        with pytest.raises(ValueError) as info:
            self.run(phase)
        assert info.type is ValueError
        assert str(info.value) == f"no views in process {os.getpid()}"
        assert_no_child_left()

    @pytest.mark.parametrize("phase", PHASES)
    def test_refused_fork_leaves_every_step_to_the_parent(self, phase, monkeypatch, tmp_path):
        save_params(tmp_path / "forked.ckpt", self.run(phase).params)
        monkeypatch.setattr(os, "fork", refused_fork)
        save_params(tmp_path / "refused.ckpt", self.run(phase).params)
        assert (tmp_path / "forked.ckpt").read_bytes() == (tmp_path / "refused.ckpt").read_bytes()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("end", ["return", "non-finite loss", "dead child", "refused fork"])
    @pytest.mark.parametrize("phase", PHASES)
    def test_no_descriptor_left_open(self, phase, end, monkeypatch):
        before = len(os.listdir("/proc/self/fd"))
        if end == "dead child":
            forks = self.fork_recorded(monkeypatch)
            self.patch(monkeypatch, phase, lambda real: dying_child(forks, real))
        elif end == "refused fork":
            monkeypatch.setattr(os, "fork", refused_fork)
        if end == "non-finite loss":
            with np.errstate(over="ignore", invalid="ignore"), pytest.raises(NonFiniteLoss):
                self.run(phase, **TestNonFiniteLoss.HUGE)
        else:
            self.run(phase)
        assert len(os.listdir("/proc/self/fd")) == before


class TestNonFiniteGradient:
    """A finite loss with a NaN or infinite gradient stops the run before
    the optimizer step, naming the phase, epoch, step and array."""

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_raises_before_the_step(self, bad, monkeypatch):
        params = init_params(DIMS, RandomSource(2))
        arrays = training.trainable_arrays(params, "projection")
        rng = np.random.default_rng(3)
        seen = []

        def step(batch, views):
            seen.append(weights(params))
            grads = [rng.standard_normal(a.shape).astype(a.dtype) for a in arrays]
            if len(seen) == 2:
                grads[3][5] = bad
            return 0.5, grads

        steps = []
        cfg = fast_cfg(batch_size=4, epochs=1)
        opt_step = training._Optimizer.step
        monkeypatch.setattr(training._Optimizer, "step",
                            lambda opt, grads: steps.append(opt_step(opt, grads)))
        with pytest.raises(
            NonFiniteLoss,
            match=r"^pretrain: gradient of array 3 is not finite at epoch 1, step 2;",
        ):
            training._fit("pretrain", params, "projection", cfg,
                          training._epoch_orders(16, cfg, True), step)
        # one Adam step ran; the failing step left the weights as it found them
        assert len(steps) == 1
        assert np.array_equal(weights(params), seen[1])
        assert not np.array_equal(seen[0], seen[1])


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
        assert not np.array_equal(weights(base.params), weights(mom.params))

    def test_cosine_decay_changes_trajectory_and_learns(self):
        rng = np.random.default_rng(15)
        labeled = separable_corpus(3, 3, rng)
        plain = finetune(init_params(DIMS, RandomSource(1)), labeled, fast_cfg(epochs=4))
        cosine = finetune(init_params(DIMS, RandomSource(1)), labeled,
                          fast_cfg(epochs=4, cosine_decay=True))
        assert not np.array_equal(weights(plain.params), weights(cosine.params))

    @settings(max_examples=150, deadline=None)
    @given(
        run=narrow_runs(), seed=st.integers(0, 2**32 - 1), cosine=st.booleans(),
        lr=st.sampled_from([0.0, 1e-3, 0.5]),
    )
    def test_adam_step_matches_reference_formula_bitwise(self, run, seed, cosine, lr):
        """A step on narrow gradients equals the textbook formula on the
        zero-padded gradients byte for byte.

        Array 0 gets gradients of a per-step width (a wider one is a longer
        batch arriving mid-run, a narrower one leaves live columns to decay);
        array 1 is 1-D and array 2 is full width from the first step. All
        three share the scratch buffers. NaNs are compared by position, not
        by sign: when both operands are NaN, numpy's vector lanes and scalar
        tail loop keep different operands' NaN, so a NaN's sign depends on
        where its element falls in a loop, on any path.
        """
        rows, width, widths, special = run
        rng = np.random.default_rng(seed)
        shapes = [(rows, width), (rows,), (3, width + 2)]
        arrays = random_weights(rng, shapes)
        ref = [a.copy() for a in arrays]
        m = [np.zeros_like(a) for a in ref]
        v = [np.zeros_like(a) for a in ref]
        total = max(1, len(widths) - 1)  # with cosine, the last step has lr 0
        beta1, beta2, eps = training._BETA1, training._BETA2, training._EPS
        cfg = fast_cfg(learning_rate=lr, cosine_decay=cosine)
        opt = training._Optimizer(arrays, cfg, total_steps=total)
        for t, cols in enumerate(widths, start=1):
            grads, padded = narrow_step_inputs(rng, shapes, cols, special)
            opt.step(grads)
            step_lr = lr * 0.5 * (1.0 + np.cos(np.pi * ((t - 1) / total))) if cosine else lr
            bc1, bc2 = 1.0 - beta1 ** t, 1.0 - beta2 ** t
            for a, g, mm, vv in zip(ref, padded, m, v):
                mm *= beta1
                mm += (1.0 - beta1) * g
                vv *= beta2
                vv += (1.0 - beta2) * g * g
                a -= step_lr * (mm / bc1) / (np.sqrt(vv / bc2) + eps)
            # state is held for array 0's live columns only
            live = max(widths[:t])
            want_m = [m[0][:, :live]] + m[1:]
            want_v = [v[0][:, :live]] + v[1:]
            for got, want in zip(arrays + opt.m + opt.v, ref + want_m + want_v):
                assert nan_blind_bytes(got) == nan_blind_bytes(want)
            assert opt.m[0].shape == opt.v[0].shape == (rows, live)

    @settings(max_examples=100, deadline=None)
    @given(
        run=narrow_runs(), seed=st.integers(0, 2**32 - 1), cosine=st.booleans(),
        lr=st.sampled_from([0.0, 1e-3, 0.5]),
    )
    @pytest.mark.parametrize("momentum", [0.0, 0.9, 5e-324])
    def test_sgd_step_matches_reference_formula_bitwise(self, run, seed, cosine, lr, momentum):
        """Plain SGD and SGD with momentum on narrow gradients equal the
        textbook steps on the zero-padded gradients byte for byte; shapes,
        special values and NaN comparison as in the Adam test."""
        rows, width, widths, special = run
        rng = np.random.default_rng(seed)
        shapes = [(rows, width), (rows,), (3, width + 2)]
        arrays = random_weights(rng, shapes)
        ref = [a.copy() for a in arrays]
        vel = [np.zeros_like(a) for a in ref]
        total = max(1, len(widths) - 1)
        cfg = fast_cfg(optimizer="sgd", learning_rate=lr, cosine_decay=cosine,
                       momentum=momentum)
        opt = training._Optimizer(arrays, cfg, total_steps=total)
        for t, cols in enumerate(widths, start=1):
            grads, padded = narrow_step_inputs(rng, shapes, cols, special)
            opt.step(grads)
            step_lr = lr * 0.5 * (1.0 + np.cos(np.pi * ((t - 1) / total))) if cosine else lr
            for a, g, vv in zip(ref, padded, vel):
                if momentum > 0:
                    vv *= momentum
                    vv += g
                    g = vv
                a -= step_lr * g
            for got, want in zip(arrays, ref):
                assert nan_blind_bytes(got) == nan_blind_bytes(want)
            if momentum > 0:
                live = max(widths[:t])
                for got, want in zip(opt.vel, [vel[0][:, :live]] + vel[1:]):
                    assert nan_blind_bytes(got) == nan_blind_bytes(want)
                assert opt.vel[0].shape == (rows, live)

    @pytest.mark.parametrize("optimizer,momentum", [("adam", 0.0), ("sgd", 0.9)])
    def test_state_only_as_wide_as_the_live_prefix(self, optimizer, momentum):
        """Gradients at most 570 columns wide on a (256, 5000) first layer,
        the shapes of the CLI chain at 5,000 cells, leave its state 570
        columns wide; a full-width 1-D array's state is full width."""
        rng = np.random.default_rng(4)
        arrays = [rng.standard_normal((256, 5000), np.float32), np.zeros(256, np.float32)]
        cfg = fast_cfg(optimizer=optimizer, momentum=momentum)
        opt = training._Optimizer(arrays, cfg, total_steps=4)
        for cols in (300, 570, 120, 0):
            opt.step([rng.standard_normal((256, cols), np.float32), np.ones(256, np.float32)])
        states = opt.m + opt.v if optimizer == "adam" else opt.vel
        assert [s.shape for s in states] == [(256, 570), (256,)] * (len(states) // 2)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("field,value", [
        ("learning_rate", float("nan")), ("learning_rate", float("inf")),
        ("learning_rate", -1e-3), ("momentum", -0.5), ("momentum", float("nan")),
        ("momentum", float("inf")), ("epochs", 0),
    ])
    def test_bad_setting_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    def test_edge_values_accepted(self):
        TrainConfig(learning_rate=0.0, momentum=0.0)

    @pytest.mark.parametrize("name,value", [
        ("beta1", training._BETA1), ("beta2", training._BETA2), ("eps", training._EPS),
    ])
    def test_adam_constants_are_not_settings(self, name, value):
        """Adam's decay rates and eps are module constants: a caller that
        still passes one gets an error, not a value silently ignored."""
        with pytest.raises(TypeError, match=name):
            TrainConfig(**{name: value})


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


class TestScheduleLength:
    """The cosine schedule spans exactly the optimizer steps a phase takes,
    also when the corpus size is not a multiple of the batch size."""

    @pytest.fixture(autouse=True)
    def record_optimizers(self, monkeypatch):
        made = self.optimizers = []

        class Recording(training._Optimizer):
            def __init__(self, *args):
                super().__init__(*args)
                self.calls = 0
                made.append(self)

            def step(self, grads):
                self.calls += 1
                super().step(grads)

        monkeypatch.setattr(training, "_Optimizer", Recording)

    def setup_method(self):
        rng = np.random.default_rng(21)
        self.labeled = separable_corpus(5, 3, rng)  # 15 rows, B = 4
        self.unlabeled = make_corpus(21, rng)  # 21 rows, B = 8
        self.dist = build_distribution(self.unlabeled)
        self.cfg = fast_cfg(batch_size=4, epochs=3, cosine_decay=True, mu=2)

    def assert_schedule_matches(self, steps_per_epoch):
        [opt] = self.optimizers
        assert opt.calls == 3 * steps_per_epoch
        assert opt.total_steps == opt.calls

    def test_pretrain_net_drops_the_partial_batch(self):
        cfg = fast_cfg(batch_size=8, epochs=3, cosine_decay=True)
        pretrain(self.unlabeled, cfg, AugmentConfig(), self.dist, SslConfig(), dims=DIMS)
        self.assert_schedule_matches(21 // 8)

    def test_finetune_keeps_the_partial_batch(self):
        finetune(init_params(DIMS, RandomSource(3)), self.labeled, self.cfg)
        self.assert_schedule_matches(4)

    def test_supervised_keeps_the_partial_batch(self):
        train_supervised(self.labeled, self.cfg, p_flip_weak=0.1, dims=DIMS)
        self.assert_schedule_matches(4)

    def test_netfm_keeps_the_partial_batch(self):
        train_netfm(
            self.labeled, self.unlabeled, self.cfg, SslConfig(tau_f=0.2), AugmentConfig(),
            p_flip_weak=0.1, dist=self.dist, dims=DIMS,
        )
        self.assert_schedule_matches(4)
