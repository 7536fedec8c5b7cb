import tracemalloc

import numpy as np
import pytest

from traceaug import models
from traceaug.gradcheck import run_gradient_checks
from traceaug.models import (
    ModelDims,
    ModelParams,
    attach_classifier,
    cast_params,
    classify_batch,
    contrastive_forward_backward,
    encode_backward,
    encode_batch,
    init_params,
    load_params,
    predict_batch,
    save_params,
    supervised_forward_backward,
)
from traceaug.rng import RandomSource
from traceaug.traces import DirectionTrace

TINY = ModelDims(trace_len=32, hidden=(16,), embed_dim=8)


def tiny_params(seed=0, n_classes=3):
    params = init_params(TINY, RandomSource(seed))
    attach_classifier(params, n_classes, RandomSource(seed + 1))
    return params


def tiny_params64(seed=0, n_classes=3):
    """tiny_params upcast to float64, for comparisons at float64 precision."""
    return cast_params(tiny_params(seed, n_classes), np.float64)


def trace32(rng):
    cells = np.where(rng.random(32) < 0.5, -1, 1).astype(np.int8)
    return DirectionTrace(cells)


def rows32(rng):
    return np.stack([trace32(rng).cells for _ in range(3)]).astype(np.float64)


class TestEncode:
    def test_zero_weights_zero_embedding(self):
        params = tiny_params()
        for w, b in params.encoder:
            w[...] = 0.0
            b[...] = 0.0
        embed, _ = encode_batch(rows32(np.random.default_rng(0)), params)
        assert embed.shape == (3, 8) and np.all(embed == 0.0)

    def test_single_identity_layer_passthrough(self):
        params = ModelParams(
            encoder=[(np.eye(4), np.zeros(4))],
            proj_w1=np.eye(4),
            proj_w2=np.eye(4)[:1],
        )
        x = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, -1.0, 1.0, 0.0]])
        embed, _ = encode_batch(x, params)
        assert np.array_equal(embed, x)

    def test_shape_mismatch_rejected(self):
        params = tiny_params()
        with pytest.raises(ValueError):
            encode_batch(np.ones((2, 31)), params)

    def test_deterministic(self):
        x = rows32(np.random.default_rng(1))
        a, _ = encode_batch(x, tiny_params(5))
        b, _ = encode_batch(x, tiny_params(5))
        assert np.array_equal(a, b)


class TestLivePrefix:
    """The first layer works on the batch's live column prefix only."""

    @staticmethod
    def full_width(x, params, d_embed):
        """Embeddings and encoder gradients computed over every column."""
        acts, pres, act = [], [], np.asarray(x, dtype=np.float64)
        for i, (w, b) in enumerate(params.encoder):
            acts.append(act)
            pres.append(act @ w.T + b)
            act = pres[-1] if i == len(params.encoder) - 1 else np.maximum(pres[-1], 0.0)
        grads, d_act = [], d_embed
        for i in range(len(params.encoder) - 1, -1, -1):
            d_pre = d_act if i == len(params.encoder) - 1 else d_act * (pres[i] > 0.0)
            grads.insert(0, (d_pre.T @ acts[i], d_pre.sum(axis=0)))
            d_act = d_pre @ params.encoder[i][0]
        return act, grads

    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_zero_tail_matches_full_width(self, dtype):
        rng = np.random.default_rng(3)
        params = tiny_params64()
        x = np.where(rng.random((5, 32)) < 0.5, -1, 1).astype(dtype)
        x[:, 19:] = 0
        x[1, 18] = 0  # the last live column need not be live in every row
        d_embed = rng.standard_normal((5, 8))
        embed, caches = encode_batch(x, params)
        grads = encode_backward(d_embed, caches, params)
        want_embed, want_grads = self.full_width(x, params, d_embed)
        assert caches[0][0].shape == (5, 19) and grads[0][0].shape == (16, 19)
        np.testing.assert_allclose(embed, want_embed, rtol=0, atol=1e-12)
        np.testing.assert_allclose(grads[0][0], want_grads[0][0][:, :19], rtol=0, atol=1e-12)
        assert not want_grads[0][0][:, 19:].any()
        for got, want in zip(pack_pairs(grads)[1:], pack_pairs(want_grads)[1:]):
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_all_zero_batch_returns_the_bias(self):
        params = tiny_params64()
        params.encoder[0][1][...] = np.linspace(-1.0, 1.0, 16)
        embed, caches = encode_batch(np.zeros((2, 32), dtype=np.int8), params)
        assert caches[0][0].shape == (2, 0)
        assert np.array_equal(caches[0][1], np.tile(params.encoder[0][1], (2, 1)))
        grads = encode_backward(np.ones((2, 8)), caches, params)
        assert grads[0][0].shape == (16, 0)
        assert np.array_equal(embed, self.full_width(np.zeros((2, 32)), params,
                                                     np.ones((2, 8)))[0])


def pack_pairs(grads):
    return [g for pair in grads for g in pair]


class TestClassify:
    def test_zero_classifier_uniform(self):
        params = tiny_params(n_classes=4)
        params.clf_w[...] = 0.0
        params.clf_b[...] = 0.0
        probs = classify_batch(rows32(np.random.default_rng(2)), params)
        assert probs.shape == (3, 4) and np.allclose(probs, 0.25)

    def test_saturating_bias(self):
        params = tiny_params(n_classes=3)
        params.clf_w[...] = 0.0
        params.clf_b[...] = [0.0, 500.0, 0.0]
        probs = classify_batch(rows32(np.random.default_rng(3)), params)
        assert np.all(probs[:, 1] > 0.999999)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(4)
        params = tiny_params(7)
        traces = [trace32(rng) for _ in range(9)]
        probs = predict_batch(params, traces)
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-9)

    def test_predict_batch_empty_and_order(self):
        rng = np.random.default_rng(5)
        params = tiny_params64(8)
        assert predict_batch(params, []).shape == (0, 3)
        traces = [trace32(rng) for _ in range(4)]
        batch = predict_batch(params, traces)
        for i, t in enumerate(traces):
            # batched and single-row matmuls may differ in the last bits
            alone = classify_batch(t.cells[None, :], params)[0]
            assert np.allclose(batch[i], alone, rtol=1e-12, atol=1e-14)

    def test_duplicate_traces_identical_rows(self):
        rng = np.random.default_rng(6)
        params = tiny_params(9)
        t = trace32(rng)
        batch = predict_batch(params, [t, t, t])
        assert np.array_equal(batch[0], batch[1]) and np.array_equal(batch[1], batch[2])

    def test_classifier_required(self):
        params = init_params(TINY, RandomSource(0))
        with pytest.raises(ValueError):
            classify_batch(rows32(np.random.default_rng(7)), params)


class TestFloat32:
    """Training runs in float32 through the same functions that the
    gradient checks run in float64."""

    @staticmethod
    def results(params, x, labels):
        loss_c, enc_c, d_w1, d_w2 = contrastive_forward_backward(x, params, 0.5)
        loss_s, enc_s, d_w, d_b = supervised_forward_backward(x, labels, params)
        grads = pack_pairs(enc_c) + [d_w1, d_w2] + pack_pairs(enc_s) + [d_w, d_b]
        return [loss_c, loss_s], grads

    def test_float32_agrees_with_float64_on_the_same_weights(self):
        rng = np.random.default_rng(12)
        params = tiny_params(12)
        x = np.where(rng.random((8, 32)) < 0.5, -1, 1).astype(np.int8)
        x[:, 27:] = 0
        labels = rng.integers(0, 3, size=8)
        losses32, grads32 = self.results(params, x, labels)
        losses64, grads64 = self.results(cast_params(params, np.float64), x, labels)
        assert all(g.dtype == np.float32 for g in grads32)
        assert all(g.dtype == np.float64 for g in grads64)
        np.testing.assert_allclose(losses32, losses64, rtol=1e-5)
        for g32, g64 in zip(grads32, grads64):
            assert g32.shape == g64.shape
            # float32 rounds each operation to 2**-24 relative; over ~32-term
            # sums and three layers the gap stays near 4e-7 of the largest element
            np.testing.assert_allclose(g32, g64, rtol=0, atol=4e-6 * np.abs(g64).max())

    def test_weights_are_the_float64_draws_rounded(self):
        params = tiny_params(4)
        arrays = [a for layer in params.encoder for a in layer]
        arrays += [params.proj_w1, params.proj_w2, params.clf_w, params.clf_b]
        assert all(a.dtype == np.float32 for a in arrays)
        rng = RandomSource(4)
        bound = np.sqrt(6.0 / (32 + 16))
        first = (rng.uniforms(16 * 32) * 2.0 - 1.0).reshape(16, 32) * bound
        assert np.array_equal(params.encoder[0][0], first.astype(np.float32))

    def test_probabilities_are_float32(self):
        probs = predict_batch(tiny_params(6), [trace32(np.random.default_rng(6))])
        assert probs.dtype == np.float32
        assert predict_batch(tiny_params(6), []).dtype == np.float32


class TestInit:
    def test_glorot_bounds(self):
        params = init_params(ModelDims(trace_len=100, hidden=(50,), embed_dim=8), RandomSource(3))
        w = params.encoder[0][0]
        bound = np.sqrt(6.0 / (100 + 50))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.8 * bound  # actually fills the range

    def test_projection_is_quarter_width(self):
        dims = ModelDims(trace_len=64, hidden=(32,), embed_dim=16)
        params = init_params(dims, RandomSource(0))
        assert params.proj_w2.shape == (4, 16)

    def test_embed_dim_multiple_of_four_enforced(self):
        with pytest.raises(ValueError):
            ModelDims(trace_len=10, hidden=(4,), embed_dim=6)

    @pytest.mark.parametrize("hidden", [(0,), (32, -1)])
    def test_hidden_widths_must_be_positive(self, hidden):
        with pytest.raises(ValueError, match="hidden"):
            ModelDims(hidden=hidden)

    def test_block_draws_equal_one_draw(self, monkeypatch):
        monkeypatch.setattr(models, "_BLOCK", 7)
        rng = RandomSource(4)
        w = models._glorot_uniform(rng, 5, 9)  # 45 values: six blocks and a part
        ref = RandomSource(4)
        expected = (ref.uniforms(45) * 2.0 - 1.0).reshape(5, 9) * np.sqrt(6.0 / 14)
        assert w.dtype == np.float32
        assert w.tobytes() == expected.astype(np.float32).tobytes()
        assert rng.uniform() == ref.uniform()  # the stream is left where one draw leaves it


class TestLargeModelMemory:
    """A 5,000-cell first layer (1.28M weights) is drawn, saved and loaded a
    block at a time: no float64 copy of a whole matrix is made."""

    def test_peaks_stay_near_the_weights(self, tmp_path):
        mb = 1 << 20
        tracemalloc.start()
        try:
            params = init_params(ModelDims(5000, (256, 128), 64), RandomSource(0))
            weights, init_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            save_params(tmp_path / "m.ckpt", params)
            save_peak = tracemalloc.get_traced_memory()[1] - weights
            del params
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            load_params(tmp_path / "m.ckpt")
            load_peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # whole-matrix float64 work peaked 25 MB, 20 MB and 10 MB above these
        assert weights > 5 * mb
        assert init_peak < weights + 4 * mb
        assert save_peak < 2 * mb
        assert load_peak < weights + 2 * mb

    def test_block_boundaries_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setattr(models, "_BLOCK", 5)
        params = tiny_params(12)
        save_params(tmp_path / "a.ckpt", params)
        loaded = load_params(tmp_path / "a.ckpt")
        monkeypatch.setattr(models, "_BLOCK", 1 << 16)
        save_params(tmp_path / "b.ckpt", loaded)
        assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
        assert np.array_equal(loaded.encoder[0][0], params.encoder[0][0])


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        params = tiny_params(11, n_classes=5)
        path = tmp_path / "model.ckpt"
        save_params(path, params)
        loaded = load_params(path)
        # equal bytes mean equal blocks: the file holds every shape and value
        save_params(tmp_path / "again.ckpt", loaded)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        assert loaded.n_classes == 5

    def test_round_trip_without_classifier(self, tmp_path):
        params = init_params(TINY, RandomSource(1))
        path = tmp_path / "model.ckpt"
        save_params(path, params)
        loaded = load_params(path)
        # equal bytes mean equal blocks: the file holds every shape and value
        save_params(tmp_path / "again.ckpt", loaded)
        assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()
        assert loaded.clf_w is None

    def test_save_load_save_is_byte_identical_and_float32(self, tmp_path):
        params = tiny_params(13, n_classes=4)
        save_params(tmp_path / "a.ckpt", params)
        loaded = load_params(tmp_path / "a.ckpt")
        save_params(tmp_path / "b.ckpt", loaded)
        assert (tmp_path / "b.ckpt").read_bytes() == (tmp_path / "a.ckpt").read_bytes()
        loaded_arrays = [a for layer in loaded.encoder for a in layer]
        loaded_arrays += [loaded.proj_w1, loaded.proj_w2, loaded.clf_w, loaded.clf_b]
        assert all(a.dtype == np.float32 for a in loaded_arrays)
        assert np.array_equal(loaded.encoder[0][0], params.encoder[0][0])

    def test_float64_checkpoint_loads_rounded_to_float32(self, tmp_path):
        # checkpoints written by float64 training (0.2.0 and earlier)
        params = cast_params(tiny_params(14), np.float64)
        params.encoder[0][0][...] += 1e-12
        save_params(tmp_path / "f64.ckpt", params)
        loaded = load_params(tmp_path / "f64.ckpt")
        assert loaded.encoder[0][0].dtype == np.float32
        assert np.array_equal(loaded.encoder[0][0], params.encoder[0][0].astype(np.float32))
        assert np.array_equal(loaded.clf_b, params.clf_b.astype(np.float32))

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            load_params(path)

    def test_truncated_rejected(self, tmp_path):
        params = tiny_params(2)
        path = tmp_path / "model.ckpt"
        save_params(path, params)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(ValueError):
            load_params(path)


def test_gradient_checks_tight():
    results = run_gradient_checks(seed=7, instances=5)
    assert results.pop("passed") == 1.0
    for name, value in results.items():
        assert value < 1e-4, name
