"""The batch augmentation engine against the per-trace reference.

net_augment_batch and flip_augment_batch must return, byte for byte, what
net_augment and flip_augment return row by row, and leave every random
stream at the same counter: for one stream shared by all rows and for one
stream per row, whatever the batch (chunk) size.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceaug.augment import (
    AugmentConfig,
    EmptyDistribution,
    TraceTooShort,
    flip_augment,
    flip_augment_batch,
    net_augment,
    net_augment_batch,
)
from traceaug.distributions import BurstSizeDistribution
from traceaug.rng import RandomSource
from traceaug.traces import DirectionTrace, fit_length

CHUNKS = (1, 7, None)  # None: the whole corpus in one call


@st.composite
def corpora(draw):
    """(n, L) cell matrices: alternating bursts, some after leading zeros."""
    length = draw(st.integers(16, 90))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        lead = draw(st.integers(0, 12))
        sign = draw(st.sampled_from([-1, 1]))
        cells = [0] * lead
        for size in draw(st.lists(st.integers(1, 16), min_size=1, max_size=20)):
            cells += [sign] * size
            sign = -sign
        row = fit_length(np.array(cells), length)
        if np.count_nonzero(row):
            rows.append(row)
    if not rows:
        rows.append(fit_length(np.array([-1] * length), length))
    return np.stack(rows)


unit = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
positive_unit = st.one_of(st.just(1.0), st.floats(0.01, 1.0))


@st.composite
def net_cases(draw):
    cells = draw(corpora())
    counts = np.count_nonzero(cells, axis=1)
    low = draw(st.integers(0, int(counts.max())))
    cfg = AugmentConfig(
        shift_max=draw(st.integers(0, 8)),
        r_upsample=draw(positive_unit),
        r_downsample=draw(positive_unit),
        r_insert=draw(unit),
        burst_size_threshold=draw(st.integers(1, 14)),
        n_merge=draw(st.integers(2, 6)),
        r_merge=draw(unit),
        preserve_prefix=draw(st.integers(0, int(counts.min()) - 1)),
        low_cells=low,
        high_cells=draw(st.integers(low + 1, int(counts.max()) + 1)),
    )
    support = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
    return cells, cfg, BurstSizeDistribution(np.array(support), np.array(weights))


def chunked(fn, cells, rngs, chunk):
    """Apply a batch function chunk by chunk; rngs is one shared stream or a list."""
    chunk = chunk or len(cells)
    out = []
    for start in range(0, len(cells), chunk):
        part = rngs if isinstance(rngs, RandomSource) else rngs[start : start + chunk]
        out.append(fn(cells[start : start + chunk], part))
    return np.concatenate(out)


def per_row_streams(seed, n):
    root = RandomSource(seed)
    return [root.spawn(i) for i in range(n)]


@settings(max_examples=150, deadline=None)
@given(case=net_cases(), seed=st.integers(0, 2**32), chunk=st.sampled_from(CHUNKS))
def test_net_batch_matches_per_trace_on_a_shared_stream(case, seed, chunk):
    cells, cfg, dist = case
    ref_rng, batch_rng = RandomSource(seed), RandomSource(seed)
    expected = np.stack(
        [net_augment(DirectionTrace(row), cfg, dist, ref_rng).cells for row in cells]
    )
    got = chunked(lambda c, r: net_augment_batch(c, cfg, dist, r), cells, batch_rng, chunk)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, expected)
    assert batch_rng._count == ref_rng._count


@settings(max_examples=100, deadline=None)
@given(case=net_cases(), seed=st.integers(0, 2**32), chunk=st.sampled_from(CHUNKS))
def test_net_batch_matches_per_trace_with_one_stream_per_row(case, seed, chunk):
    cells, cfg, dist = case
    ref_rngs, batch_rngs = per_row_streams(seed, len(cells)), per_row_streams(seed, len(cells))
    expected = np.stack([
        net_augment(DirectionTrace(row), cfg, dist, rng).cells
        for row, rng in zip(cells, ref_rngs)
    ])
    got = chunked(lambda c, r: net_augment_batch(c, cfg, dist, r), cells, batch_rngs, chunk)
    np.testing.assert_array_equal(got, expected)
    assert [r._count for r in batch_rngs] == [r._count for r in ref_rngs]


@settings(max_examples=100, deadline=None)
@given(
    cells=corpora(), p_flip=unit, seed=st.integers(0, 2**32),
    chunk=st.sampled_from(CHUNKS), shared=st.booleans(),
)
def test_flip_batch_matches_per_trace(cells, p_flip, seed, chunk, shared):
    if shared:
        ref, batch = RandomSource(seed), RandomSource(seed)
        ref_rows = [ref] * len(cells)
    else:
        ref_rows, batch = per_row_streams(seed, len(cells)), per_row_streams(seed, len(cells))
    expected = np.stack(
        [flip_augment(DirectionTrace(row), p_flip, rng).cells for row, rng in zip(cells, ref_rows)]
    )
    got = chunked(lambda c, r: flip_augment_batch(c, p_flip, r), cells, batch, chunk)
    np.testing.assert_array_equal(got, expected)
    if shared:
        assert batch._count == ref._count
    else:
        assert [r._count for r in batch] == [r._count for r in ref_rows]


def test_rests_without_eligible_bursts():
    # after the prefix only bursts too small to resize or split remain
    row = fit_length(np.array([-1] * 12 + [1, -1, -1, 1, 1, -1] * 4), 48)
    cells = np.stack([row] * 6)
    cfg = AugmentConfig(preserve_prefix=12, r_insert=1.0, r_merge=0.0, shift_max=3)
    dist = BurstSizeDistribution(np.array([2]), np.array([1]))
    ref, batch = RandomSource(4), RandomSource(4)
    expected = np.stack([net_augment(DirectionTrace(r), cfg, dist, ref).cells for r in cells])
    np.testing.assert_array_equal(net_augment_batch(cells, cfg, dist, batch), expected)
    assert batch._count == ref._count


def test_short_row_named_and_no_draws_taken():
    cells = np.stack([
        fit_length(np.array([-1] * 30), 40),
        fit_length(np.array([1] * 5), 40),
    ])
    rng = RandomSource(0)
    with pytest.raises(TraceTooShort, match="trace 1"):
        net_augment_batch(cells, AugmentConfig(preserve_prefix=20), None, rng)
    assert rng._count == 0


def test_missing_distribution_rejected_up_front():
    cells = np.stack([fit_length(np.array([-1] * 30), 40)])
    with pytest.raises(EmptyDistribution):
        net_augment_batch(cells, AugmentConfig(), None, RandomSource(0))


def test_stream_count_must_match_rows():
    cells = np.stack([fit_length(np.array([-1, 1] * 15), 40)] * 3)
    with pytest.raises(ValueError, match="one random stream per row"):
        flip_augment_batch(cells, 0.5, per_row_streams(0, 2))
