"""The batch augmentation engine against the frozen per-trace reference.

net_augment_batch and flip_augment_batch must return, byte for byte, what
the per-trace engine of augment_reference.py returns row by row on the
same stream, and leave the stream at the same counter, whatever the batch
(chunk) size. Every decision has a fixed draw slot, so a row takes
3 + 3 * (its bursts after the prefix) draws, and one row's content never
moves another row's draws.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import augment_reference
from traceaug.augment import (
    AugmentConfig,
    EmptyDistribution,
    TraceTooShort,
    flip_augment_batch,
    flip_draw_counts,
    net_augment_batch,
    net_draw_counts,
)
from traceaug.bursts import extract_bursts
from traceaug.distributions import BurstSizeDistribution
from traceaug.rng import RandomSource
from traceaug.traces import DirectionTrace, fit_length

CHUNKS = (1, 7, None)  # None: the whole corpus in one call


@st.composite
def corpora(draw):
    """(n, L) cell matrices: bursts after some leading zeros, with zero gaps
    between some of them (the bursts on either side of a gap may share a
    sign), in rows that end in zero padding up to L. L is short, or the
    CLI's 5,000 cells."""
    length = draw(st.one_of(st.integers(16, 90), st.just(5000)))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        lead = draw(st.integers(0, 12))
        sign = draw(st.sampled_from([-1, 1]))
        cells = [0] * lead
        bursts = st.tuples(st.integers(1, 16), st.sampled_from([0, 0, 0, 1, 3]), st.booleans())
        for size, gap, keep_sign in draw(st.lists(bursts, min_size=1, max_size=20)):
            cells += [sign] * size + [0] * gap
            if not (gap and keep_sign):
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
    length = cells.shape[1]
    cfg = AugmentConfig(
        # past L - prefix, a row's whole suffix and then its prefix leave the trace
        shift_max=draw(st.one_of(st.integers(0, 8), st.integers(length - 2, length + 3))),
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
    # inserted sizes up to several times L, whose bursts run past the trace's end
    sizes = st.one_of(st.integers(1, 8), st.integers(1, 4 * length))
    support = sorted(draw(st.sets(sizes, min_size=1, max_size=4)))
    weights = draw(st.lists(st.integers(1, 5), min_size=len(support), max_size=len(support)))
    return cells, cfg, BurstSizeDistribution(np.array(support), np.array(weights))


class AnyCells(DirectionTrace):
    """A DirectionTrace that may hold interior zeros, which the constructor
    refuses. The batch forms take any int8 matrix and skip zeros as the
    reference's per-trace functions do, so the reference runs on these rows too."""

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int8)


def ref_net(row, cfg, dist, rng):
    """The reference net_augment's cells for one row, interior zeros allowed."""
    with mock.patch.object(augment_reference, "DirectionTrace", AnyCells):
        return augment_reference.net_augment(AnyCells(row), cfg, dist, rng).cells


def ref_flip(row, p_flip, rng):
    """The reference flip_augment's cells for one row, interior zeros allowed."""
    with mock.patch.object(augment_reference, "DirectionTrace", AnyCells):
        return augment_reference.flip_augment(AnyCells(row), p_flip, rng).cells


def chunked(fn, cells, rng, chunk):
    """Apply a batch function chunk by chunk, all chunks on the one stream."""
    chunk = chunk or len(cells)
    return np.concatenate(
        [fn(cells[start : start + chunk], rng) for start in range(0, len(cells), chunk)]
    )


@settings(max_examples=150, deadline=None)
@given(case=net_cases(), seed=st.integers(0, 2**32), chunk=st.sampled_from(CHUNKS))
def test_net_batch_matches_per_trace_on_a_shared_stream(case, seed, chunk):
    cells, cfg, dist = case
    ref_rng, batch_rng = RandomSource(seed), RandomSource(seed)
    expected = np.stack(
        [ref_net(row, cfg, dist, ref_rng) for row in cells]
    )
    got = chunked(lambda c, r: net_augment_batch(c, cfg, dist, r), cells, batch_rng, chunk)
    assert got.dtype == np.int8
    np.testing.assert_array_equal(got, expected)
    assert batch_rng._count == ref_rng._count


@settings(max_examples=100, deadline=None)
@given(case=net_cases(), seed=st.integers(0, 2**32))
def test_each_row_takes_a_fixed_block_of_draws(case, seed):
    cells, cfg, dist = case
    expected = np.array([3 + 3 * len(extract_bursts(r[cfg.preserve_prefix:])) for r in cells])
    per_row = []
    for row in cells:
        rng = RandomSource(seed)
        net_augment_batch(row[None], cfg, dist, rng)
        per_row.append(rng._count)
    assert per_row == expected.tolist()
    assert net_draw_counts(cells, cfg).tolist() == per_row
    shared = RandomSource(seed)
    net_augment_batch(cells, cfg, dist, shared)
    assert shared._count == expected.sum()


@settings(max_examples=100, deadline=None)
@given(case=net_cases(), seed=st.integers(0, 2**32), row=st.integers(0, 11))
def test_a_row_does_not_move_later_rows_draws(case, seed, row):
    # negating a row keeps its burst and nonzero counts but changes every
    # burst's direction, and so which manipulation draws it would read
    cells, cfg, dist = case
    row %= len(cells)
    changed = cells.copy()
    changed[row] = -changed[row]
    a = net_augment_batch(cells, cfg, dist, RandomSource(seed))
    b = net_augment_batch(changed, cfg, dist, RandomSource(seed))
    np.testing.assert_array_equal(a[row + 1 :], b[row + 1 :])


@settings(max_examples=100, deadline=None)
@given(cells=corpora(), p_flip=unit, seed=st.integers(0, 2**32), chunk=st.sampled_from(CHUNKS))
def test_flip_batch_matches_per_trace(cells, p_flip, seed, chunk):
    ref, batch = RandomSource(seed), RandomSource(seed)
    expected = np.stack([ref_flip(row, p_flip, ref) for row in cells])
    got = chunked(lambda c, r: flip_augment_batch(c, p_flip, r), cells, batch, chunk)
    np.testing.assert_array_equal(got, expected)
    assert batch._count == ref._count


@settings(max_examples=100, deadline=None)
@given(case=net_cases(), p_flip=unit, seed=st.integers(0, 2**32), row=st.integers(0, 11))
def test_later_rows_made_on_their_own_from_their_first_draw(case, p_flip, seed, row):
    cells, cfg, dist = case
    row %= len(cells)
    for augment, counts in (
        (lambda c, r: net_augment_batch(c, cfg, dist, r), net_draw_counts(cells, cfg)),
        (lambda c, r: flip_augment_batch(c, p_flip, r), flip_draw_counts(cells)),
    ):
        whole = augment(cells, RandomSource(seed))
        rest = augment(cells[row:], RandomSource(seed).at(int(counts[:row].sum())))
        np.testing.assert_array_equal(rest, whole[row:])


def test_rests_without_eligible_bursts():
    # after the prefix only bursts too small to resize or split remain
    row = fit_length(np.array([-1] * 12 + [1, -1, -1, 1, 1, -1] * 4), 48)
    cells = np.stack([row] * 6)
    cfg = AugmentConfig(preserve_prefix=12, r_insert=1.0, r_merge=0.0, shift_max=3)
    dist = BurstSizeDistribution(np.array([2]), np.array([1]))
    ref, batch = RandomSource(4), RandomSource(4)
    expected = np.stack([ref_net(r, cfg, dist, ref) for r in cells])
    np.testing.assert_array_equal(net_augment_batch(cells, cfg, dist, batch), expected)
    assert batch._count == ref._count


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("whole", [True, False])
@pytest.mark.parametrize("cfg", [
    AugmentConfig(),
    AugmentConfig(shift_max=45),  # beyond L = 40, and past prefix + shift
    AugmentConfig(preserve_prefix=0, r_insert=1.0),
], ids=["default", "shift-past-L", "no-prefix"])
def test_empty_and_single_row_batches(n, whole, cfg):
    """One call on the whole batch, or one call per row and then one on
    the empty rest, all on the one stream: the same as the reference."""
    row = fit_length(np.array([0, -1, -1, 0, -1] + [1, 1, -1, -1, -1, 0, 0, -1] * 4), 40)
    cells = np.repeat(row[None], n, axis=0)
    dist = BurstSizeDistribution(np.array([1, 3]), np.array([2, 1]))
    for seed in range(20):
        ref, batch = RandomSource(seed), RandomSource(seed)
        for reference, batch_form in (
            (lambda x, r: ref_net(x, cfg, dist, r),
             lambda c, r: net_augment_batch(c, cfg, dist, r)),
            (lambda x, r: ref_flip(x, 0.5, r),
             lambda c, r: flip_augment_batch(c, 0.5, r)),
        ):
            expected = [reference(x, ref) for x in cells]
            if whole:
                got = batch_form(cells, batch)
            else:
                got = np.concatenate(
                    [batch_form(cells[i : i + 1], batch) for i in range(n)]
                    + [batch_form(cells[n:], batch)]
                )
            assert got.shape == cells.shape and got.dtype == np.int8
            np.testing.assert_array_equal(got, np.reshape(expected, cells.shape))
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
