"""Tor-trace augmentation: burst manipulations plus a naive flip baseline.

The burst augmenter leaves the first cells of a trace untouched (they
carry the protocol handshake, which is stable per site), picks one of
three burst manipulations uniformly at random, applies it to the signed
burst sequence of the remainder, converts back to cells, shifts the whole
trace right by a random amount, and renormalizes to the fixed model input
length. The manipulations replicate effects of changing network
conditions:

* resizing incoming bursts — content churn of a page;
* inserting outgoing bursts into incoming ones — flow-control cells that
  low-bandwidth circuits emit more often;
* merging incoming bursts (dropping the outgoing bursts between them) —
  fewer control cells on fast circuits, with the incoming volume kept.

All randomness comes from a caller-owned RandomSource, and every random
decision has a fixed slot, so a trace's draw count depends only on its
number of bursts after the protected prefix, nb. Each trace takes one
block of 3 + 3*nb consecutive raw draws:

* slot 0 picks the manipulation (mod 3), slot 1 the resize direction
  (mod 2, read only when the nonzero count lies in (low_cells,
  high_cells]), slot 2 the shift (mod shift_max + 1);
* burst j owns slots 3+3j, 4+3j and 5+3j. Resizing scales by the uniform
  of the first. Insertion fires when the uniform of the first is below
  r_insert, samples the inserted size at the uniform of the second and
  takes the split position from the third. Merging fires when the uniform
  of the first is below r_merge and takes the group size from the second.

Integers are the raw draw modulo the range; uniforms are
``raw_to_uniforms`` of it. Slots that a trace does not read are still
consumed.

The engine works on batches: ``net_augment_batch(cells, cfg, dist, rng)``
and ``flip_augment_batch(cells, p_flip, rng)`` take an (n, L) int8 cell
matrix and return the augmented matrix; ``net_augment`` and
``flip_augment`` are their one-trace forms. ``rng`` is one RandomSource
that the rows draw from in row order, so a batch takes the same draws as
its rows would one at a time. Flip augmentation draws one uniform per
nonzero cell. Inputs are checked before any draw (``check_net_inputs``).
The contract is draw for draw: the result, and the stream's counter
afterwards, equal those of the per-trace engine frozen in
``tests/augment_reference.py``, run on the rows in order.

``net_augment_batch`` run-length encodes the suffixes of all rows at once,
with ``bursts.run_lengths``, and takes the draws as one block. Each stage
(``modify_incoming_burst_sizes``, ``insert_outgoing_bursts``,
``merge_incoming_bursts``) runs once on the
bursts of the rows that picked it, and a stable sort by row restores the
row order. The cells are assembled from burst boundaries: each burst
writes its change of sign at its first column into a marker matrix, each
row's last sign is taken back at the row's end, and a cumulative sum
along the rows, up to the last column that holds a cell, gives the cells.
The protected prefix is then copied to its shifted columns.
"""

from dataclasses import dataclass

import numpy as np

from .bursts import bursts_to_cells, extract_bursts, normalize_bursts  # noqa: F401  perfbench/tracing.py wraps these
from .bursts import run_lengths
from .rng import RandomSource, raw_to_uniforms
from .traces import DirectionTrace


#: Smallest incoming burst (in cells) that insertion may split.
_MIN_SPLIT_CELLS = 7


class TraceTooShort(ValueError):
    """Trace has too few nonzero cells to keep the protected prefix."""


class EmptyDistribution(ValueError):
    """Outgoing-burst insertion needs a nonempty burst-size distribution."""


@dataclass(frozen=True)
class AugmentConfig:
    """Burst-augmentation hyperparameters.

    Rates are per-burst probabilities; sizes are in cells. Traces with at
    most ``low_cells`` nonzero cells only grow their incoming bursts,
    traces above ``high_cells`` only shrink them, anything between picks a
    direction at random.
    """

    shift_max: int = 10
    r_upsample: float = 1.0
    r_downsample: float = 0.5
    r_insert: float = 0.3
    burst_size_threshold: int = 10
    n_merge: int = 5
    r_merge: float = 0.1
    preserve_prefix: int = 20
    p_flip: float = 0.1
    low_cells: int = 1000
    high_cells: int = 4000

    def __post_init__(self):
        if not 0.0 < self.r_upsample <= 1.0 or not 0.0 < self.r_downsample <= 1.0:
            raise ValueError("r_upsample and r_downsample must be in (0, 1]")
        for name in ("r_insert", "r_merge", "p_flip"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.shift_max < 0 or self.preserve_prefix < 0:
            raise ValueError("shift_max and preserve_prefix must be >= 0")
        if self.n_merge < 2:
            raise ValueError("n_merge must be >= 2")
        if self.low_cells >= self.high_cells:
            raise ValueError("low_cells must be below high_cells")


def modify_incoming_burst_sizes(
    bursts: np.ndarray, nonzero_count, cfg: AugmentConfig, direction, slots
) -> np.ndarray:
    """Scale large incoming bursts up or down.

    ``nonzero_count`` and the raw ``direction`` draw are one trace's
    values, or arrays holding the value of each burst's trace. Short
    traces (nonzero_count <= low_cells) are always upsampled, long ones
    (> high_cells) downsampled; anything between upsamples when
    ``direction`` is even. Each incoming burst at least
    burst_size_threshold cells large is scaled by (1 + u*delta), u the
    uniform of its first slot (``slots[j, 0]``), rounded to the nearest
    integer (ties away from zero) and floored at magnitude 1 so that no
    burst vanishes or flips direction. Outgoing and small incoming bursts
    pass through untouched.
    """
    bursts = np.asarray(bursts, dtype=np.int64)
    count = np.asarray(nonzero_count)
    up = (count <= cfg.low_cells) | ((count <= cfg.high_cells) & (np.asarray(direction) % 2 == 0))
    delta = np.broadcast_to(np.where(up, cfg.r_upsample, -cfg.r_downsample), bursts.shape)
    eligible = bursts <= -cfg.burst_size_threshold
    b = bursts[eligible]
    u = raw_to_uniforms(np.asarray(slots, dtype=np.uint64)[eligible, 0])
    scaled = b * (1.0 + u * delta[eligible])
    out = bursts.copy()
    out[eligible] = np.maximum(1, np.floor(np.abs(scaled) + 0.5)).astype(np.int64) * np.sign(b)
    return out


def insert_outgoing_bursts(bursts: np.ndarray, rows, cfg: AugmentConfig, dist, slots):
    """Split incoming bursts around sampled outgoing bursts.

    Incoming burst j of at least 7 cells fires when the uniform of
    ``slots[j, 0]`` is below r_insert; a burst of -m cells becomes
    [-p, +s, -(m-p)], with the inserted size s the distribution's value
    at the uniform of ``slots[j, 1]`` and the split position
    p = 3 + ``slots[j, 2]`` mod (m-5), in {3, ..., m-3}. The incoming
    cell count is preserved exactly. ``rows`` holds each burst's trace;
    returns the new bursts and their traces.
    """
    bursts = np.asarray(bursts, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.uint64)
    split = np.flatnonzero(
        (bursts <= -_MIN_SPLIT_CELLS) & (raw_to_uniforms(slots[:, 0]) < cfg.r_insert)
    )
    repeats = np.ones(len(bursts), dtype=np.int64)
    repeats[split] = 3
    out = np.repeat(bursts, repeats)
    b = bursts[split]
    position = 3 + (slots[split, 2] % (-b - 5).astype(np.uint64)).astype(np.int64)
    o = (np.cumsum(repeats) - 3)[split]
    out[o] = -position
    out[o + 1] = dist.inverse_cdf(raw_to_uniforms(slots[split, 1]))
    out[o + 2] = b + position
    return out, np.repeat(rows, repeats)


def merge_incoming_bursts(bursts: np.ndarray, rows, cfg: AugmentConfig, slots):
    """Merge runs of incoming bursts, dropping outgoing bursts in between.

    Scanning each trace left to right, incoming burst j fires when the
    uniform of ``slots[j, 0]`` is below r_merge; k = 2 + ``slots[j, 1]``
    mod (n_merge-1), in {2, ..., n_merge}, and the next k incoming bursts
    of the trace (including the current one) collapse into their signed
    sum. Outgoing bursts strictly between merged incoming bursts are
    removed; if fewer than k incoming bursts remain, whatever remains is
    merged. Bursts a group swallows never fire themselves. The total
    incoming cell count is preserved exactly. ``rows`` holds each burst's
    trace, in nondecreasing order; returns the new bursts and their traces.
    """
    bursts, rows = np.asarray(bursts, dtype=np.int64), np.asarray(rows)
    slots = np.asarray(slots, dtype=np.uint64)
    incoming = bursts < 0
    fired = np.flatnonzero(incoming & (raw_to_uniforms(slots[:, 0]) < cfg.r_merge))
    inc_idx = np.flatnonzero(incoming)
    k = (slots[fired, 1] % np.uint64(cfg.n_merge - 1)).astype(np.int64) + 2
    row_end = np.searchsorted(inc_idx, np.searchsorted(rows, rows[fired], side="right"))
    reach = inc_idx[np.minimum(np.searchsorted(inc_idx, fired) + k, row_end) - 1]
    # a fired burst swallows the next k-1 incoming bursts of its trace
    # unless an earlier group of the trace swallowed it first
    first, last, covered = [], [], -1
    for f, r in zip(fired.tolist(), reach.tolist()):
        if f > covered:
            first.append(f)
            last.append(r)
            covered = r
    first, last = np.array(first, dtype=np.int64), np.array(last, dtype=np.int64)
    out = bursts.copy()
    incoming_sum = np.cumsum(np.where(incoming, bursts, 0))
    out[first] = incoming_sum[last] - incoming_sum[first] + bursts[first]
    cover = np.zeros(len(bursts) + 1, dtype=np.int64)
    cover[first + 1] += 1
    cover[last + 1] -= 1
    keep = np.cumsum(cover[:-1]) == 0
    return out[keep], rows[keep]


# -- batch engine ------------------------------------------------------------


def check_net_inputs(nonzero_counts, cfg: AugmentConfig, dist) -> None:
    """Raise before any draw if net augmentation cannot run on these traces.

    TraceTooShort names the first trace (by position in ``nonzero_counts``)
    with at most ``preserve_prefix`` nonzero cells; EmptyDistribution is
    raised when there is no burst-size distribution to insert from.
    """
    counts = np.asarray(nonzero_counts)
    short = np.flatnonzero(counts <= cfg.preserve_prefix)
    if len(short):
        i = int(short[0])
        raise TraceTooShort(
            f"trace {i}: need more than {cfg.preserve_prefix} nonzero cells, "
            f"got {int(counts[i])}"
        )
    if dist is None or dist.total == 0:
        raise EmptyDistribution("need a nonempty outgoing-burst-size distribution")


def _row_pointers(rows: np.ndarray, n: int) -> np.ndarray:
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr


def net_augment_batch(cells, cfg: AugmentConfig, dist, rng: RandomSource) -> np.ndarray:
    """One burst manipulation plus a shift on every row of an (n, L) int8
    cell matrix.

    The rows draw from ``rng`` in row order, each its block of 3 + 3 * nb
    draws. The output is assembled from burst boundaries, one marker per
    burst and a cumulative sum along each row, as the module docstring
    describes.
    """
    cells = np.asarray(cells, dtype=np.int8)
    n, length = cells.shape
    prefix_len = cfg.preserve_prefix
    counts = np.count_nonzero(cells, axis=1)
    check_net_inputs(counts, cfg, dist)
    if n == 0:
        return cells.copy()

    suffix = cells[:, prefix_len:]
    suffix_counts = counts - np.count_nonzero(cells[:, :prefix_len], axis=1)
    sizes, burst_row = run_lengths(suffix[suffix != 0], suffix_counts)
    burst_ptr = _row_pointers(burst_row, n)
    # row r's block is one header triple, then one triple per burst; the
    # blocks follow each other, so counted in triples row r starts at
    # r + burst_ptr[r] and burst g sits at g + burst_row[g] + 1
    triples = rng._raw_block(3 * (n + len(sizes))).reshape(-1, 3)
    header = triples[np.arange(n) + burst_ptr[:-1]]
    slot_of = np.arange(len(sizes)) + burst_row + 1  # each burst's triple

    # each stage takes the bursts of the rows that picked it; one stable
    # sort by row puts the rows back in order
    manipulation = (header[:, 0] % np.uint64(3))[burst_row]
    resize, insert, merge = (manipulation == m for m in range(3))
    rows = burst_row[resize]
    resized = modify_incoming_burst_sizes(
        sizes[resize], counts[rows], cfg, header[:, 1][rows], triples[slot_of[resize]]
    )
    inserted, inserted_rows = insert_outgoing_bursts(
        sizes[insert], burst_row[insert], cfg, dist, triples[slot_of[insert]]
    )
    merged, merged_rows = merge_incoming_bursts(
        sizes[merge], burst_row[merge], cfg, triples[slot_of[merge]]
    )
    out_row = np.concatenate((rows, inserted_rows, merged_rows))
    order = np.argsort(out_row, kind="stable")
    out_values, out_row = np.concatenate((resized, inserted, merged))[order], out_row[order]

    # cells from burst boundaries (see the module docstring). The marker
    # matrix is wide enough for every row's end; the sum stops at the last
    # column that holds a cell, so wide, sparse rows pay for their cells only.
    shift = (header[:, 2] % np.uint64(cfg.shift_max + 1)).astype(np.int64)
    signs = np.sign(out_values).astype(np.int8)
    ptr = _row_pointers(out_row, n)
    ends = np.concatenate(([0], np.cumsum(np.abs(out_values))))
    # column of each row's first burst; past L only that it is past L matters
    row_start = np.minimum(prefix_len + shift, length)
    row_end = row_start + ends[ptr[1:]] - ends[ptr[:-1]]
    width = int(row_end.max()) + 1
    stop = min(width - 1, length)
    change = signs.copy()
    change[1:] -= np.where(out_row[1:] == out_row[:-1], signs[:-1], 0).astype(np.int8)
    marks = np.zeros((n, width), dtype=np.int8)
    row_base = np.arange(n) * width
    marks.ravel()[ends[:-1] + (row_base + row_start - ends[ptr[:-1]])[out_row]] = change
    marks.ravel()[row_base + row_end] = -signs[ptr[1:] - 1]
    out = np.zeros((n, length), dtype=np.int8)
    np.cumsum(marks[:, :stop], axis=1, dtype=np.int8, out=out[:, :stop])
    prefix_col = shift[:, None] + np.arange(prefix_len)
    kept = prefix_col < length
    out[np.nonzero(kept)[0], prefix_col[kept]] = cells[:, :prefix_len][kept]
    return out


def flip_augment_batch(cells, p_flip: float, rng: RandomSource) -> np.ndarray:
    """Negate each nonzero cell of an (n, L) int8 cell matrix independently
    with probability p_flip.

    Each nonzero cell takes one draw from ``rng``, in row-major order.
    """
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must be in [0, 1]")
    cells = np.array(cells, dtype=np.int8)
    live = cells != 0
    values = cells[live]  # row-major, so in draw order
    flip = rng.below(len(values), p_flip)
    values *= 1 - 2 * flip.view(np.int8)  # -1 where flipped, else 1
    cells[live] = values
    return cells


def net_draw_counts(cells, cfg: AugmentConfig) -> np.ndarray:
    """The draws net_augment_batch takes for each row of an (n, L) int8
    cell matrix: 3 + 3 * the number of bursts after the preserved prefix."""
    suffix = np.asarray(cells, dtype=np.int8)[:, cfg.preserve_prefix :]
    _, burst_row = run_lengths(suffix[suffix != 0], np.count_nonzero(suffix, axis=1))
    return 3 + 3 * np.bincount(burst_row, minlength=len(suffix))


def flip_draw_counts(cells) -> np.ndarray:
    """The draws flip_augment_batch takes for each row of an (n, L) cell
    matrix: one per nonzero cell."""
    return np.count_nonzero(cells, axis=1)


def net_augment(t: DirectionTrace, cfg: AugmentConfig, dist, rng: RandomSource) -> DirectionTrace:
    """net_augment_batch on one trace."""
    return DirectionTrace(net_augment_batch(t.cells[None], cfg, dist, rng)[0], label=t.label)


def flip_augment(t: DirectionTrace, p_flip: float, rng: RandomSource) -> DirectionTrace:
    """flip_augment_batch on one trace."""
    return DirectionTrace(flip_augment_batch(t.cells[None], p_flip, rng)[0], label=t.label)
