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

All randomness comes from a caller-owned RandomSource; draws happen in
strict left-to-right burst order so outputs are reproducible.

Single traces go through ``net_augment`` and ``flip_augment``. Training
loops and the CLI use the batch forms, ``net_augment_batch(cells, cfg,
dist, rng)`` and ``flip_augment_batch(cells, p_flip, rng)``, which take an
(n, L) int8 cell matrix and return the augmented matrix. Their contract is
draw for draw: the result, and the counter of every stream afterwards,
equal those of calling the per-trace function on the rows in order.
``rng`` is either one RandomSource that the rows share in row order, or a
sequence of n RandomSources, one per row. Per trace, net augmentation
draws, in this order: the manipulation; for resizing, the direction (only
when the nonzero count lies in (low_cells, high_cells]) and then one
uniform per eligible burst; for insertion, one uniform per burst of at
least 7 incoming cells, followed by the inserted size and the split
position when it fires; for merging, one uniform per visited incoming
burst, followed by the group size when it fires; last, the shift. Flip
augmentation draws one uniform per nonzero cell. The batch forms check
their inputs before drawing anything (``check_net_inputs``), so a short
trace or a missing distribution leaves the streams untouched.
"""

from dataclasses import dataclass

import numpy as np

from .bursts import bursts_to_cells, extract_bursts, normalize_bursts, split_prefix
from .rng import RandomSource, raw_to_uniforms
from .traces import DirectionTrace, fit_length


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


def _round_away(x: float) -> int:
    """Round to nearest integer, ties away from zero."""
    return int(np.sign(x) * np.floor(abs(x) + 0.5))


def modify_incoming_burst_sizes(
    bursts: np.ndarray, nonzero_count: int, cfg: AugmentConfig, rng: RandomSource
) -> np.ndarray:
    """Scale large incoming bursts up or down.

    Short traces (nonzero_count <= low_cells) are always upsampled, long
    ones (> high_cells) downsampled, anything between chooses uniformly.
    Each incoming burst at least burst_size_threshold cells large is
    scaled by (1 + u*delta) with a fresh uniform u per burst, rounded to
    the nearest integer and floored at magnitude 1 so that no burst
    vanishes or flips direction. Outgoing and small incoming bursts pass
    through untouched.
    """
    bursts = np.asarray(bursts, dtype=np.int64)
    if nonzero_count <= cfg.low_cells:
        delta = cfg.r_upsample
    elif nonzero_count > cfg.high_cells:
        delta = -cfg.r_downsample
    else:
        delta = cfg.r_upsample if rng.randbelow(2) == 0 else -cfg.r_downsample

    eligible = bursts <= -cfg.burst_size_threshold
    if not eligible.any():
        return bursts.copy()
    u = rng.uniforms(int(eligible.sum()))
    scaled = bursts[eligible] * (1.0 + u * delta)
    out = bursts.copy()
    out[eligible] = [
        max(1, abs(_round_away(s))) * int(np.sign(b))
        for s, b in zip(scaled, bursts[eligible])
    ]
    return out


def insert_outgoing_bursts(
    bursts: np.ndarray, cfg: AugmentConfig, dist, rng: RandomSource
) -> np.ndarray:
    """Split incoming bursts around sampled outgoing bursts.

    Each incoming burst of at least 7 cells fires with probability
    r_insert; a burst of -m cells becomes [-p, +s, -(m-p)] with the split
    position p uniform in {3, ..., m-3} and the inserted size s sampled
    from the empirical outgoing-burst-size distribution. The incoming
    cell count is preserved exactly.
    """
    if dist is None or dist.total == 0:
        raise EmptyDistribution("need a nonempty outgoing-burst-size distribution")
    out: list[int] = []
    for b in np.asarray(bursts, dtype=np.int64):
        b = int(b)
        if b > -_MIN_SPLIT_CELLS:  # outgoing bursts and too-small incoming bursts
            out.append(b)
            continue
        if rng.uniform() >= cfg.r_insert:
            out.append(b)
            continue
        size = dist.sample(rng)
        position = rng.randint(3, -b - 3)
        out += [-position, size, b + position]
    return np.array(out, dtype=np.int64)


def merge_incoming_bursts(
    bursts: np.ndarray, cfg: AugmentConfig, rng: RandomSource
) -> np.ndarray:
    """Merge runs of incoming bursts, dropping outgoing bursts in between.

    Scanning left to right, each incoming burst fires with probability
    r_merge; k is then drawn uniformly from {2, ..., n_merge} and the next
    k incoming bursts (including the current one) collapse into their
    signed sum. Outgoing bursts strictly between merged incoming bursts
    are removed; if fewer than k incoming bursts remain, whatever remains
    is merged. The total incoming cell count is preserved exactly.
    """
    bursts = np.asarray(bursts, dtype=np.int64)
    out: list[int] = []
    i = 0
    n = len(bursts)
    while i < n:
        b = int(bursts[i])
        if b > 0:
            out.append(b)
            i += 1
            continue
        if rng.uniform() >= cfg.r_merge:
            out.append(b)
            i += 1
            continue
        k = rng.randint(2, cfg.n_merge)
        merged = 0
        taken = 0
        last_incoming = i
        j = i
        while j < n and taken < k:
            if bursts[j] < 0:
                merged += int(bursts[j])
                taken += 1
                last_incoming = j
            j += 1
        out.append(merged)
        i = last_incoming + 1
    return np.array(out, dtype=np.int64)


def net_augment(
    t: DirectionTrace, cfg: AugmentConfig, dist, rng: RandomSource
) -> DirectionTrace:
    """Apply one burst manipulation plus a shift to a direction trace.

    The first ``preserve_prefix`` cells are kept verbatim; one of the
    three manipulations (chosen uniformly, one draw, before any
    manipulation-local draws) rewrites the burst sequence of the
    remainder; the result is converted back to cells and the whole trace
    shifted right by n cells (n uniform in {0, ..., shift_max}): the last
    n cells are dropped and n zero cells inserted at the beginning.
    The output is truncated or zero-padded back to the input length.
    """
    nonzero_count = t.nonzero_count
    if nonzero_count <= cfg.preserve_prefix:
        raise TraceTooShort(
            f"need more than {cfg.preserve_prefix} nonzero cells, got {nonzero_count}"
        )
    prefix, rest = split_prefix(t.cells, cfg.preserve_prefix)
    bursts = extract_bursts(rest)

    manipulation = rng.randbelow(3)
    if manipulation == 0:
        bursts = modify_incoming_burst_sizes(bursts, nonzero_count, cfg, rng)
    elif manipulation == 1:
        bursts = insert_outgoing_bursts(bursts, cfg, dist, rng)
    else:
        bursts = merge_incoming_bursts(bursts, cfg, rng)
    bursts = normalize_bursts(bursts)

    natural = int(np.abs(bursts).sum()) if len(bursts) else 0
    suffix_cells = bursts_to_cells(bursts, natural)
    # fixed length first: shifting the padded trace drops tail padding for
    # short traces instead of real cells
    cells = fit_length(np.concatenate((prefix, suffix_cells)), len(t))

    n = rng.randbelow(cfg.shift_max + 1)
    if n > 0:
        cells = np.concatenate((np.zeros(n, dtype=np.int8), cells[: len(cells) - n]))
    return DirectionTrace(cells, label=t.label)


def flip_augment(t: DirectionTrace, p_flip: float, rng: RandomSource) -> DirectionTrace:
    """Negate each nonzero cell independently with probability p_flip."""
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must be in [0, 1]")
    cells = t.cells.copy()
    nz = np.flatnonzero(cells)
    if len(nz):
        u = rng.uniforms(len(nz))
        flip = nz[u < p_flip]
        cells[flip] = -cells[flip]
    return DirectionTrace(cells, label=t.label)


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


def _streams(rng, n: int):
    """None for one shared stream, else the per-row stream list."""
    if isinstance(rng, RandomSource):
        return None
    rngs = list(rng)
    if len(rngs) != n:
        raise ValueError(f"need one random stream per row: {n} rows, {len(rngs)} streams")
    return rngs


def _row_bursts(cells: np.ndarray):
    """2-D signed run-length encoding: the bursts of every row, in row order,
    and the row each burst belongs to. Zeros are skipped as in extract_bursts."""
    rows, cols = np.nonzero(cells)
    values = cells[rows, cols].astype(np.int64)
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = (rows[1:] != rows[:-1]) | (values[1:] != values[:-1])
    starts = np.flatnonzero(starts)
    lengths = np.diff(np.append(starts, len(values)))
    return values[starts] * lengths, rows[starts]


def _rank_in_group(groups: np.ndarray) -> np.ndarray:
    """Position of each entry among the entries of its group (groups sorted)."""
    return np.arange(len(groups)) - np.searchsorted(groups, groups, side="left")


def _row_pointers(rows: np.ndarray, n: int) -> np.ndarray:
    ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return ptr


def net_augment_batch(cells, cfg: AugmentConfig, dist, rng) -> np.ndarray:
    """net_augment on every row of an (n, L) int8 cell matrix.

    ``rng`` is one RandomSource shared by the rows in order, or a sequence
    of n RandomSources, one per row. Either way the result and the final
    stream counters equal those of calling net_augment row by row.
    """
    cells = np.asarray(cells, dtype=np.int8)
    n, length = cells.shape
    prefix_len = cfg.preserve_prefix
    counts = np.count_nonzero(cells, axis=1)
    check_net_inputs(counts, cfg, dist)
    rngs = _streams(rng, n)
    if n == 0:
        return cells.copy()

    sizes, burst_row = _row_bursts(cells[:, prefix_len:])
    incoming = sizes < 0
    resizable = sizes <= -cfg.burst_size_threshold
    splittable = sizes <= -_MIN_SPLIT_CELLS
    n_resizable = np.bincount(burst_row[resizable], minlength=n)
    # most draws a row can take: the manipulation, the shift, and the
    # heaviest manipulation-local use (1 + 1 per burst, 3 per split, 2 per merge)
    bound = 2 + np.maximum.reduce([
        1 + n_resizable,
        3 * np.bincount(burst_row[splittable], minlength=n),
        2 * np.bincount(burst_row[incoming], minlength=n),
    ])
    if rngs is None:
        raw = rng.peek_raw_block(int(bound.sum()))
    else:
        raw = np.concatenate([s.peek_raw_block(int(b)) for s, b in zip(rngs, bound.tolist())])
        row_base = np.concatenate(([0], np.cumsum(bound)[:-1])).tolist()

    # The one sequential pass: insert and merge take a data-dependent number
    # of draws, so each draw's position in ``raw`` is found by walking the
    # rows in order. Everything else happens on whole arrays afterwards.
    draws = raw.tolist()
    pick_direction = ((counts > cfg.low_cells) & (counts <= cfg.high_cells)).tolist()
    n_res = n_resizable.tolist()
    split_idx = np.flatnonzero(splittable)
    split_ptr = _row_pointers(burst_row[split_idx], n).tolist()
    split_idx = split_idx.tolist()
    inc_idx = np.flatnonzero(incoming)
    inc_ptr = _row_pointers(burst_row[inc_idx], n).tolist()
    inc_idx = inc_idx.tolist()
    r_insert, r_merge, k_range = cfg.r_insert, cfg.r_merge, cfg.n_merge - 1
    scale = 2.0 ** -53

    manipulation = [0] * n
    direction_at = [-1] * n
    resize_at = [0] * n
    shift_at = [0] * n
    split, split_at, merge_first, merge_last = [], [], [], []
    pos = 0
    for r in range(n):
        if rngs is not None:
            pos = row_base[r]
        m = draws[pos] % 3
        pos += 1
        manipulation[r] = m
        if m == 0:
            if pick_direction[r]:
                direction_at[r] = pos
                pos += 1
            resize_at[r] = pos
            pos += n_res[r]
        elif m == 1:
            for j in split_idx[split_ptr[r] : split_ptr[r + 1]]:
                if (draws[pos] >> 11) * scale < r_insert:
                    split.append(j)
                    split_at.append(pos)
                    pos += 3
                else:
                    pos += 1
        else:
            group = inc_idx[inc_ptr[r] : inc_ptr[r + 1]]
            t, stop = 0, len(group)
            while t < stop:
                if (draws[pos] >> 11) * scale < r_merge:
                    merge_first.append(group[t])
                    t = min(t + 2 + draws[pos + 1] % k_range, stop)
                    merge_last.append(group[t - 1])
                    pos += 2
                else:
                    t += 1
                    pos += 1
        shift_at[r] = pos
        pos += 1
        if rngs is not None:
            rngs[r].advance(pos - row_base[r])
    if rngs is None:
        rng.advance(pos)

    manipulation = np.array(manipulation)
    values = sizes.copy()

    # resize: one uniform per eligible burst, drawn consecutively per row
    chosen = np.flatnonzero(resizable & (manipulation[burst_row] == 0))
    if len(chosen):
        rows = burst_row[chosen]
        u = raw_to_uniforms(raw[np.array(resize_at)[rows] + _rank_in_group(rows)])
        delta = np.where(counts <= cfg.low_cells, cfg.r_upsample, -cfg.r_downsample)
        picked = np.array(direction_at)
        mixed = picked >= 0
        delta[mixed] = np.where(raw[picked[mixed]] % np.uint64(2) == 0,
                                cfg.r_upsample, -cfg.r_downsample)
        b = sizes[chosen]
        scaled = b * (1.0 + u * delta[rows])
        values[chosen] = np.maximum(1, np.floor(np.abs(scaled) + 0.5)).astype(np.int64) * np.sign(b)

    # merge: each group collapses into its first burst; the rest is dropped
    repeats = np.ones(len(sizes), dtype=np.int64)
    if merge_first:
        first, last = np.array(merge_first), np.array(merge_last)
        incoming_sum = np.cumsum(np.where(incoming, sizes, 0))
        values[first] = incoming_sum[last] - incoming_sum[first] + sizes[first]
        cover = np.zeros(len(sizes) + 1, dtype=np.int64)
        cover[first + 1] += 1
        cover[last + 1] -= 1
        repeats[np.cumsum(cover[:-1]) > 0] = 0

    # insert: each fired burst -m becomes [-p, +s, -(m-p)]
    split = np.array(split, dtype=np.int64)
    repeats[split] = 3
    out_values = np.repeat(values, repeats)
    out_row = np.repeat(burst_row, repeats)
    if len(split):
        at = np.array(split_at)
        u = raw_to_uniforms(raw[at + 1])
        idx = np.searchsorted(dist.cumulative, u * dist.total, side="right")
        inserted = dist.support[np.minimum(idx, len(dist.support) - 1)]
        b = sizes[split]
        position = 3 + (raw[at + 2] % (-b - 5).astype(np.uint64)).astype(np.int64)
        o = (np.cumsum(repeats) - 3)[split]
        out_values[o] = -position
        out_values[o + 1] = inserted
        out_values[o + 2] = b + position

    # cells: prefix verbatim, then the expanded bursts, all shifted right
    shift = (raw[np.array(shift_at)] % np.uint64(cfg.shift_max + 1)).astype(np.int64)
    magnitudes = np.abs(out_values)
    suffix = np.repeat(np.sign(out_values).astype(np.int8), magnitudes)
    suffix_row = np.repeat(out_row, magnitudes)
    row_first_cell = np.concatenate(([0], np.cumsum(magnitudes)))[_row_pointers(out_row, n)[:-1]]
    suffix_col = (
        np.arange(len(suffix)) - row_first_cell[suffix_row] + prefix_len + shift[suffix_row]
    )
    prefix_col = shift[:, None] + np.arange(prefix_len)
    flat_rows = np.concatenate((np.repeat(np.arange(n), prefix_len), suffix_row))
    flat_cols = np.concatenate((prefix_col.ravel(), suffix_col))
    flat_values = np.concatenate((cells[:, :prefix_len].ravel(), suffix))
    inside = flat_cols < length
    out = np.zeros((n, length), dtype=np.int8)
    out[flat_rows[inside], flat_cols[inside]] = flat_values[inside]
    return out


def flip_augment_batch(cells, p_flip: float, rng) -> np.ndarray:
    """flip_augment on every row of an (n, L) int8 cell matrix.

    ``rng`` is one RandomSource shared by the rows in order, or a sequence
    of n RandomSources, one per row; results and stream counters equal
    those of calling flip_augment row by row.
    """
    if not 0.0 <= p_flip <= 1.0:
        raise ValueError("p_flip must be in [0, 1]")
    cells = np.array(cells, dtype=np.int8)
    rngs = _streams(rng, len(cells))
    rows, cols = np.nonzero(cells)
    if rngs is None:
        u = rng.uniforms(len(rows))
    else:
        per_row = np.bincount(rows, minlength=len(cells)).tolist()
        u = np.concatenate([np.empty(0)] + [s.uniforms(k) for s, k in zip(rngs, per_row)])
    flip = u < p_flip
    cells[rows[flip], cols[flip]] *= -1
    return cells
