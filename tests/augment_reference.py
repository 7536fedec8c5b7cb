"""The per-trace augmentation engine, frozen as the reference for the batch one.

The package has one augmentation engine, ``traceaug.augment``'s batch
functions. This module keeps the earlier per-trace engine, unchanged: it
walks one trace's burst list at a time, with the three manipulations as
scalar loops. ``tests/test_augment_batch.py`` checks the batch engine
against it draw for draw, so do not change its arithmetic or its draws.
"""

import numpy as np

from traceaug.augment import (
    _MIN_SPLIT_CELLS,
    AugmentConfig,
    EmptyDistribution,
    TraceTooShort,
)
from traceaug.bursts import bursts_to_cells, extract_bursts, normalize_bursts
from traceaug.rng import RandomSource, raw_to_uniforms
from traceaug.traces import DirectionTrace, fit_length


def split_prefix(cells: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a cell array into (first k cells verbatim, remainder)."""
    if k > len(cells):
        raise ValueError(f"prefix length {k} exceeds trace length {len(cells)}")
    return cells[:k].copy(), cells[k:].copy()


def _round_away(x: float) -> int:
    """Round to nearest integer, ties away from zero."""
    return int(np.sign(x) * np.floor(abs(x) + 0.5))


def modify_incoming_burst_sizes(
    bursts: np.ndarray, nonzero_count: int, cfg: AugmentConfig, direction: int, slots
) -> np.ndarray:
    """Scale large incoming bursts up or down.

    Short traces (nonzero_count <= low_cells) are always upsampled, long
    ones (> high_cells) downsampled; anything between upsamples when the
    raw ``direction`` draw is even. Each incoming burst at least
    burst_size_threshold cells large is scaled by (1 + u*delta), u the
    uniform of its first slot (``slots[j, 0]``), rounded to the nearest
    integer and floored at magnitude 1 so that no burst vanishes or flips
    direction. Outgoing and small incoming bursts pass through untouched.
    """
    bursts = np.asarray(bursts, dtype=np.int64)
    if nonzero_count <= cfg.low_cells:
        delta = cfg.r_upsample
    elif nonzero_count > cfg.high_cells:
        delta = -cfg.r_downsample
    else:
        delta = cfg.r_upsample if int(direction) % 2 == 0 else -cfg.r_downsample

    eligible = bursts <= -cfg.burst_size_threshold
    u = raw_to_uniforms(np.asarray(slots, dtype=np.uint64)[eligible, 0])
    scaled = bursts[eligible] * (1.0 + u * delta)
    out = bursts.copy()
    out[eligible] = [
        max(1, abs(_round_away(s))) * int(np.sign(b))
        for s, b in zip(scaled, bursts[eligible])
    ]
    return out


def insert_outgoing_bursts(bursts: np.ndarray, cfg: AugmentConfig, dist, slots) -> np.ndarray:
    """Split incoming bursts around sampled outgoing bursts.

    Incoming burst j of at least 7 cells fires when the uniform of
    ``slots[j, 0]`` is below r_insert; a burst of -m cells becomes
    [-p, +s, -(m-p)], with the inserted size s the distribution's value
    at the uniform of ``slots[j, 1]`` and the split position
    p = 3 + ``slots[j, 2]`` mod (m-5), in {3, ..., m-3}. The incoming
    cell count is preserved exactly.
    """
    if dist is None or dist.total == 0:
        raise EmptyDistribution("need a nonempty outgoing-burst-size distribution")
    slots = np.asarray(slots, dtype=np.uint64)
    uniforms, splits = raw_to_uniforms(slots[:, :2]).tolist(), slots[:, 2].tolist()
    out: list[int] = []
    for b, (fire, size), split in zip(
        np.asarray(bursts, dtype=np.int64).tolist(), uniforms, splits, strict=True
    ):
        if b > -_MIN_SPLIT_CELLS or fire >= cfg.r_insert:
            out.append(b)  # outgoing, too small to split, or not fired
            continue
        position = 3 + split % (-b - 5)
        out += [-position, int(dist.inverse_cdf(size)), b + position]
    return np.array(out, dtype=np.int64)


def merge_incoming_bursts(bursts: np.ndarray, cfg: AugmentConfig, slots) -> np.ndarray:
    """Merge runs of incoming bursts, dropping outgoing bursts in between.

    Scanning left to right, incoming burst j fires when the uniform of
    ``slots[j, 0]`` is below r_merge; k = 2 + ``slots[j, 1]`` mod
    (n_merge-1), in {2, ..., n_merge}, and the next k incoming bursts
    (including the current one) collapse into their signed sum. Outgoing
    bursts strictly between merged incoming bursts are removed; if fewer
    than k incoming bursts remain, whatever remains is merged. Bursts a
    group swallows never fire themselves. The total incoming cell count is
    preserved exactly.
    """
    bursts = np.asarray(bursts, dtype=np.int64)
    slots = np.asarray(slots, dtype=np.uint64)
    fires, groups = raw_to_uniforms(slots[:, 0]).tolist(), slots[:, 1].tolist()
    out: list[int] = []
    i = 0
    n = len(bursts)
    while i < n:
        b = int(bursts[i])
        if b > 0 or fires[i] >= cfg.r_merge:
            out.append(b)
            i += 1
            continue
        k = 2 + groups[i] % (cfg.n_merge - 1)
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
    three manipulations rewrites the burst sequence of the remainder; the
    result is converted back to cells and the whole trace shifted right by
    n cells (n uniform in {0, ..., shift_max}): the last n cells are
    dropped and n zero cells inserted at the beginning. The output is
    truncated or zero-padded back to the input length. The trace takes
    one block of 3 + 3 * (bursts after the prefix) draws from ``rng``,
    laid out as the ``traceaug.augment`` module docstring describes.
    """
    nonzero_count = t.nonzero_count
    if nonzero_count <= cfg.preserve_prefix:
        raise TraceTooShort(
            f"need more than {cfg.preserve_prefix} nonzero cells, got {nonzero_count}"
        )
    prefix, rest = split_prefix(t.cells, cfg.preserve_prefix)
    bursts = extract_bursts(rest)
    raw = rng._raw_block(3 + 3 * len(bursts))
    manipulation, direction, shift = raw[:3].tolist()
    slots = raw[3:].reshape(-1, 3)

    if manipulation % 3 == 0:
        bursts = modify_incoming_burst_sizes(bursts, nonzero_count, cfg, direction, slots)
    elif manipulation % 3 == 1:
        bursts = insert_outgoing_bursts(bursts, cfg, dist, slots)
    else:
        bursts = merge_incoming_bursts(bursts, cfg, slots)
    bursts = normalize_bursts(bursts)

    natural = int(np.abs(bursts).sum()) if len(bursts) else 0
    suffix_cells = bursts_to_cells(bursts, natural)
    # fixed length first: shifting the padded trace drops tail padding for
    # short traces instead of real cells
    cells = fit_length(np.concatenate((prefix, suffix_cells)), len(t))

    n = shift % (cfg.shift_max + 1)
    cells = fit_length(np.concatenate((np.zeros(n, dtype=np.int8), cells)), len(t))
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
