"""Signed run-length (burst) view of direction traces.

A burst is a maximal run of consecutive same-direction cells; its signed
size is negative for incoming runs and positive for outgoing runs. Zero
(padding) cells are ignored during extraction, so interior zeros are not
restored by a round trip; for traces whose zeros form only a suffix the
round trip is exact.

``run_lengths`` is the one encoder: it takes many rows' nonzero cells
concatenated, so a whole corpus (``distributions.build_distribution``) or
batch (``augment.net_augment_batch``) is encoded in one pass, and
``extract_bursts`` is its one-trace form.
"""

import numpy as np

from .traces import DirectionTrace, fit_length


def run_lengths(values: np.ndarray, counts) -> tuple[np.ndarray, np.ndarray]:
    """Signed run-length encoding of many rows at once.

    ``values`` holds the rows' nonzero cells, one row after another, and
    ``counts`` how many of them each row has. Returns the bursts of every
    row, in row order, and the row each burst belongs to; a burst starts at
    each change of sign and at each row's first cell.
    """
    row_ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=row_ptr[1:])
    starts = np.empty(len(values), dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    row_first = row_ptr[:-1]
    starts[row_first[row_first < len(values)]] = True
    starts = np.flatnonzero(starts)
    lengths = np.diff(np.append(starts, len(values)))
    rows = np.searchsorted(row_ptr, starts, side="right") - 1
    return values[starts].astype(np.int64) * lengths, rows


def extract_bursts(t) -> np.ndarray:
    """Signed run-length encode a trace (or raw cell array) into bursts."""
    cells = t.cells if isinstance(t, DirectionTrace) else np.asarray(t)
    nz = cells[cells != 0]
    return run_lengths(nz, [len(nz)])[0]


def bursts_to_cells(bursts, length: int) -> np.ndarray:
    """Expand bursts back into cells, truncated or zero-padded to length."""
    bursts = np.asarray(bursts, dtype=np.int64)
    if len(bursts) == 0:
        return np.zeros(length, dtype=np.int8)
    cells = np.repeat(np.sign(bursts), np.abs(bursts)).astype(np.int8)
    return fit_length(cells, length)


def normalize_bursts(bursts) -> np.ndarray:
    """Merge adjacent same-sign entries and drop zeros so the alternating
    sign invariant holds; burst manipulations may transiently break it."""
    out: list[int] = []
    for b in np.asarray(bursts, dtype=np.int64):
        b = int(b)
        if b == 0:
            continue
        if out and (out[-1] > 0) == (b > 0):
            out[-1] += b
        else:
            out.append(b)
    return np.array(out, dtype=np.int64)
