"""Signed run-length (burst) view of direction traces.

A burst is a maximal run of consecutive same-direction cells; its signed
size is negative for incoming runs and positive for outgoing runs. Zero
(padding) cells are ignored during extraction, so interior zeros are not
restored by a round trip; for traces whose zeros form only a suffix the
round trip is exact.
"""

import numpy as np

from .traces import DirectionTrace, fit_length


def extract_bursts(t) -> np.ndarray:
    """Signed run-length encode a trace (or raw cell array) into bursts."""
    cells = t.cells if isinstance(t, DirectionTrace) else np.asarray(t)
    nz = cells[cells != 0].astype(np.int64)
    if len(nz) == 0:
        return np.empty(0, dtype=np.int64)
    starts = np.flatnonzero(np.diff(nz) != 0) + 1
    starts = np.concatenate(([0], starts))
    lengths = np.diff(np.concatenate((starts, [len(nz)])))
    return nz[starts] * lengths


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
