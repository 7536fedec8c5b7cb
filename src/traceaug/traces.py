"""Trace representations, filtering rules, and the network-condition metric.

Two trace forms are used throughout:

* ``DirectionTrace`` — fixed-length sequence of cell directions in
  {-1, 0, +1}; the model input. Zeros are padding and may appear only as
  a suffix, or as a prefix plus suffix (leading zeros are produced by the
  shift transform of the augmenter).
* ``TimedTrace`` — variable-length sequence of (timestamp, direction,
  size) cell records; the input to the network-condition metric.

The network-condition metric (NCM) of a timed trace is the total number
of downstream (incoming) bytes divided by the wall-clock span between its
first and last cell. Traces at or above a bytes-per-second threshold are
"superior", the rest "inferior".
"""

import json
from dataclasses import dataclass

import numpy as np

#: Label sentinel for traces of unmonitored websites.
UNMONITORED = -1

#: Default fixed model-input length.
DEFAULT_TRACE_LEN = 5000

#: Default Tor cell payload size in bytes.
DEFAULT_CELL_SIZE = 512


class DegenerateTrace(ValueError):
    """Trace on which the NCM is undefined (fewer than 2 cells or zero
    duration). Carries the offending trace index when known."""

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class MissingLabel(ValueError):
    """A labeled-mode operation encountered an unlabeled trace."""


class TraceFormatError(ValueError):
    """A trace file line could not be parsed; carries the 1-based line number."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


def fit_length(cells: np.ndarray, length: int) -> np.ndarray:
    """Truncate or zero-pad a cell array to exactly ``length`` entries."""
    cells = np.asarray(cells, dtype=np.int8)
    if len(cells) >= length:
        return cells[:length].copy()
    out = np.zeros(length, dtype=np.int8)
    out[: len(cells)] = cells
    return out


@dataclass
class DirectionTrace:
    """Fixed-length direction sequence with an optional class label."""

    cells: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=np.int8)
        if self.cells.ndim != 1:
            raise ValueError("cells must be one-dimensional")
        bad = np.abs(self.cells) > 1
        if bad.any():
            raise ValueError(f"cell directions must be in {{-1,0,+1}}, got {self.cells[bad][0]}")
        nz = np.flatnonzero(self.cells)
        if len(nz) and (nz[-1] - nz[0] + 1) != len(nz):
            raise ValueError("zeros may only lead or trail, not interrupt the trace")

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def nonzero_count(self) -> int:
        return int(np.count_nonzero(self.cells))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DirectionTrace)
            and self.label == other.label
            and np.array_equal(self.cells, other.cells)
        )


@dataclass(eq=False)
class TimedTrace:
    """Ordered cell records (timestamp seconds, direction, size in bytes)."""

    times: np.ndarray
    directions: np.ndarray
    sizes: np.ndarray
    label: int | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.float64)
        self.directions = np.asarray(self.directions, dtype=np.int8)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        n = len(self.times)
        if n == 0:
            raise ValueError("a timed trace needs at least one cell")
        if len(self.directions) != n or len(self.sizes) != n:
            raise ValueError("times, directions and sizes must have equal length")
        if not np.all(np.isfinite(self.times)):
            raise ValueError("timestamps must be finite")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("timestamps must be non-decreasing")
        if not np.all(np.abs(self.directions) == 1):
            raise ValueError("timed-trace directions must be -1 or +1")
        if np.any(self.sizes <= 0):
            raise ValueError("cell sizes must be positive")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class FilterPolicy:
    """Trace-filtering rule set.

    closed-world: drop traces smaller than ``median_fraction`` of their
    label's median nonzero-cell count. open-world: drop traces with fewer
    than ``min_cells`` nonzero cells. Empty traces are dropped in both.
    """

    mode: str
    median_fraction: float = 0.20
    min_cells: int = 20

    def __post_init__(self):
        if self.mode not in ("closed-world", "open-world"):
            raise ValueError(f"unknown filter mode {self.mode!r}")
        if not 0.0 < self.median_fraction < 1.0:
            raise ValueError("median_fraction must be in (0, 1)")
        if self.min_cells < 1:
            raise ValueError("min_cells must be >= 1")


def to_direction_trace(t: TimedTrace, length: int = DEFAULT_TRACE_LEN) -> DirectionTrace:
    """Project a timed trace onto a fixed-length direction sequence.

    The first min(len(t), length) directions are copied in order; shorter
    traces are padded with zeros. The label carries over.
    """
    return DirectionTrace(fit_length(t.directions, length), label=t.label)


def compute_ncm(t: TimedTrace) -> float:
    """Network-condition metric: downstream bytes per second of load time.

    Raises DegenerateTrace when the trace has fewer than two cells or zero
    duration; such traces must be excluded from NCM-based partitioning.
    """
    if len(t) < 2:
        raise DegenerateTrace("NCM undefined for traces with fewer than 2 cells")
    duration = float(t.times[-1] - t.times[0])
    if duration <= 0.0:
        raise DegenerateTrace("NCM undefined for zero-duration traces")
    downstream = int(t.sizes[t.directions == -1].sum())
    return downstream / duration


def partition_by_ncm(
    traces: list[TimedTrace],
    threshold: float,
    skipped: list[DegenerateTrace] | None = None,
) -> tuple[list[TimedTrace], list[TimedTrace]]:
    """Split traces into (superior, inferior) at an NCM threshold.

    A trace whose NCM equals the threshold exactly goes to superior.
    DegenerateTrace is raised with the offending trace index attached; when
    a ``skipped`` list is given, the trace is left out instead and that
    exception is appended to the list.
    """
    superior, inferior = [], []
    for i, t in enumerate(traces):
        try:
            value = compute_ncm(t)
        except DegenerateTrace as exc:
            indexed = DegenerateTrace(f"trace {i}: {exc}", index=i)
            if skipped is None:
                raise indexed from exc
            skipped.append(indexed)
            continue
        (superior if value >= threshold else inferior).append(t)
    return superior, inferior


def lower_median(values) -> int:
    """Median that resolves even-count ties to the lower middle value."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of empty set")
    return ordered[(len(ordered) - 1) // 2]


def filter_traces(traces: list[DirectionTrace], policy: FilterPolicy) -> list[DirectionTrace]:
    """Apply the size-based filtering rules, preserving input order.

    Empty (all-zero) traces are always removed. In closed-world mode every
    trace must be labeled and traces below median_fraction x (per-label
    median nonzero count) are removed; the median is computed once, on the
    input. In open-world mode traces with fewer than min_cells nonzero
    cells are removed.
    """
    kept = [t for t in traces if t.nonzero_count > 0]
    if policy.mode == "open-world":
        return [t for t in kept if t.nonzero_count >= policy.min_cells]

    for t in kept:
        if t.label is None:
            raise MissingLabel("closed-world filtering requires labeled traces")
    sizes_by_label: dict[int, list[int]] = {}
    for t in kept:
        sizes_by_label.setdefault(t.label, []).append(t.nonzero_count)
    cutoff = {
        label: policy.median_fraction * lower_median(sizes)
        for label, sizes in sizes_by_label.items()
    }
    return [t for t in kept if not t.nonzero_count < cutoff[t.label]]


# -- file formats ----------------------------------------------------------
#
# .dtrace: one trace per line, "label<TAB>d d d ..." with directions in
# {-1,0,+1}; label -1 marks an unmonitored site, an empty label field an
# unlabeled trace. The writer emits the canonical form, single spaces between
# the tokens "-1", "0" and "1"; the reader accepts any whitespace-separated
# integers in {-1,0,+1} and \n or \r\n line ends.
#
# .ttrace: one trace per line as a JSON record
# {"label": L, "cells": [[time, direction, size], ...]}; float timestamps
# round-trip exactly (shortest-repr float64 serialization).

#: Canonical .dtrace token of direction d in row d + 1, as the slots
#: [sign or hole, digit, space]; holes are dropped when a row is encoded.
_HOLE = 0
_DTRACE_TOKENS = np.frombuffer(b"-1 \x000 \x001 ", dtype=np.uint8).reshape(3, 3)
_MINUS, _ONE = ord("-"), ord("1")


def _encode_cells(cells: np.ndarray) -> np.ndarray:
    """Canonical bytes of a direction row, each token followed by one space.

    A direction outside {-1,0,+1} indexes past the token table and raises
    IndexError.
    """
    slots = _DTRACE_TOKENS.take((cells + 1).astype(np.uint8), axis=0).ravel()
    return slots.compress(slots != _HOLE)


def _decode_canonical(field: bytes) -> np.ndarray | None:
    """Directions of a canonical cell field, or None if the field is not in
    the form ``_encode_cells`` writes."""
    buf = np.frombuffer(field, dtype=np.uint8)
    digits = np.flatnonzero(buf > _MINUS)  # '0' and '1' sort above '-' and ' '
    cells = (buf[digits] == _ONE).astype(np.int8)
    cells[buf[digits - 1] == _MINUS] = -1
    # the parse above trusts the layout (a leading digit even reads byte -1);
    # re-encoding proves it
    if _encode_cells(cells)[:-1].tobytes() != field:
        return None
    return cells


def _parse_dtrace_tokens(line: bytes, line_no: int) -> tuple[int | None, np.ndarray]:
    """Per-token parse of a .dtrace line in any whitespace layout."""
    try:
        text = line.decode("ascii")
    except UnicodeDecodeError as exc:
        raise TraceFormatError(str(exc), line_no) from exc
    if "\t" not in text:
        raise TraceFormatError("expected 'label<TAB>cells'", line_no)
    label_field, cell_field = text.split("\t", 1)
    try:
        label = None if label_field == "" else int(label_field)
        values = [int(tok) for tok in cell_field.split()]
    except ValueError as exc:
        raise TraceFormatError(str(exc), line_no) from exc
    if any(v not in (-1, 0, 1) for v in values):
        raise TraceFormatError("directions must be in {-1,0,+1}", line_no)
    return label, np.array(values, dtype=np.int8)


def save_dtrace(path, traces: list[DirectionTrace]) -> None:
    """Write traces in the canonical .dtrace form, one line at a time."""
    with open(path, "wb") as fh:
        for t in traces:
            fh.write(b"\t" if t.label is None else b"%d\t" % int(t.label))
            fh.write(_encode_cells(t.cells)[:-1])
            fh.write(b"\n")


def load_dtrace(path, trace_len: int | None = None) -> list[DirectionTrace]:
    """Load a .dtrace file, normalizing every line to ``trace_len`` cells
    (or to its own length when trace_len is None).

    Canonical lines are decoded in numpy; any other line goes through the
    per-token parser, which accepts the same values or names the line that
    it rejects.
    """
    traces = []
    with open(path, "rb") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.rstrip(b"\r\n")
            if not line:
                continue
            label_field, tab, cell_field = line.partition(b"\t")
            cells = _decode_canonical(cell_field) if tab else None
            try:
                label = None if label_field == b"" else int(label_field)
            except ValueError:
                cells = None
            if cells is None:
                label, cells = _parse_dtrace_tokens(line, line_no)
            try:
                trace = DirectionTrace(
                    fit_length(cells, trace_len) if trace_len else cells, label=label
                )
            except ValueError as exc:
                raise TraceFormatError(str(exc), line_no) from exc
            traces.append(trace)
    return traces


def save_ttrace(path, traces: list[TimedTrace]) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for t in traces:
            record = {
                "label": None if t.label is None else int(t.label),
                "cells": list(
                    zip(t.times.tolist(), t.directions.tolist(), t.sizes.tolist())
                ),
            }
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")


def load_ttrace(path) -> list[TimedTrace]:
    traces = []
    with open(path, "r", encoding="ascii") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                cells = record["cells"]
                trace = TimedTrace(
                    times=np.array([c[0] for c in cells], dtype=np.float64),
                    directions=np.array([c[1] for c in cells], dtype=np.int8),
                    sizes=np.array([c[2] for c in cells], dtype=np.int64),
                    label=record.get("label"),
                )
            except (KeyError, IndexError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise TraceFormatError(str(exc), line_no) from exc
            traces.append(trace)
    return traces
