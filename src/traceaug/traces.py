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

import itertools
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
        # the nonzero cells are one run when the first of them starts a run
        # as long as their count
        nonzero = self.cells != 0
        count = int(np.count_nonzero(nonzero))
        first = int(nonzero.argmax()) if count else 0
        if not nonzero[first : first + count].all():
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
        if not np.isfinite(self.times).all():
            raise ValueError("timestamps must be finite")
        if (self.times[1:] < self.times[:-1]).any():
            raise ValueError("timestamps must be non-decreasing")
        if not (np.abs(self.directions) == 1).all():
            raise ValueError("timed-trace directions must be -1 or +1")
        if (self.sizes <= 0).any():
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

# With "-1" written as "/", the byte below "0", every canonical token is one
# byte, "0" + d for direction d, so a cell and the space after it form one
# little-endian 16-bit word, _ZERO_SPACE + d. A row of L cells is L words,
# the last one's space turned into the line's newline.
_WORD = np.dtype("<u2")
_ZERO_SPACE = ord("0") | ord(" ") << 8
_SPACE_TO_NEWLINE = (ord(" ") - ord("\n")) << 8
#: rows encoded per word matrix by save_dtrace
_SAVE_ROWS = 64


def _canonical_cells(field: bytes) -> np.ndarray | None:
    """Directions of a cell field in the form save_dtrace writes, or None.

    After "-1" -> "/" and one more space, a canonical field of L cells is L
    words, each one of "/ ", "0 " and "1 ". A field that held a "/"
    beforehand is not canonical.
    """
    if not field:
        return np.zeros(0, dtype=np.int8)
    if b"/" in field:
        return None
    text = field.replace(b"-1", b"/") + b" "
    if len(text) % 2:
        return None
    shifted = np.frombuffer(text, dtype=_WORD) - np.uint16(_ZERO_SPACE - 1)  # d + 1
    if shifted.max() > 2:
        return None
    cells = shifted.astype(np.int8)
    cells -= 1
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
    """Write traces in the canonical .dtrace form.

    Runs of up to _SAVE_ROWS consecutive traces of equal length are encoded
    as one matrix of cell words; each row's "/"s become "-1" as it is
    written after its label.
    """
    with open(path, "wb") as fh:
        for length, group in itertools.groupby(traces, key=len):
            group = list(group)
            for start in range(0, len(group), _SAVE_ROWS):
                rows = group[start : start + _SAVE_ROWS]
                cells = np.stack([t.cells for t in rows])
                if length and (cells.min() < -1 or cells.max() > 1):
                    raise ValueError("cell directions must be in {-1,0,+1}")
                words = cells.astype(_WORD)
                words += np.uint16(_ZERO_SPACE)
                words[:, -1:] -= np.uint16(_SPACE_TO_NEWLINE)
                for t, line in zip(rows, words):
                    fh.write(b"\t" if t.label is None else b"%d\t" % int(t.label))
                    # a row of no cells is just its newline
                    fh.write(line.tobytes().replace(b"/", b"-1") or b"\n")


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
            cells = _canonical_cells(cell_field) if tab else None
            try:
                label = None if label_field == b"" else int(label_field)
            except ValueError:
                cells = None
            if cells is None:
                label, cells = _parse_dtrace_tokens(line, line_no)
            if trace_len and len(cells) != trace_len:
                cells = fit_length(cells, trace_len)
            try:
                trace = DirectionTrace(cells, label=label)
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
                label = record.get("label")
                # json gives bools, floats and strings too; none is a label
                if label is not None and type(label) is not int:
                    raise ValueError(f"label must be an integer or null, got {label!r}")
                trace = TimedTrace(
                    times=np.array([c[0] for c in cells], dtype=np.float64),
                    directions=np.array([c[1] for c in cells], dtype=np.int8),
                    sizes=np.array([c[2] for c in cells], dtype=np.int64),
                    label=label,
                )
            except (KeyError, IndexError, TypeError, ValueError, json.JSONDecodeError) as exc:
                raise TraceFormatError(str(exc), line_no) from exc
            traces.append(trace)
    return traces
