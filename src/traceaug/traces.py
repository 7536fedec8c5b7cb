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

``save_ttrace`` and ``load_ttrace`` use two cores: ``_in_two`` shares the
runs of lines of a large corpus with a forked helper (``helper``), which
pickles its lines, or its traces, back. The bytes and arrays are those of
the one-process path, and a bad line raises the same TraceFormatError with
the same line number. ``.dtrace`` files are read and written in one
process: a split of their numpy codec measured slower than one process.
"""

import gc
import itertools
import json
import mmap
import os
import pickle
import select
import time
from dataclasses import dataclass

import numpy as np

from . import helper

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


def _check_label(label) -> None:
    """Labels are stored and trained on as int64."""
    if label is not None and not -(2**63) <= label < 2**63:
        raise ValueError(f"label {label} does not fit in a 64-bit integer")


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
        _check_label(self.label)
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
        _check_label(self.label)
        self.times = np.asarray(self.times, dtype=np.float64)
        directions = np.asarray(self.directions)
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        if not self.times.ndim == directions.ndim == self.sizes.ndim == 1:
            raise ValueError("times, directions and sizes must be one-dimensional")
        n = len(self.times)
        if n == 0:
            raise ValueError("a timed trace needs at least one cell")
        if len(directions) != n or len(self.sizes) != n:
            raise ValueError("times, directions and sizes must have equal length")
        if not np.isfinite(self.times).all():
            raise ValueError("timestamps must be finite")
        if (self.times[1:] < self.times[:-1]).any():
            raise ValueError("timestamps must be non-decreasing")
        # checked before the cast to int8, which would wrap 257 to 1
        if not (np.abs(directions) == 1).all():
            raise ValueError("timed-trace directions must be -1 or +1")
        self.directions = directions.astype(np.int8, copy=False)
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

#: fewest lines a .ttrace file or corpus needs before load_ttrace and
#: save_ttrace share it with a forked helper: on the first 256 lines of the
#: CLI corpus both gain, on its first 128 loading does not
#: (tools/bench_tracedata.py)
_SPLIT_LINES = 256
#: runs of lines, of about equal cells or bytes, that the two share out: 4
#: to 32 gain alike on the CLI corpus, 16 with the least spread in loading
_CHUNKS = 16

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


def _send(fd: int, made: dict) -> None:
    """The helper's result: ``made`` pickled, behind its length, on ``fd``."""
    data = pickle.dumps(made, protocol=pickle.HIGHEST_PROTOCOL)
    with open(fd, "wb") as pipe:
        pipe.write(len(data).to_bytes(8, "little"))
        pipe.write(data)


def _received(fd: int, seconds: float) -> dict:
    """What the helper sent on ``fd``, read until end of file; nothing when
    that is short of its length or takes more than ``seconds``."""
    deadline = time.monotonic() + seconds
    poller = select.poll()
    poller.register(fd, select.POLLIN)
    data = bytearray()
    while (left := deadline - time.monotonic()) > 0 and poller.poll(left * 1000):
        if not (part := os.read(fd, 1 << 20)):  # end of file: the helper is done
            if len(data) > 8 and int.from_bytes(data[:8], "little") == len(data) - 8:
                return pickle.loads(memoryview(data)[8:])
            break
        data += part
    return {}


def _in_two(work, weights) -> list:
    """The results of ``work(first, stop)`` over items [0, n), in item order:
    one call's with no helper (``helper.start``, whose contract this keeps)
    or where n is below _SPLIT_LINES, else one per chunk of _CHUNKS runs of
    items of about equal total ``weights``, made on two cores.

    The helper makes chunks from the last one down while this process makes
    them from the first one up, each claiming a chunk in a shared byte
    before it starts it, so the two meet where their speeds put them. The
    helper stops at a chunk this process claimed and sends what it made
    (_send). This process waits for that no longer than it took over its own
    chunks, and not at all when it made every chunk, then makes the chunks
    it lacks, in order, so a stalled helper adds at most about one call's
    time. While the helper lives, this process runs no garbage collection.
    """
    n = len(weights)
    if n < max(2, _SPLIT_LINES):
        return [work(0, n)]
    total = np.cumsum(weights)
    cuts = np.searchsorted(total, total[-1] * np.arange(1, _CHUNKS) / _CHUNKS) + 1
    bounds = [0, *np.unique(cuts.clip(1, n - 1)).tolist(), n]
    chunks = len(bounds) - 1
    claims = mmap.mmap(-1, chunks)  # 0: unclaimed, 1: made here, 2: made by the helper

    def from_the_last(write_fd: int) -> None:
        made = {}
        for c in reversed(range(chunks)):
            if claims[c]:
                break
            claims[c] = 2
            made[c] = work(bounds[c], bounds[c + 1])
        _send(write_fd, made)

    read_fd, write_fd = os.pipe()
    pid = helper.start(from_the_last, (read_fd,), (write_fd,))
    forked = time.monotonic()
    # a collection here while the helper lives would write to every tracked
    # object, copying each page of them that the two processes share
    collecting = pid is not None and gc.isenabled()
    if collecting:
        gc.disable()
    try:
        if pid is None:
            return [work(0, n)]
        made = {}
        for c in range(chunks):
            if claims[c]:
                break
            claims[c] = 1
            made[c] = work(bounds[c], bounds[c + 1])
        if len(made) < chunks:  # else the helper, late to start, has nothing
            made = {**_received(read_fd, time.monotonic() - forked), **made}
        return [made[c] if c in made else work(bounds[c], bounds[c + 1]) for c in range(chunks)]
    finally:
        if collecting:
            gc.enable()
        helper.stop(pid, (read_fd,))
        claims.close()


def save_ttrace(path, traces: list[TimedTrace]) -> None:
    """Write traces as .ttrace lines, encoded on two cores (_in_two)."""

    def encode(first: int, stop: int) -> bytes:
        return "".join(
            json.dumps({
                "label": None if t.label is None else int(t.label),
                "cells": list(zip(t.times.tolist(), t.directions.tolist(), t.sizes.tolist())),
            }, separators=(",", ":")) + "\n"
            for t in traces[first:stop]
        ).encode("ascii")

    parts = _in_two(encode, [len(t) for t in traces])
    with open(path, "wb") as fh:
        fh.writelines(parts)


def _json_integers(cells: list, column: int, name: str, line: str) -> np.ndarray:
    """Column ``column`` of a line's cells as int64, or ValueError naming the
    first value that is not a JSON integer of at most 64 bits."""
    values = [c[column] for c in cells]
    array = np.array(values)
    # numpy reads ints mixed with bools as int64; a bool comes only from a
    # JSON true or false, so only a line with a "t" or "f" is searched for one
    if values and (array.dtype != np.int64 or array.ndim != 1 or (
            ("t" in line or "f" in line) and bool in map(type, values))):
        bad = next(v for v in values if type(v) is not int or not -(2**63) <= v < 2**63)
        raise ValueError(f"cell {name}s must be 64-bit integers, got {bad!r}")
    return array


def load_ttrace(path) -> list[TimedTrace]:
    """Read a .ttrace file; a line it rejects raises TraceFormatError naming
    the line. It is parsed on two cores (_in_two)."""
    with open(path, "rb") as fh:
        text = fh.read()
    if b"\r" in text:  # the line ends a text-mode read reads as "\n"
        text = text.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    # line k is text[starts[k - 1]:starts[k] - 1], as text.split(b"\n") would
    # cut it, but left in place for the process that parses it
    starts = [0]
    while (end := text.find(b"\n", starts[-1])) >= 0:
        starts.append(end + 1)
    starts.append(len(text) + 1)

    def parse(first: int, stop: int) -> list[TimedTrace]:
        """The traces on lines first + 1 to stop."""
        parsed = []
        for line_no in range(first + 1, stop + 1):
            try:
                line = text[starts[line_no - 1] : starts[line_no] - 1].decode("ascii").strip()
                if not line:
                    continue
                record = json.loads(line)
                cells = record["cells"]
                label = record.get("label")
                # json gives bools, floats and strings too; none is a label
                if label is not None and type(label) is not int:
                    raise ValueError(f"label must be an integer or null, got {label!r}")
                parsed.append(TimedTrace(
                    times=np.array([c[0] for c in cells], dtype=np.float64),
                    directions=_json_integers(cells, 1, "direction", line),
                    sizes=_json_integers(cells, 2, "size", line),
                    label=label,
                ))
            except (KeyError, IndexError, OverflowError, TypeError, ValueError) as exc:
                raise TraceFormatError(str(exc), line_no) from exc
        return parsed

    return list(itertools.chain.from_iterable(_in_two(parse, np.diff(starts))))
