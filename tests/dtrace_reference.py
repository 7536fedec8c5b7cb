""".dtrace reader with the per-row canonical decoder, frozen as the reference
for the fixed-width one.

``traceaug.traces.load_dtrace`` decodes a canonical cell field from its
16-bit cell words. This module keeps the earlier reader, unchanged: it
finds the digits of a field, reads a "-" before a digit as a sign and
accepts the result only if re-encoding it gives the field back. Every other
line goes through the per-token parser, which both readers share.
``tests/test_traces.py`` checks the two readers against each other, line
for line and error for error, so do not change this module's arithmetic.
"""

import numpy as np

from traceaug.traces import DirectionTrace, TraceFormatError, _parse_dtrace_tokens, fit_length

_HOLE = 0
_DTRACE_TOKENS = np.frombuffer(b"-1 \x000 \x001 ", dtype=np.uint8).reshape(3, 3)
_MINUS, _ONE = ord("-"), ord("1")


def _encode_cells(cells: np.ndarray) -> np.ndarray:
    slots = _DTRACE_TOKENS.take((cells + 1).astype(np.uint8), axis=0).ravel()
    return slots.compress(slots != _HOLE)


def _decode_canonical(field: bytes) -> np.ndarray | None:
    buf = np.frombuffer(field, dtype=np.uint8)
    digits = np.flatnonzero(buf > _MINUS)  # '0' and '1' sort above '-' and ' '
    cells = (buf[digits] == _ONE).astype(np.int8)
    cells[buf[digits - 1] == _MINUS] = -1
    if _encode_cells(cells)[:-1].tobytes() != field:
        return None
    return cells


def load_dtrace(path, trace_len: int | None = None) -> list[DirectionTrace]:
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
