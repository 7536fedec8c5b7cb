import gc
import json
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dtrace_reference
from conftest import assert_no_child_left, open_fds, refused_fork
from traceaug import traces
from traceaug.rng import RandomSource
from traceaug.synth import INFERIOR_PROFILE, SUPERIOR_PROFILE, make_dataset, make_templates
from traceaug.traces import (
    DegenerateTrace,
    DirectionTrace,
    FilterPolicy,
    MissingLabel,
    TimedTrace,
    TraceFormatError,
    UNMONITORED,
    compute_ncm,
    filter_traces,
    fit_length,
    load_dtrace,
    load_ttrace,
    lower_median,
    partition_by_ncm,
    save_dtrace,
    save_ttrace,
    to_direction_trace,
)


def timed(times, directions, sizes=None, label=None):
    sizes = sizes if sizes is not None else [512] * len(times)
    return TimedTrace(
        times=np.array(times, dtype=float),
        directions=np.array(directions),
        sizes=np.array(sizes),
        label=label,
    )


class TestDirectionTrace:
    def test_rejects_out_of_range_direction(self):
        with pytest.raises(ValueError):
            DirectionTrace(np.array([1, 2, -1]))

    def test_rejects_interior_zero(self):
        with pytest.raises(ValueError):
            DirectionTrace(np.array([1, 0, -1]))

    def test_accepts_prefix_and_suffix_zeros(self):
        t = DirectionTrace(np.array([0, 0, 1, -1, 0, 0]))
        assert t.nonzero_count == 2

    @settings(max_examples=200, deadline=None)
    @given(cells=st.lists(st.sampled_from([-1, 0, 0, 1]), max_size=12))
    def test_zeros_rule_matches_the_nonzero_span(self, cells):
        nz = np.flatnonzero(cells)
        if len(nz) and nz[-1] - nz[0] + 1 != len(nz):
            with pytest.raises(ValueError, match="interrupt"):
                DirectionTrace(np.array(cells))
        else:
            DirectionTrace(np.array(cells, dtype=np.int8))

    def test_equality_includes_label(self):
        a = DirectionTrace(np.array([1, -1, 0]), label=3)
        b = DirectionTrace(np.array([1, -1, 0]), label=3)
        c = DirectionTrace(np.array([1, -1, 0]), label=4)
        assert a == b and a != c


class TestToDirectionTrace:
    def test_pads_short_trace(self):
        t = timed([0.0, 0.1, 0.2], [1, -1, -1])
        assert np.array_equal(to_direction_trace(t, 5).cells, [1, -1, -1, 0, 0])

    def test_truncates_long_trace(self):
        t = timed(np.arange(7) * 0.1, [1] * 7)
        assert np.array_equal(to_direction_trace(t, 5).cells, [1] * 5)

    def test_identity_length(self):
        directions = [1, -1] * 2500
        t = timed(np.arange(5000) * 1e-3, directions)
        assert np.array_equal(to_direction_trace(t, 5000).cells, directions)

    def test_idempotent_at_same_length(self):
        t = timed([0.0, 0.1, 0.2], [1, -1, -1], label=9)
        once = to_direction_trace(t, 8)
        again = DirectionTrace(fit_length(once.cells, 8), label=once.label)
        assert once == again
        assert once.label == 9

    def test_directions_checked_by_the_timed_trace_are_not_checked_again(self, monkeypatch):
        t = timed([0.0, 0.1, 0.2], [1, -1, -1], label=2)

        def check(self):
            raise AssertionError("checked again")

        monkeypatch.setattr(DirectionTrace, "__post_init__", check)
        got = to_direction_trace(t, 5)
        assert got.cells.dtype == np.int8 and got.label == 2
        assert np.array_equal(got.cells, [1, -1, -1, 0, 0])


class TestNcm:
    def test_forty_kbps_boundary_example(self):
        # 400 kB of incoming data over 10 s sits exactly at 40 kB/s
        n = 100
        times = np.linspace(0.0, 10.0, n)
        t = timed(times, [-1] * n, [4000] * n)
        assert compute_ncm(t) == 40000.0

    def test_all_outgoing_is_zero(self):
        t = timed([0.0, 5.0], [1, 1])
        assert compute_ncm(t) == 0.0

    def test_two_incoming_cells(self):
        t = timed([0.0, 1.0], [-1, -1], [512, 512])
        assert compute_ncm(t) == 1024.0

    def test_translation_invariance(self):
        base = timed([0.0, 0.5, 2.0], [-1, 1, -1])
        shifted = timed([100.0, 100.5, 102.0], [-1, 1, -1])
        assert compute_ncm(base) == compute_ncm(shifted)

    def test_sizes_whose_sum_wraps_int64_give_a_positive_ncm(self):
        """2**62 + 2**62 + 1 bytes over 2 s; an int64 sum wraps to -2**63 + 1."""
        t = timed([0, 1, 2], [-1, -1, -1], [2**62, 2**62, 1])
        assert compute_ncm(t) == pytest.approx(2**62)

    def test_degenerate_single_cell(self):
        with pytest.raises(DegenerateTrace):
            compute_ncm(timed([1.0], [-1]))

    def test_degenerate_zero_duration(self):
        with pytest.raises(DegenerateTrace):
            compute_ncm(timed([2.0, 2.0], [-1, -1]))


class TestPartition:
    def make(self, ncm_value):
        # two incoming cells, one second apart: NCM == total bytes
        return timed([0.0, 1.0], [-1, -1], [ncm_value // 2, ncm_value - ncm_value // 2])

    def test_boundary_goes_superior(self):
        superior, inferior = partition_by_ncm(
            [self.make(39999), self.make(40000), self.make(50000)], 40000
        )
        assert [compute_ncm(t) for t in superior] == [40000.0, 50000.0]
        assert [compute_ncm(t) for t in inferior] == [39999.0]

    def test_empty_input(self):
        assert partition_by_ncm([], 40000) == ([], [])

    def test_all_superior(self):
        traces = [self.make(41000)] * 3
        superior, inferior = partition_by_ncm(traces, 40000)
        assert len(superior) == 3 and inferior == []

    def test_disjoint_cover(self):
        traces = [self.make(30000 + 5000 * i) for i in range(6)]
        superior, inferior = partition_by_ncm(traces, 40000)
        assert len(superior) + len(inferior) == len(traces)
        assert {id(t) for t in superior} | {id(t) for t in inferior} == {id(t) for t in traces}

    def test_degenerate_raises_with_index(self):
        traces = [self.make(50000), timed([3.0, 3.0], [-1, -1])]
        with pytest.raises(DegenerateTrace) as info:
            partition_by_ncm(traces, 40000)
        assert info.value.index == 1

    def test_skipped_list_collects_degenerate_traces(self):
        degenerate = [timed([3.0, 3.0], [-1, -1]), timed([1.0], [-1])]
        traces = [self.make(50000), degenerate[0], self.make(30000), degenerate[1]]
        skipped = []
        superior, inferior = partition_by_ncm(traces, 40000, skipped)
        assert [compute_ncm(t) for t in superior] == [50000.0]
        assert [compute_ncm(t) for t in inferior] == [30000.0]
        assert [exc.index for exc in skipped] == [1, 3]
        assert all(isinstance(exc, DegenerateTrace) for exc in skipped)
        assert str(skipped[0]).startswith("trace 1: ")


def direction(n_nonzero, label, total=200):
    cells = np.zeros(total, dtype=np.int8)
    cells[:n_nonzero] = -1
    return DirectionTrace(cells, label=label)


class TestFilter:
    def test_closed_world_median_example(self):
        traces = [direction(s, label=0) for s in (100, 100, 100, 10)]
        kept = filter_traces(traces, FilterPolicy("closed-world", median_fraction=0.2))
        assert [t.nonzero_count for t in kept] == [100, 100, 100]

    def test_open_world_strict_less_than(self):
        traces = [direction(s, label=None) for s in (19, 20, 21)]
        kept = filter_traces(traces, FilterPolicy("open-world", min_cells=20))
        assert [t.nonzero_count for t in kept] == [20, 21]

    def test_empty_traces_removed_in_both_modes(self):
        empty = DirectionTrace(np.zeros(50, dtype=np.int8), label=0)
        rest = [direction(30, label=0), direction(40, label=0)]
        for policy in (FilterPolicy("closed-world"), FilterPolicy("open-world", min_cells=1)):
            kept = filter_traces([empty] + rest, policy)
            assert len(kept) == 2

    def test_closed_world_requires_labels(self):
        with pytest.raises(MissingLabel):
            filter_traces([direction(30, label=None)], FilterPolicy("closed-world"))

    def test_lower_median_for_even_counts(self):
        assert lower_median([10, 100]) == 10
        assert lower_median([1, 2, 3, 4]) == 2
        assert lower_median([5]) == 5

    def test_never_increases_counts_and_preserves_order(self):
        traces = [direction(s, label=s % 3) for s in range(21, 90, 7)]
        kept = filter_traces(traces, FilterPolicy("closed-world"))
        assert len(kept) <= len(traces)
        positions = [traces.index(t) for t in kept]
        assert positions == sorted(positions)

    def test_brute_force_oracle(self):
        # oracle: per-label sizes, sorted, lower-middle median, strict cutoff
        rng = np.random.default_rng(12)
        for _ in range(100):
            n = int(rng.integers(1, 30))
            traces = [
                direction(int(rng.integers(1, 120)), label=int(rng.integers(0, 4)))
                for _ in range(n)
            ]
            fraction = float(rng.uniform(0.1, 0.9))
            by_label = {}
            for t in traces:
                by_label.setdefault(t.label, []).append(t.nonzero_count)
            expected = []
            for t in traces:
                sizes = sorted(by_label[t.label])
                median = sizes[(len(sizes) - 1) // 2]
                if not t.nonzero_count < fraction * median:
                    expected.append(t)
            got = filter_traces(
                traces, FilterPolicy("closed-world", median_fraction=fraction)
            )
            assert got == expected


class TestDtraceFormat:
    def test_round_trip(self, tmp_path):
        traces = [
            DirectionTrace(np.array([1, -1, -1, 0, 0]), label=3),
            DirectionTrace(np.array([0, 1, -1, 0, 0]), label=UNMONITORED),
            DirectionTrace(np.array([-1, -1, 1, 1, 0]), label=None),
        ]
        path = tmp_path / "corpus.dtrace"
        save_dtrace(path, traces)
        assert load_dtrace(path) == traces

    def test_normalizes_to_requested_length(self, tmp_path):
        path = tmp_path / "corpus.dtrace"
        path.write_text("0\t1 -1 -1\n1\t1 1 1 1 1 1\n")
        loaded = load_dtrace(path, trace_len=4)
        assert np.array_equal(loaded[0].cells, [1, -1, -1, 0])
        assert np.array_equal(loaded[1].cells, [1, 1, 1, 1])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.dtrace"
        path.write_text("0\t1 -1\n0\t1 x -1\n")
        with pytest.raises(TraceFormatError) as info:
            load_dtrace(path)
        assert info.value.line_no == 2

    def test_out_of_range_direction_rejected(self, tmp_path):
        path = tmp_path / "bad.dtrace"
        path.write_text("0\t1 2 -1\n")
        with pytest.raises(TraceFormatError):
            load_dtrace(path)

    def test_non_ascii_byte_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.dtrace"
        path.write_bytes(b"0\t1 -1\n0\t1 \xc3\xa9 -1\n")
        with pytest.raises(TraceFormatError) as info:
            load_dtrace(path)
        assert info.value.line_no == 2


def oracle_dtrace_line(t: DirectionTrace) -> str:
    """The per-cell formatter the numpy writer replaced."""
    label = "" if t.label is None else str(int(t.label))
    return label + "\t" + " ".join(str(int(c)) for c in t.cells) + "\n"


def oracle_load_dtrace(path, trace_len=None):
    """The per-token text-mode reader the numpy reader replaced, as
    (label, cells) pairs."""
    loaded = []
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line:
                continue
            label_field, cell_field = line.split("\t", 1)
            label = None if label_field == "" else int(label_field)
            cells = np.array([int(tok) for tok in cell_field.split()], dtype=np.int64)
            loaded.append((label, fit_length(cells, trace_len) if trace_len else cells))
    return loaded


@st.composite
def direction_traces(draw):
    lead = draw(st.integers(0, 3))
    core = draw(st.lists(st.sampled_from([-1, 1]), max_size=40))
    trail = draw(st.integers(0, 3))
    label = draw(st.one_of(st.none(), st.just(UNMONITORED), st.integers(0, 10**6)))
    return DirectionTrace(np.array([0] * lead + core + [0] * trail), label=label)


#: cell tokens of the generated lines: canonical ones, weighted up, then
#: accepted variants and tokens that must be refused
DTRACE_TOKENS = [b"-1", b"0", b"1"] * 4 + [
    b"+1", b"01", b"-0", b"00", b"2", b"-", b"/", b"-2", b"1-1", b"x",
]
DTRACE_SEPARATORS = [b" "] * 6 + [b"  ", b"\t", b"\x0b", b" \t"]


class TestDtraceCodec:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(traces=st.lists(direction_traces(), max_size=6),
           trace_len=st.sampled_from([None, 1, 7, 50]))
    def test_writer_matches_oracle_and_reader_round_trips(self, tmp_path, traces, trace_len):
        path = tmp_path / "corpus.dtrace"
        save_dtrace(path, traces)
        assert path.read_bytes() == "".join(map(oracle_dtrace_line, traces)).encode("ascii")
        loaded = load_dtrace(path, trace_len=trace_len)
        expected = oracle_load_dtrace(path, trace_len=trace_len)
        assert [t.label for t in loaded] == [label for label, _ in expected]
        for t, (_, cells) in zip(loaded, expected):
            assert t.cells.dtype == np.int8 and np.array_equal(t.cells, cells)

    def test_canonical_lines_skip_the_per_token_parser(self, tmp_path, monkeypatch):
        traces = [
            DirectionTrace(np.array([0, 1, -1, -1, 1, 0]), label=12),
            DirectionTrace(np.array([-1, 1]), label=None),
            DirectionTrace(np.array([], dtype=np.int8), label=UNMONITORED),
        ]
        path = tmp_path / "corpus.dtrace"
        save_dtrace(path, traces)

        def refuse(line, line_no):
            raise AssertionError(f"line {line_no} took the per-token path")

        monkeypatch.setattr("traceaug.traces._parse_dtrace_tokens", refuse)
        assert load_dtrace(path) == traces

    @pytest.mark.parametrize("line", [
        b"3\t1\t-1\t0\n",          # tabs between cells
        b"3\t1  -1   0\n",           # repeated spaces
        b"3\t +1 -1 0 \n",           # explicit plus, leading and trailing space
        b"3\t01 -01 00\n",           # leading zeros in a token
        b"3\t1 -1 0\r\n",           # CRLF line end
        b" 3 \t1 -1 0\n",            # padded label
        b"\t1 -1 0\x0b\n",           # unlabeled, vertical tab
        b"-1\t\n",                  # no cells
    ])
    @pytest.mark.parametrize("trace_len", [None, 2, 6])
    def test_non_canonical_lines_parse_like_the_oracle(self, tmp_path, line, trace_len):
        path = tmp_path / "corpus.dtrace"
        path.write_bytes(b"5\t-1 1\n\n" + line + b"5\t0 1 -1\n")
        loaded = load_dtrace(path, trace_len=trace_len)
        expected = oracle_load_dtrace(path, trace_len=trace_len)
        assert [t.label for t in loaded] == [label for label, _ in expected]
        for t, (_, cells) in zip(loaded, expected):
            assert np.array_equal(t.cells, cells)

    @pytest.mark.parametrize("field", [
        b"1 x -1", b"1 2 -1", b"1 --1", b"1- -1", b"1 - -1", b"-", b"1 \xff",
        b"1 -1 99999999999999999999", b"1  -2", b"1 / -1", b"/",
    ])
    def test_bad_token_names_its_line(self, tmp_path, field):
        path = tmp_path / "bad.dtrace"
        path.write_bytes(b"0\t1 -1\n\n0\t" + field + b"\n0\t1\n")
        with pytest.raises(TraceFormatError) as info:
            load_dtrace(path)
        assert info.value.line_no == 3

    @pytest.mark.parametrize("line", [
        b"100000000000000000000000\t1 -1",    # canonical cells
        b"100000000000000000000000\t+1 -1",   # per-token parse
        b"9223372036854775808\t1 -1",
        b"-9223372036854775809\t1 -1",
    ])
    def test_label_past_int64_names_its_line(self, tmp_path, line):
        path = tmp_path / "bad.dtrace"
        path.write_bytes(b"0\t1 -1\n" + line + b"\n")
        with pytest.raises(TraceFormatError, match="64-bit") as info:
            load_dtrace(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("line", [b"x\t1 -1", b"\xff\t1 -1", b"1 -1", b"0\t1 0 -1"])
    def test_bad_label_layout_or_order_names_its_line(self, tmp_path, line):
        path = tmp_path / "bad.dtrace"
        path.write_bytes(b"0\t1 -1\n" + line + b"\n")
        with pytest.raises(TraceFormatError) as info:
            load_dtrace(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("line", [
        b"3\t0 1 -1 -1 1 0\n",     # canonical
        b"3\t+1 -1 0\n",            # explicit plus
        b"3\t01 -1 00\n",           # leading zeros
        b"3\t1\t-1\t0\n",           # tabs
        b"3\t1  -1   0\n",          # repeated spaces
        b"3\t1 -1 0\r\n",           # CRLF line end
        b"3\t\n",                   # empty cell field
        b"-1\t1 -1\n",              # unmonitored label
        b"\t1 -1 0\n",              # empty label: unlabeled
        b"3\t-0 1 -1\n",            # "-0" reads as 0, as int() reads it
    ])
    @pytest.mark.parametrize("trace_len", [None, 2, 6])
    def test_accepted_lines_read_as_the_per_row_reader_read_them(
        self, tmp_path, line, trace_len
    ):
        path = tmp_path / "corpus.dtrace"
        path.write_bytes(b"5\t-1 1\n\n" + line + b"5\t0 1 -1\n")
        expected = dtrace_reference.load_dtrace(path, trace_len)
        assert load_dtrace(path, trace_len) == expected
        assert len(expected) == 3

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(label=st.sampled_from([b"", b"-1", b"3", b"+2", b" 4", b"x", b"2"]),
           tokens=st.lists(st.sampled_from(DTRACE_TOKENS), max_size=12),
           seps=st.lists(st.sampled_from(DTRACE_SEPARATORS), min_size=12, max_size=12),
           end=st.sampled_from([b"\n", b"\r\n"]),
           trace_len=st.sampled_from([None, 3, 8]))
    def test_any_line_reads_or_fails_as_the_per_row_reader_did(
        self, tmp_path, label, tokens, seps, end, trace_len
    ):
        field = b"".join(t + s for t, s in zip(tokens, seps))
        field = field[: -len(seps[len(tokens) - 1])] if tokens else field
        path = tmp_path / "corpus.dtrace"
        path.write_bytes(b"5\t-1 1\n" + label + b"\t" + field + end + b"5\t0 1 -1\n")

        def outcome(reader):
            try:
                return reader(path, trace_len)
            except TraceFormatError as exc:
                return f"error at line {exc.line_no}"

        assert outcome(load_dtrace) == outcome(dtrace_reference.load_dtrace)

    def test_trace_len_truncates_and_pads(self, tmp_path):
        path = tmp_path / "corpus.dtrace"
        save_dtrace(path, [
            DirectionTrace(np.array([0, 1, -1, -1, 1, 0]), label=12),
            DirectionTrace(np.array([], dtype=np.int8), label=None),
        ])
        short, empty = load_dtrace(path, trace_len=4)
        assert np.array_equal(short.cells, [0, 1, -1, -1]) and short.label == 12
        assert np.array_equal(empty.cells, [0, 0, 0, 0]) and empty.label is None
        long, empty = load_dtrace(path, trace_len=9)
        assert np.array_equal(long.cells, [0, 1, -1, -1, 1, 0, 0, 0, 0])
        assert np.array_equal(empty.cells, np.zeros(9))
        full, empty = load_dtrace(path)
        assert len(full) == 6 and len(empty) == 0


class TestTtraceFormat:
    def test_bit_exact_round_trip(self, tmp_path):
        times = np.array([0.1, 0.30000000000000004, 1.0 / 3.0, 2.718281828459045])
        t = timed(times, [1, -1, -1, 1], [512, 514, 512, 512], label=7)
        path = tmp_path / "corpus.ttrace"
        save_ttrace(path, [t])
        loaded = load_ttrace(path)[0]
        assert np.array_equal(loaded.times, times)  # exact, not approximate
        assert np.array_equal(loaded.directions, t.directions)
        assert np.array_equal(loaded.sizes, t.sizes)
        assert loaded.label == 7

    def test_unlabeled_round_trip(self, tmp_path):
        t = timed([0.0, 1.0], [-1, 1])
        path = tmp_path / "corpus.ttrace"
        save_ttrace(path, [t])
        assert load_ttrace(path)[0].label is None

    @pytest.mark.parametrize("stamp", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_timestamp_reports_line(self, tmp_path, stamp):
        # json reads these tokens as floats; the trace itself must refuse them
        path = tmp_path / "bad.ttrace"
        path.write_text(
            '{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}\n'
            f'{{"label":1,"cells":[[0.0,-1,512],[{stamp},1,512]]}}\n'
        )
        with pytest.raises(TraceFormatError, match="finite") as info:
            load_ttrace(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("label", ["1.5", "true", "false", '"7"', "[1]", "{}"])
    def test_non_integer_label_reports_line(self, tmp_path, label):
        path = tmp_path / "bad.ttrace"
        path.write_text(
            '{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}\n'
            f'{{"label":{label},"cells":[[0.0,-1,512],[1.0,-1,512]]}}\n'
        )
        with pytest.raises(TraceFormatError, match="integer or null") as info:
            load_ttrace(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("label, expected", [("-1", -1), ("12", 12), ("null", None)])
    def test_integer_or_null_label_loads(self, tmp_path, label, expected):
        path = tmp_path / "corpus.ttrace"
        path.write_text(f'{{"label":{label},"cells":[[0.0,-1,512],[1.0,-1,512]]}}\n')
        assert load_ttrace(path)[0].label == expected

    @pytest.mark.parametrize("cells", [
        "[[0.0,-1,512],[1.0,-1,100000000000000000000000]]",  # size past int64
        "[[0.0,-1,512],[1.0,300,512]]",                       # direction past int8
    ])
    def test_oversized_integer_reports_line(self, tmp_path, cells):
        path = tmp_path / "bad.ttrace"
        path.write_text(
            '{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}\n'
            f'{{"label":1,"cells":{cells}}}\n'
        )
        with pytest.raises(TraceFormatError) as info:
            load_ttrace(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("label", [str(10**23), str(2**63), str(-(2**63) - 1)])
    def test_label_past_int64_reports_line(self, tmp_path, label):
        path = tmp_path / "bad.ttrace"
        path.write_text(
            '{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}\n'
            f'{{"label":{label},"cells":[[0.0,-1,512],[1.0,-1,512]]}}\n'
        )
        with pytest.raises(TraceFormatError, match="64-bit") as info:
            load_ttrace(path)
        assert info.value.line_no == 2

    def test_int64_extreme_labels_load(self, tmp_path):
        path = tmp_path / "corpus.ttrace"
        path.write_text("".join(
            f'{{"label":{label},"cells":[[0.0,-1,512],[1.0,-1,512]]}}\n'
            for label in (2**63 - 1, -(2**63))
        ))
        assert [t.label for t in load_ttrace(path)] == [2**63 - 1, -(2**63)]

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "bad.ttrace"
        path.write_text('{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}\nnot json\n')
        with pytest.raises(TraceFormatError) as info:
            load_ttrace(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("cells, bad", [
        ("[[0.0,-1,512],[1.0,1.5,512]]", "1.5"),     # a direction that is a float
        ("[[0.0,-1,512],[1.0,-1,512.9]]", "512.9"),  # a size that is a float
        ("[[0.0,-1,512],[1.0,true,512]]", "True"),   # a direction that is a bool
        ("[[0.0,-1,512],[1.0,-1,true]]", "True"),    # a size that is a bool
        ("[[0.0,-1,512],[1.0,-1.0,512]]", "-1.0"),   # a float that equals an integer
        ("[[0.0,[-1],512],[1.0,[1],512]]", "[-1]"),  # lists
    ])
    def test_non_integer_direction_or_size_reports_line(self, tmp_path, cells, bad):
        # json reads these as floats, bools or lists; numpy would cast them
        path = tmp_path / "bad.ttrace"
        path.write_text(
            '{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}\n'
            f'{{"label":1,"cells":{cells}}}\n'
        )
        with pytest.raises(TraceFormatError, match=f"64-bit integers, got {re.escape(bad)}") as info:
            load_ttrace(path)
        assert info.value.line_no == 2

    def test_non_ascii_byte_reports_line(self, tmp_path):
        path = tmp_path / "bad.ttrace"
        path.write_bytes(b'{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}\n'
                         b'{"label":1,"cells":[[0.0,-1,512]],"note":"\xe9"}\n')
        with pytest.raises(TraceFormatError, match="ascii") as info:
            load_ttrace(path)
        assert info.value.line_no == 2

    @pytest.mark.parametrize("ends", [b"\r\n", b"\r"])
    def test_cr_line_ends_count_lines_as_text_mode_does(self, tmp_path, ends):
        path = tmp_path / "crlf.ttrace"
        good = b'{"label":0,"cells":[[0.0,-1,512],[1.0,-1,512]]}'
        path.write_bytes(ends.join([good, good, b"not json", b""]))
        with pytest.raises(TraceFormatError) as info:
            load_ttrace(path)
        assert info.value.line_no == 3
        path.write_bytes(ends.join([good, good, b""]))
        assert [t.label for t in load_ttrace(path)] == [0, 0]

    def test_nested_timestamps_report_line(self, tmp_path):
        path = tmp_path / "bad.ttrace"
        path.write_text('{"label":0,"cells":[[[0.0],-1,512],[[1.0],-1,512]]}\n')
        with pytest.raises(TraceFormatError, match="one-dimensional") as info:
            load_ttrace(path)
        assert info.value.line_no == 1


class within:
    """Raises TimeoutError in the block after ``seconds``, so that a call
    that would wait forever fails its test instead of holding the suite."""

    def __init__(self, seconds: float):
        self.seconds = seconds

    def __enter__(self):
        def expired(*_):
            raise TimeoutError(f"still waiting after {self.seconds} s")

        self.previous = signal.signal(signal.SIGALRM, expired)
        signal.setitimer(signal.ITIMER_REAL, self.seconds)

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)


def corpus_lines(count: int) -> list[str]:
    """``count`` valid .ttrace lines of 1 to 40 cells, with labels, null
    labels and timestamps that round-trip only at full precision."""
    rng = np.random.default_rng(count)
    lines = []
    for k in range(count):
        n = 1 + k * 7 % 40
        times = np.cumsum(rng.exponential(0.01, n))
        cells = [[float(t), int(d), int(s)] for t, d, s in
                 zip(times, rng.choice([-1, 1], n), rng.integers(1, 2**40, n))]
        label = None if k % 5 == 0 else k % 7 - 1
        lines.append(json.dumps({"label": label, "cells": cells}, separators=(",", ":")))
    return lines


def corpus(count: int) -> list[TimedTrace]:
    return [TimedTrace(*map(np.array, zip(*record["cells"])), label=record["label"])
            for record in map(json.loads, corpus_lines(count))]


def assert_same_traces(loaded, expected):
    assert len(loaded) == len(expected)
    for a, b in zip(loaded, expected):
        assert a.label == b.label
        for name in ("times", "directions", "sizes"):
            x, y = getattr(a, name), getattr(b, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
            assert x.flags.writeable


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestTtraceHelper:
    """save_ttrace and load_ttrace share a file's chunks of lines with a
    forked helper; the bytes and arrays are those of doing it all in one
    process, and no helper outlives the call."""

    @pytest.fixture(autouse=True)
    def split_small_files(self, monkeypatch):
        monkeypatch.setattr(traces, "_SPLIT_LINES", 2)

    def forks(self, monkeypatch) -> list:
        """The pids of the helpers forked from here on."""
        pids, fork = [], os.fork

        def recorded():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recorded)
        return pids

    def in_helper(self, monkeypatch, module, name, act):
        """Call ``act()`` in place of ``module.name`` in a helper; returns the
        number of calls made in this process."""
        here, real, calls = os.getpid(), getattr(module, name), []

        def fake(*args, **kwargs):
            if os.getpid() != here:
                act()
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, name, fake)
        return calls

    def test_split_from_split_lines_lines(self, monkeypatch, tmp_path):
        forks = self.forks(monkeypatch)
        monkeypatch.setattr(traces, "_SPLIT_LINES", 9)
        save_ttrace(tmp_path / "eight.ttrace", corpus(8))
        load_ttrace(tmp_path / "eight.ttrace")  # nine lines with the last, empty one
        assert len(forks) == 1
        save_ttrace(tmp_path / "nine.ttrace", corpus(9))
        assert len(forks) == 2

    @pytest.mark.parametrize("count", [2, 3, 17])
    def test_bytes_and_arrays_equal_the_one_process_ones(self, count, monkeypatch, tmp_path):
        forks = self.forks(monkeypatch)
        traces_in = corpus(count)
        save_ttrace(tmp_path / "forked.ttrace", traces_in)
        loaded = load_ttrace(tmp_path / "forked.ttrace")
        assert len(forks) == 2
        monkeypatch.delattr(os, "fork")
        save_ttrace(tmp_path / "one.ttrace", traces_in)
        forked_bytes = (tmp_path / "forked.ttrace").read_bytes()
        assert forked_bytes == (tmp_path / "one.ttrace").read_bytes()
        assert forked_bytes == ("\n".join(corpus_lines(count)) + "\n").encode()
        assert_same_traces(loaded, load_ttrace(tmp_path / "one.ttrace"))
        assert_same_traces(loaded, traces_in)

    def test_cli_corpus_equals_the_one_process_one(self, monkeypatch, tmp_path):
        """The CLI benchmark's corpus (20 classes, 27 and 6 visits a class),
        split where its own size says."""
        monkeypatch.undo()
        rng = RandomSource(7)
        dataset = make_dataset(make_templates(20, rng.spawn(0)),
                               [SUPERIOR_PROFILE, INFERIOR_PROFILE], [27, 6], rng.spawn(1))
        forks = self.forks(monkeypatch)
        save_ttrace(tmp_path / "forked.ttrace", dataset)
        loaded = load_ttrace(tmp_path / "forked.ttrace")
        assert len(forks) == 2
        monkeypatch.delattr(os, "fork")
        save_ttrace(tmp_path / "one.ttrace", dataset)
        assert (tmp_path / "forked.ttrace").read_bytes() == (tmp_path / "one.ttrace").read_bytes()
        assert_same_traces(loaded, load_ttrace(tmp_path / "one.ttrace"))

    @pytest.mark.parametrize("end", ["raises", "is killed", "stalls"])
    def test_failed_helper_leaves_its_chunks_here(self, end, monkeypatch, tmp_path):
        expected = corpus(17)
        save_ttrace(tmp_path / "one.ttrace", expected)
        act = {"raises": lambda: 1 / 0,
               "is killed": lambda: os.kill(os.getpid(), signal.SIGKILL),
               "stalls": lambda: time.sleep(3600)}[end]
        encoded = self.in_helper(monkeypatch, json, "dumps", act)
        with within(60):
            save_ttrace(tmp_path / "forked.ttrace", expected)
        assert len(encoded) == 17  # every line was encoded here
        assert (tmp_path / "forked.ttrace").read_bytes() == (tmp_path / "one.ttrace").read_bytes()
        parsed = self.in_helper(monkeypatch, json, "loads", act)
        with within(60):
            assert_same_traces(load_ttrace(tmp_path / "forked.ttrace"), expected)
        assert len(parsed) == 17
        assert_no_child_left()

    def test_short_result_leaves_its_chunks_here(self, monkeypatch):
        """A helper that dies as it sends its result sends part of it; the
        caller, held in its first chunk until then, makes what it lacks."""
        here = os.getpid()
        sent_r, sent_w = os.pipe()

        def dying_send(fd, made):  # the full length, then part of the result
            data = pickle.dumps(made)
            os.write(fd, len(data).to_bytes(8, "little") + data[: len(data) // 2])
            os.write(sent_w, b"x")
            os.kill(os.getpid(), signal.SIGKILL)

        def work(first, stop):
            if first == 0 and os.getpid() == here:
                select.select([sent_r], [], [], 60)
            return bytes([first]) * 1000

        monkeypatch.setattr(traces, "_send", dying_send)
        try:
            with within(60):
                parts = traces._in_two(work, [1, 1, 1, 1])
            assert select.select([sent_r], [], [], 0)[0]  # the helper did send
        finally:
            os.close(sent_r)
            os.close(sent_w)
        assert parts == [bytes([c]) * 1000 for c in range(4)]
        assert_no_child_left()

    def test_stalled_helper_is_not_waited_for(self):
        """A helper that claims a chunk and never finishes it is waited for
        no longer than this process took over its own chunks, then killed;
        this process makes the chunk."""
        here = os.getpid()
        claimed_r, claimed_w = os.pipe()

        def work(first, stop):
            if os.getpid() != here:
                os.write(claimed_w, b"x")
                time.sleep(3600)
            elif first == 0:  # until the helper has claimed its chunk
                select.select([claimed_r], [], [], 60)
            return [first]

        try:
            with within(60):
                parts = traces._in_two(work, [1, 1, 1, 1])
        finally:
            os.close(claimed_r)
            os.close(claimed_w)
        assert parts == [[0], [1], [2], [3]]
        assert_no_child_left()

    def test_slow_helper_leaves_more_chunks_here(self):
        """The two processes meet where their speeds put them: with a helper
        that takes 0.3 s a chunk, this process makes most of the 16."""
        here, made_here = os.getpid(), []

        def work(first, stop):
            if os.getpid() == here:
                made_here.append(first)
            else:
                time.sleep(0.3)
            return list(range(first, stop))

        assert traces._in_two(work, [1] * 16) == [[k] for k in range(16)]
        assert len(made_here) > 8
        assert_no_child_left()

    @pytest.mark.parametrize("bad_lines", [[2], [16], [3, 15]])
    def test_bad_line_raises_as_in_one_process(self, bad_lines, monkeypatch, tmp_path):
        """Bad lines in the caller's half, the helper's half or both: the
        first of them is named, as the one-process reader names it."""
        lines = corpus_lines(17)
        for line_no in bad_lines:  # a first cell whose direction is true
            lines[line_no - 1] = lines[line_no - 1].replace(
                '"cells":[', '"cells":[[0.0,true,512],', 1)
        path = tmp_path / "bad.ttrace"
        path.write_text("\n".join(lines) + "\n")
        forks = self.forks(monkeypatch)
        with pytest.raises(TraceFormatError) as forked:
            load_ttrace(path)
        assert len(forks) == 1
        monkeypatch.delattr(os, "fork")
        with pytest.raises(TraceFormatError) as one:
            load_ttrace(path)
        assert forked.value.line_no == one.value.line_no == bad_lines[0]
        assert str(forked.value) == str(one.value)
        assert_no_child_left()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
    @pytest.mark.parametrize("end", ["return", "bad line here", "bad line in helper",
                                     "killed helper", "stalled helper", "refused fork"])
    def test_no_child_or_descriptor_left(self, end, monkeypatch, tmp_path):
        path = tmp_path / "corpus.ttrace"
        lines = corpus_lines(17)
        if end.startswith("bad line"):
            line_no = 2 if end == "bad line here" else 16
            lines[line_no - 1] = "not json"
        path.write_text("\n".join(lines) + "\n")
        if end == "killed helper":
            self.in_helper(monkeypatch, json, "loads",
                           lambda: os.kill(os.getpid(), signal.SIGKILL))
        elif end == "stalled helper":
            self.in_helper(monkeypatch, json, "loads", lambda: time.sleep(3600))
        elif end == "refused fork":
            monkeypatch.setattr(os, "fork", refused_fork)
        before = open_fds()
        if end.startswith("bad line"):
            with pytest.raises(TraceFormatError):
                load_ttrace(path)
        else:
            save_ttrace(tmp_path / "again.ttrace", load_ttrace(path))
        assert open_fds() == before
        assert_no_child_left()
        assert gc.isenabled()

    def test_helper_flushes_no_buffer_of_the_caller(self, tmp_path):
        """stdout to a pipe is block-buffered: a helper that flushed it on
        its way out would print the caller's pending text a second time."""
        script = (
            "import json, os, sys, time; sys.path[:0] = sys.argv[1:2]\n"
            "from traceaug import traces\n"
            "traces._SPLIT_LINES = 2\n"
            "here, dumps, loads = os.getpid(), json.dumps, json.loads\n"
            "def slow_here(real):  # so that the helper makes some of the chunks\n"
            "    def call(*args, **kwargs):\n"
            "        if os.getpid() == here:\n"
            "            time.sleep(0.1)\n"
            "        return real(*args, **kwargs)\n"
            "    return call\n"
            "json.dumps, json.loads = slow_here(dumps), slow_here(loads)\n"
            "ts = [traces.TimedTrace([0.0, 1.0], [1, -1], [512, 512], k) for k in range(4)]\n"
            "print('pending', end='')\n"
            "traces.save_ttrace(sys.argv[2], ts)\n"
            "assert len(traces.load_ttrace(sys.argv[2])) == 4\n"
        )
        src = str(Path(traces.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        out = subprocess.run([sys.executable, "-c", script, src, str(tmp_path / "x.ttrace")],
                             capture_output=True, text=True, check=True, env=env)
        assert out.stdout == "pending"
