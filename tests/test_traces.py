import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dtrace_reference
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
