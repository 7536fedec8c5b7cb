import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from traceaug.bursts import bursts_to_cells, extract_bursts, normalize_bursts
from traceaug.traces import DirectionTrace, fit_length


def assert_alternating(bursts):
    """No zero bursts, and adjacent bursts have opposite signs."""
    signs = np.sign(bursts)
    assert np.all(signs != 0) and np.all(signs[1:] != signs[:-1]), bursts.tolist()


def test_extract_basic_runs():
    t = DirectionTrace(np.array([1, 1, -1, -1, -1, 1, 0, 0]))
    assert extract_bursts(t).tolist() == [2, -3, 1]


def test_extract_single_direction():
    assert extract_bursts(np.array([-1, -1, -1])).tolist() == [-3]


def test_extract_all_zero():
    assert extract_bursts(np.zeros(3, dtype=np.int8)).tolist() == []


def test_extract_skips_leading_zeros():
    assert extract_bursts(np.array([0, 0, 1, -1, -1, 0])).tolist() == [1, -2]


def test_cells_round_trip_example():
    assert bursts_to_cells([2, -3, 1], 8).tolist() == [1, 1, -1, -1, -1, 1, 0, 0]


def test_cells_empty_bursts():
    assert bursts_to_cells([], 4).tolist() == [0, 0, 0, 0]


def test_cells_truncation():
    assert bursts_to_cells([-6], 4).tolist() == [-1, -1, -1, -1]


def test_normalize_merges_same_sign_and_drops_zeros():
    assert normalize_bursts([2, 3, -1, 0, -4, 5]).tolist() == [5, -5, 5]
    assert_alternating(normalize_bursts([2, 3, -1, 0, -4, 5]))


@st.composite
def suffix_zero_trace(draw, max_len=400):
    n = draw(st.integers(min_value=1, max_value=max_len))
    body = draw(
        st.lists(st.sampled_from([-1, 1]), min_size=1, max_size=n).map(np.array)
    )
    total = draw(st.integers(min_value=len(body), max_value=max_len))
    return DirectionTrace(fit_length(body, total))


@given(suffix_zero_trace())
@settings(max_examples=200, deadline=None)
def test_round_trip_property(trace):
    rebuilt = bursts_to_cells(extract_bursts(trace), len(trace))
    assert np.array_equal(rebuilt, trace.cells)


@given(suffix_zero_trace())
@settings(max_examples=200, deadline=None)
def test_extraction_invariants(trace):
    bursts = extract_bursts(trace)
    if len(bursts):
        assert_alternating(bursts)
    incoming = int(np.sum(trace.cells == -1))
    assert int(-bursts[bursts < 0].sum()) == incoming
