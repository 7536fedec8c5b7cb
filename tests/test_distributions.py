from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceaug.bursts import extract_bursts
from traceaug.distributions import (
    BurstSizeDistribution,
    EmptyDistributionFile,
    NoOutgoingBursts,
    build_distribution,
    load_bdist,
    save_bdist,
)
from traceaug.rng import RandomSource
from traceaug.traces import DirectionTrace


def trace_of(bursts, total=64):
    cells = np.concatenate([[np.sign(b)] * abs(b) for b in bursts])
    padded = np.zeros(total, dtype=np.int8)
    padded[: len(cells)] = cells
    return DirectionTrace(padded)


def test_build_from_single_trace():
    dist = build_distribution([trace_of([2, -3, 1])])
    assert dist.support.tolist() == [1, 2]
    assert dist.counts.tolist() == [1, 1]


def test_duplicate_traces_double_counts_same_probabilities():
    t = trace_of([2, -3, 1])
    once = build_distribution([t])
    twice = build_distribution([t, t])
    assert twice.counts.tolist() == (2 * once.counts).tolist()
    assert twice.total == 2 * once.total


def test_direct_frequencies():
    dist = build_distribution([trace_of([1, -2, 1, -2, 1, -2, 5, -2])])
    assert dist.support.tolist() == [1, 5]
    assert dist.counts.tolist() == [3, 1] and dist.total == 4


def test_no_outgoing_rejected():
    with pytest.raises(NoOutgoingBursts):
        build_distribution([trace_of([-5])])
    with pytest.raises(NoOutgoingBursts):
        BurstSizeDistribution(np.array([], dtype=int), np.array([], dtype=int))


def test_no_traces_rejected():
    with pytest.raises(NoOutgoingBursts, match="^no traces in corpus$"):
        build_distribution([])


@st.composite
def mixed_corpus(draw):
    """Traces of mixed lengths: each a run of leading zeros, its nonzero
    cells, then trailing zeros; some rows all zero, some empty."""
    corpus = []
    for _ in range(draw(st.integers(1, 8))):
        lead, tail = draw(st.integers(0, 5)), draw(st.integers(0, 5))
        live = draw(st.lists(st.sampled_from([-1, 1]), max_size=30))
        corpus.append(DirectionTrace(np.array([0] * lead + live + [0] * tail, dtype=np.int8)))
    return corpus


@settings(max_examples=200, deadline=None)
@given(corpus=mixed_corpus())
def test_equals_per_trace_histogram(corpus):
    """One encoding of the whole corpus counts what encoding each trace on
    its own counts: no burst runs on across a trace boundary."""
    sizes = np.concatenate([extract_bursts(t) for t in corpus])
    sizes = sizes[sizes > 0]
    runs = [len(list(g)) for t in corpus for k, g in groupby(t.cells[t.cells != 0]) if k > 0]
    assert sorted(sizes.tolist()) == sorted(runs)
    if not len(sizes):
        with pytest.raises(NoOutgoingBursts, match="^no outgoing bursts in corpus$"):
            build_distribution(corpus)
        return
    support, counts = np.unique(sizes, return_counts=True)
    dist = build_distribution(corpus)
    assert dist.support.tolist() == support.tolist()
    assert dist.counts.tolist() == counts.tolist()


def test_singleton_sampling():
    dist = BurstSizeDistribution(np.array([4]), np.array([1]))
    rng = RandomSource(0)
    assert all(dist.sample(rng) == 4 for _ in range(100))


def test_inverse_cdf_boundary():
    # u below the first cumulative bucket must return the first value
    dist = BurstSizeDistribution(np.array([1, 5]), np.array([3, 1]))

    class Scripted(RandomSource):
        def __init__(self, u):
            super().__init__(0)
            self._u = u

        def uniform(self):
            return self._u

    assert dist.sample(Scripted(0.74)) == 1
    assert dist.sample(Scripted(0.75)) == 5
    assert dist.sample(Scripted(0.0)) == 1
    assert dist.sample(Scripted(0.9999999)) == 5


def test_sampling_frequencies_concentrate():
    dist = BurstSizeDistribution(np.array([1, 5]), np.array([3, 1]))
    rng = RandomSource(123)
    draws = np.array([dist.sample(rng) for _ in range(100_000)])
    freq_one = np.mean(draws == 1)
    assert 0.74 <= freq_one <= 0.76


def test_samples_stay_in_support():
    dist = BurstSizeDistribution(np.array([2, 7, 9]), np.array([5, 1, 2]))
    rng = RandomSource(4)
    values = {dist.sample(rng) for _ in range(1000)}
    assert values <= {2, 7, 9}


def test_serialization_round_trip_exact(tmp_path):
    dist = BurstSizeDistribution(np.array([1, 3, 12]), np.array([10, 5, 1]))
    path = tmp_path / "sizes.bdist"
    save_bdist(path, dist)
    loaded = load_bdist(path)
    assert loaded.support.tolist() == dist.support.tolist()
    assert loaded.counts.tolist() == dist.counts.tolist()
    assert path.read_text().startswith("bdist v1\n")


@pytest.mark.parametrize("row, name", [("99999999999999999999999 1", "size"),
                                       ("3 -99999999999999999999999", "count"),
                                       ("3 9223372036854775808", "count")])
def test_value_outside_int64_names_its_line(tmp_path, row, name):
    path = tmp_path / "huge.bdist"
    path.write_text(f"bdist v1\n1 4\n{row}\n")
    with pytest.raises(EmptyDistributionFile, match=f"^line 3: {name} .* 64-bit integer"):
        load_bdist(path)


@pytest.mark.parametrize("counts", [[2**62, 2**62, 2**62], [2**63 - 1, 1], [9223372036854775000] * 2])
def test_counts_whose_total_passes_int64_refused(counts):
    """Each count fits in int64 but their total does not; the cumulative
    sum would wrap and skew every draw."""
    with pytest.raises(ValueError, match="counts' total does not fit in a 64-bit integer"):
        BurstSizeDistribution(np.arange(1, len(counts) + 1), np.array(counts))


def test_counts_whose_total_is_the_int64_maximum_accepted():
    dist = BurstSizeDistribution(np.array([1, 2]), np.array([2**62, 2**62 - 1]))
    assert dist.total == 2**63 - 1
