import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceaug.rng import RandomSource, box_muller


def test_same_seed_same_stream():
    a = RandomSource(1234)
    b = RandomSource(1234)
    assert [a.uniform() for _ in range(50)] == [b.uniform() for _ in range(50)]


def test_scalar_and_vector_paths_agree():
    a = RandomSource(99)
    b = RandomSource(99)
    scalars = np.array([a.uniform() for _ in range(257)])
    assert np.array_equal(scalars, b.uniforms(257))


def test_interleaved_calls_continue_one_stream():
    a = RandomSource(7)
    b = RandomSource(7)
    mixed = [a.uniform()] + list(a.uniforms(4)) + [a.uniform()]
    assert mixed == list(b.uniforms(6))


def test_at_starts_after_the_given_draws():
    a = RandomSource(7)
    a.uniforms(5)
    b = RandomSource(7).at(5)
    assert b._count == 5
    assert np.array_equal(b.uniforms(4), a.uniforms(4))
    with pytest.raises(ValueError):
        RandomSource(7).at(-1)


def test_rewind_gives_back_the_unused_end_of_a_block():
    a = RandomSource(7)
    b = RandomSource(7)
    block = a.uniforms(10)
    a.rewind(6)
    assert a._count == 4
    assert np.array_equal(a.uniforms(6), block[4:])
    assert np.array_equal(block[:4], b.uniforms(4))
    for bad in (-1, 11):
        with pytest.raises(ValueError):
            RandomSource(7).rewind(bad)


def test_uniform_range_and_mean():
    u = RandomSource(3).uniforms(200_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.002


def test_randbelow_bounds_and_uniformity():
    r = RandomSource(11)
    draws = np.array([r.randbelow(5) for _ in range(50_000)])
    assert draws.min() == 0 and draws.max() == 4
    freqs = np.bincount(draws) / len(draws)
    assert np.all(np.abs(freqs - 0.2) < 0.01)


def test_randint_inclusive():
    r = RandomSource(0)
    draws = {r.randint(3, 5) for _ in range(200)}
    assert draws == {3, 4, 5}
    assert r.randint(2, 2) == 2


def test_randbelow_rejects_empty_range():
    with pytest.raises(ValueError):
        RandomSource(0).randbelow(0)


def test_spawn_children_are_independent_and_stable():
    root = RandomSource(42)
    again = RandomSource(42)
    assert np.array_equal(root.spawn(5).uniforms(10), again.spawn(5).uniforms(10))
    assert not np.array_equal(root.spawn(0).uniforms(10), root.spawn(1).uniforms(10))
    # spawning never advances the parent stream
    parent_draws = RandomSource(42).uniforms(5)
    root.spawn(17)
    assert np.array_equal(root.uniforms(5), parent_draws)


def test_box_muller_moments():
    u = RandomSource(8).uniforms(400_000)
    z = box_muller(u[0::2], u[1::2])
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(range(100))
    a, b = items[:], items[:]
    RandomSource(5).shuffle(a)
    RandomSource(5).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items


def scalar_shuffle(rng, items):
    """The scalar Fisher-Yates that RandomSource.shuffle replaced, frozen as
    the reference: one randbelow draw per position, from the end."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randbelow(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, 1000])
@pytest.mark.parametrize("kind", [list, np.array])
def test_block_shuffle_matches_scalar_reference(n, kind):
    for seed in (0, 17, 2**64 - 1):
        ref_rng, rng = RandomSource(seed), RandomSource(seed)
        ref_rng.uniforms(3)  # start mid-stream
        rng.uniforms(3)
        expected, got = kind(range(n)), kind(range(n))
        scalar_shuffle(ref_rng, expected)
        rng.shuffle(got)
        assert list(got) == list(expected)
        assert rng._count == ref_rng._count


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    n=st.sampled_from([0, 1, 500, 16384, 40000]),
    pick=st.integers(0, 2**32),
    p=st.one_of(
        st.sampled_from([0.0, 5e-324, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0]),
        st.floats(0.0, 1.0),
    ),
)
def test_below_equals_the_uniform_comparison(seed, n, pick, p):
    ref_rng, rng = RandomSource(seed), RandomSource(seed)
    u = ref_rng.uniforms(n)
    if n:  # also at a draw's own uniform and its float neighbours
        at = u[pick % n]
        p = [p, at, np.nextafter(at, 0.0), np.nextafter(at, 1.0)][pick % 4]
    np.testing.assert_array_equal(rng.below(n, p), u < p)
    assert rng._count == ref_rng._count
