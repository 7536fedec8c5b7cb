import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from traceaug.augment import (
    AugmentConfig,
    EmptyDistribution,
    TraceTooShort,
    flip_augment,
    insert_outgoing_bursts,
    merge_incoming_bursts,
    modify_incoming_burst_sizes,
    net_augment,
)
from traceaug.bursts import extract_bursts, normalize_bursts
from traceaug.distributions import BurstSizeDistribution
from traceaug.rng import RandomSource
from traceaug.traces import DirectionTrace, fit_length


def singleton_dist(size=4):
    return BurstSizeDistribution(np.array([size]), np.array([1]))


def random_trace(rng, n_nonzero, total=500):
    cells = np.where(rng.random(n_nonzero) < 0.7, -1, 1).astype(np.int8)
    return DirectionTrace(fit_length(cells, total))


#: raw draws whose uniforms are 0.0 (every rate fires) and 1 - 2**-53 (no
#: rate below 1 fires)
FIRE, HOLD = 0, 2**64 - 1


def slots(*rows):
    """Explicit per-burst slot triples of raw draws."""
    return np.array(rows, dtype=np.uint64).reshape(-1, 3)


def random_slots(n, seed):
    return np.random.default_rng(seed).integers(0, 2**64, size=(n, 3), dtype=np.uint64)


def one_row(bursts):
    """The stages' row of each burst when all bursts belong to one trace."""
    return np.zeros(len(bursts), dtype=np.int64)


IDENTITY_CFG = AugmentConfig(
    shift_max=0, r_insert=0.0, r_merge=0.0, burst_size_threshold=10**9
)


class TestModify:
    def test_short_trace_forces_upsample(self):
        # below the low-cell bound every qualifying burst must grow, whatever
        # the (odd, downsampling) direction draw says
        cfg = AugmentConfig()
        bursts = np.array([-20, 5, -30])
        out = modify_incoming_burst_sizes(bursts, 900, cfg, 1, random_slots(3, 0))
        assert out[0] <= -20 and out[2] <= -30
        assert out[1] == 5

    def test_long_trace_forces_downsample(self):
        cfg = AugmentConfig()
        bursts = np.array([-20, 5, -30])
        out = modify_incoming_burst_sizes(bursts, 4500, cfg, 0, random_slots(3, 0))
        assert -20 <= out[0] <= -1 and -30 <= out[2] <= -1

    def test_direction_draw_decides_between_the_bounds(self):
        cfg = AugmentConfig(r_upsample=1.0, r_downsample=0.5)
        bursts, draws = np.array([-20]), slots(HOLD, 0, 0)
        assert modify_incoming_burst_sizes(bursts, 2000, cfg, 6, draws).tolist() == [-40]
        assert modify_incoming_burst_sizes(bursts, 2000, cfg, 7, draws).tolist() == [-10]

    def test_small_burst_skipped(self):
        cfg = AugmentConfig()  # threshold 10
        out = modify_incoming_burst_sizes(np.array([-8]), 900, cfg, 0, random_slots(1, 0))
        assert out.tolist() == [-8]

    def test_threshold_boundary_included(self):
        cfg = AugmentConfig(r_upsample=1.0)
        out = modify_incoming_burst_sizes(np.array([-10]), 900, cfg, 0, slots(HOLD, 0, 0))
        assert out.tolist() == [-20]

    def test_exact_scaling_arithmetic(self):
        # u -> 1, delta = +1 doubles the burst: -20 -> -40; u = 0 keeps it
        cfg = AugmentConfig(r_upsample=1.0)
        out = modify_incoming_burst_sizes(
            np.array([-20, -20]), 900, cfg, 0, slots((HOLD, 0, 0), (FIRE, 0, 0))
        )
        assert out.tolist() == [-40, -20]

    def test_magnitude_floor_no_vanish_or_flip(self):
        cfg = AugmentConfig(r_downsample=1.0, burst_size_threshold=1)
        out = modify_incoming_burst_sizes(
            np.array([-1, -2]), 4500, cfg, 0, slots((HOLD, 0, 0), (HOLD, 0, 0))
        )
        assert out.tolist() == [-1, -1]

    def test_outgoing_untouched(self):
        cfg = AugmentConfig(burst_size_threshold=1)
        out = modify_incoming_burst_sizes(np.array([50, -50, 50]), 900, cfg, 0, random_slots(3, 2))
        assert out[0] == 50 and out[2] == 50


class TestInsert:
    def test_rate_zero_is_identity(self):
        cfg = AugmentConfig(r_insert=0.0)
        bursts = np.array([-10, 3, -20])
        out, _ = insert_outgoing_bursts(
            bursts, one_row(bursts), cfg, singleton_dist(), slots(*[(FIRE, 0, 0)] * 3)
        )
        assert out.tolist() == bursts.tolist()

    def test_split_structure_and_preservation(self):
        cfg = AugmentConfig(r_insert=1.0)
        dist = singleton_dist(4)
        for seed in range(20):
            out, _ = insert_outgoing_bursts(
                np.array([-10]), one_row([-10]), cfg, dist, random_slots(1, seed)
            )
            assert len(out) == 3
            p, s, r = out
            assert s == 4 and 3 <= -p <= 7 and p + r == -10

    def test_slots_pick_size_and_position(self):
        # size at u = 0.5 of {1: 1, 5: 1}; position 3 + 9 mod (12 - 5) = 5
        dist = BurstSizeDistribution(np.array([1, 5]), np.array([1, 1]))
        half = 2**63
        out, _ = insert_outgoing_bursts(
            np.array([-12]), one_row([-12]), AugmentConfig(), dist, slots(FIRE, half, 9)
        )
        assert out.tolist() == [-5, 5, -7]

    def test_small_bursts_never_split(self):
        cfg = AugmentConfig(r_insert=1.0)
        out, _ = insert_outgoing_bursts(
            np.array([-6, 2, -5]), one_row([-6, 2, -5]), cfg, singleton_dist(), random_slots(3, 0)
        )
        assert out.tolist() == [-6, 2, -5]

    def test_incoming_count_preserved_summation_oracle(self):
        cfg = AugmentConfig(r_insert=0.7)
        rng = np.random.default_rng(5)
        for trial in range(50):
            sizes = -rng.integers(1, 60, size=20)
            sizes[::2] = rng.integers(1, 6, size=10)  # alternate outgoing
            bursts = normalize_bursts(sizes)
            out, _ = insert_outgoing_bursts(
                bursts, one_row(bursts), cfg, singleton_dist(), random_slots(len(bursts), trial)
            )
            assert out[out < 0].sum() == bursts[bursts < 0].sum()

    def test_empty_distribution_rejected(self):
        trace = DirectionTrace(fit_length(np.full(30, -1), 40))
        with pytest.raises(EmptyDistribution):
            net_augment(trace, AugmentConfig(), None, RandomSource(0))


class TestMerge:
    def test_rate_zero_is_identity(self):
        cfg = AugmentConfig(r_merge=0.0)
        bursts = np.array([-3, 2, -4, 1, -5])
        out, _ = merge_incoming_bursts(bursts, one_row(bursts), cfg, slots(*[(FIRE, 0, 0)] * 5))
        assert out.tolist() == bursts.tolist()

    def test_hand_enumerated_merge(self):
        # the first incoming burst merges k = 2 bursts; the second incoming
        # burst would fire too, but the group has swallowed it
        draws = slots((FIRE, 0, 0), (HOLD, 0, 0), (FIRE, 0, 0), (HOLD, 0, 0), (HOLD, 0, 0))
        bursts = np.array([-3, 2, -4, 1, -5])
        out, _ = merge_incoming_bursts(bursts, one_row(bursts), AugmentConfig(), draws)
        assert out.tolist() == [-7, 1, -5]
        assert out[out < 0].sum() == -12

    def test_group_size_slot(self):
        # k = 2 + 5 mod (n_merge - 1) = 3 with n_merge = 5; the other bursts'
        # second slots would fire if they were read as the fire decision
        draws = slots((FIRE, 5, 0), *[(HOLD, 0, 0)] * 8)
        bursts = np.array([-1, 2, -3, 4, -5, 6, -7, 8, -9])
        out, _ = merge_incoming_bursts(bursts, one_row(bursts), AugmentConfig(), draws)
        assert out.tolist() == [-9, 6, -7, 8, -9]

    def test_single_burst_merge_is_noop(self):
        cfg = AugmentConfig(r_merge=1.0)
        out, _ = merge_incoming_bursts(np.array([-4]), one_row([-4]), cfg, random_slots(1, 0))
        assert out.tolist() == [-4]

    def test_incoming_preserved_outgoing_never_grows(self):
        cfg = AugmentConfig(r_merge=0.5)
        rng = np.random.default_rng(9)
        for trial in range(50):
            sizes = list(rng.integers(1, 8, size=15))
            sizes[1::2] = (-rng.integers(1, 40, size=7)).tolist()
            bursts = normalize_bursts(sizes)
            out, _ = merge_incoming_bursts(
                bursts, one_row(bursts), cfg, random_slots(len(bursts), trial)
            )
            assert out[out < 0].sum() == bursts[bursts < 0].sum()
            assert out[out > 0].sum() <= bursts[bursts > 0].sum()


class TestNetAugment:
    def test_identity_configuration(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, 200)
        out = net_augment(trace, IDENTITY_CFG, singleton_dist(), RandomSource(7))
        assert out == trace

    def test_prefix_preserved_at_zero_shift(self):
        cfg = AugmentConfig(shift_max=0)
        rng = np.random.default_rng(1)
        for seed in range(50):
            trace = random_trace(rng, int(rng.integers(30, 450)))
            out = net_augment(trace, cfg, singleton_dist(), RandomSource(seed))
            assert np.array_equal(out.cells[:20], trace.cells[:20])

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(2)
        trace = random_trace(rng, 300)
        cfg = AugmentConfig()
        dist = singleton_dist()
        a = net_augment(trace, cfg, dist, RandomSource(42))
        b = net_augment(trace, cfg, dist, RandomSource(42))
        assert a == b

    def test_too_short_rejected(self):
        trace = DirectionTrace(fit_length(np.ones(20), 100))
        with pytest.raises(TraceTooShort):
            net_augment(trace, AugmentConfig(), singleton_dist(), RandomSource(0))

    def test_shift_adds_leading_zeros_on_full_length_traces(self):
        # identity manipulation isolates the shift: the output must be the
        # input slid right by some n <= shift_max
        rng = np.random.default_rng(3)
        trace = random_trace(rng, 500, total=500)
        cfg = AugmentConfig(
            shift_max=10, r_insert=0.0, r_merge=0.0, burst_size_threshold=10**9
        )
        seen = set()
        for seed in range(40):
            out = net_augment(trace, cfg, singleton_dist(), RandomSource(seed))
            n = int(np.argmax(out.cells != 0)) if out.cells[0] == 0 else 0
            assert 0 <= n <= cfg.shift_max
            assert np.array_equal(out.cells[n:], trace.cells[: len(trace) - n])
            seen.add(n)
        assert len(seen) > 3  # the draw actually varies

    def test_output_length_fixed(self):
        rng = np.random.default_rng(4)
        cfg = AugmentConfig()
        dist = singleton_dist()
        for seed in range(30):
            trace = random_trace(rng, int(rng.integers(25, 500)))
            out = net_augment(trace, cfg, dist, RandomSource(seed))
            assert len(out) == len(trace)

    def test_label_carried(self):
        rng = np.random.default_rng(5)
        trace = DirectionTrace(random_trace(rng, 100).cells, label=13)
        out = net_augment(trace, AugmentConfig(), singleton_dist(), RandomSource(1))
        assert out.label == 13

    def test_output_burst_structure_valid(self):
        rng = np.random.default_rng(6)
        cfg = AugmentConfig()
        dist = singleton_dist()
        for seed in range(50):
            trace = random_trace(rng, int(rng.integers(25, 480)))
            out = net_augment(trace, cfg, dist, RandomSource(seed))
            bursts = extract_bursts(out)
            signs = np.sign(bursts)  # nonzero and alternating
            assert np.all(signs != 0) and np.all(signs[1:] != signs[:-1])


class TestFlipAugment:
    def test_zero_probability_is_identity(self):
        rng = np.random.default_rng(0)
        trace = random_trace(rng, 100)
        assert flip_augment(trace, 0.0, RandomSource(0)) == trace

    def test_probability_one_negates_nonzero(self):
        rng = np.random.default_rng(1)
        trace = random_trace(rng, 100)
        out = flip_augment(trace, 1.0, RandomSource(0))
        assert np.array_equal(out.cells[:100], -trace.cells[:100])
        assert np.array_equal(out.cells[100:], trace.cells[100:])

    def test_flip_fraction_concentrates(self):
        cells = np.ones(100_000, dtype=np.int8)
        trace = DirectionTrace(cells)
        out = flip_augment(trace, 0.1, RandomSource(5))
        fraction = np.mean(out.cells == -1)
        assert abs(fraction - 0.1) < 0.01

    def test_rejects_bad_probability(self):
        trace = DirectionTrace(np.ones(4, dtype=np.int8))
        with pytest.raises(ValueError):
            flip_augment(trace, 1.5, RandomSource(0))


@given(st.integers(min_value=0, max_value=2**32), st.integers(min_value=25, max_value=300))
@settings(max_examples=100, deadline=None)
def test_incoming_conservation_property(seed, n_nonzero):
    rng = np.random.default_rng(seed)
    trace = random_trace(rng, n_nonzero)
    bursts = extract_bursts(trace)
    incoming = bursts[bursts < 0].sum()
    cfg = AugmentConfig()
    draws = random_slots(len(bursts), seed)
    inserted, _ = insert_outgoing_bursts(bursts, one_row(bursts), cfg, singleton_dist(), draws)
    merged, _ = merge_incoming_bursts(bursts, one_row(bursts), cfg, draws)
    assert inserted[inserted < 0].sum() == incoming
    assert merged[merged < 0].sum() == incoming
