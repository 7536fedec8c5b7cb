import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import synth_reference
from traceaug.rng import RandomSource
from traceaug.synth import (
    ConditionProfile,
    INFERIOR_PROFILE,
    SUPERIOR_PROFILE,
    SiteTemplate,
    make_dataset,
    make_templates,
    render_visit,
)
from traceaug.traces import compute_ncm


CLEAN = ConditionProfile(bandwidth_factor=1.0, control_rate=0.0, jitter=0.0)


class TestConditionProfile:
    @pytest.mark.parametrize("kwargs", [
        {"bandwidth_factor": float("nan")}, {"bandwidth_factor": float("inf")},
        {"control_rate": float("nan")}, {"control_rate": float("inf")},
        {"jitter": float("nan")}, {"jitter": float("inf")},
    ])
    def test_non_finite_rejected(self, kwargs):
        with pytest.raises(ValueError, match="finite"):
            ConditionProfile(**{"bandwidth_factor": 1.0, **kwargs})


class TestTemplates:
    def test_two_classes_distinct(self):
        a, b = make_templates(2, RandomSource(3))
        assert a.base_bursts != b.base_bursts
        assert a.class_id == 0 and b.class_id == 1

    def test_deterministic_from_seed(self):
        assert make_templates(3, RandomSource(7)) == make_templates(3, RandomSource(7))

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            make_templates(1, RandomSource(0))

    @pytest.mark.parametrize("noise", [float("nan"), float("inf"), -0.5])
    def test_bad_noise_scale_rejected(self, noise):
        with pytest.raises(ValueError, match="noise scale must be finite and >= 0"):
            make_templates(2, RandomSource(0), noise_scale=noise)


class TestRenderVisit:
    def test_noiseless_render_matches_template_expansion(self):
        tmpl = SiteTemplate(class_id=0, base_bursts=(2, -5, 1, -3), noise_scale=0.0)
        visit = render_visit(tmpl, CLEAN, RandomSource(0))
        expected = [1, 1, -1, -1, -1, -1, -1, 1, -1, -1, -1]
        assert visit.directions.tolist() == expected
        assert visit.label == 0

    def test_ncm_halves_exactly_with_bandwidth(self):
        tmpl = SiteTemplate(class_id=1, base_bursts=(2, -50), noise_scale=0.0)
        for b in (2.0, 1.0, 0.7, 0.4):
            full = render_visit(tmpl, ConditionProfile(b, 0.0, 0.0), RandomSource(1))
            half = render_visit(tmpl, ConditionProfile(b / 2, 0.0, 0.0), RandomSource(1))
            assert compute_ncm(half) == compute_ncm(full) / 2

    def test_ncm_equals_bandwidth_times_nominal_rate(self):
        tmpl = SiteTemplate(class_id=0, base_bursts=(1, -20), noise_scale=0.0)
        visit = render_visit(tmpl, ConditionProfile(1.0, 0.0, 0.0), RandomSource(2))
        assert compute_ncm(visit) == pytest.approx(40000.0)

    def test_control_cells_split_incoming_bursts(self):
        tmpl = SiteTemplate(class_id=0, base_bursts=(1, -40), noise_scale=0.0)
        noisy = render_visit(
            tmpl, ConditionProfile(1.0, control_rate=1.0, jitter=0.0), RandomSource(3)
        )
        outgoing = int(np.sum(noisy.directions == 1))
        incoming = int(np.sum(noisy.directions == -1))
        assert outgoing == 2  # request burst plus one control cell
        assert incoming == 40  # incoming volume preserved

    def test_superior_inferior_straddle_threshold_with_full_separation(self):
        templates = make_templates(4, RandomSource(5))
        sup = ConditionProfile(2.0, 0.05, 0.0)
        inf = ConditionProfile(0.5, 0.3, 0.0)
        sup_ncm = [
            compute_ncm(render_visit(t, sup, RandomSource(i)))
            for i, t in enumerate(templates)
        ]
        inf_ncm = [
            compute_ncm(render_visit(t, inf, RandomSource(i)))
            for i, t in enumerate(templates)
        ]
        assert min(sup_ncm) >= 40000.0
        assert max(inf_ncm) < 40000.0

    def test_timestamps_cover_duration(self):
        tmpl = SiteTemplate(class_id=0, base_bursts=(1, -10), noise_scale=0.0)
        visit = render_visit(tmpl, CLEAN, RandomSource(0))
        assert visit.times[0] == 0.0
        assert visit.times[-1] > 0.0
        assert np.all(np.diff(visit.times) >= 0.0)

    def test_times_are_linspace_bit_for_bit(self):
        """Visits of 1, 2, 3 and many cells, at jittered durations: each
        visit's times equal np.linspace(0, d, n)'s bytes, and its sizes are
        one read-only 512."""
        templates = [SiteTemplate(0, (-1,), 0.0), SiteTemplate(1, (1, -1), 0.0),
                     SiteTemplate(2, (-3,), 0.0), SiteTemplate(3, (2, -40, 1, -9), 0.5)]
        profile = ConditionProfile(0.7, control_rate=0.0, jitter=0.8)
        corpus = make_dataset(templates, [profile], 25, RandomSource(4))
        lengths = set()
        for visit in corpus:
            n = len(visit)
            lengths.add(n)
            d = visit.times[-1] if n > 1 else 123.0  # one cell is at 0 whatever d is
            assert visit.times.tobytes() == np.linspace(0.0, d, n).tobytes()
            assert (visit.sizes == 512).all() and not visit.sizes.flags.writeable
        assert {1, 2, 3} <= lengths and max(lengths) > 40


@st.composite
def visit_cases(draw):
    """A template with base sizes down to 1, so that noisy sizes below 2
    (which take no split draw) occur, and a profile whose noise, control
    rate and jitter each include 0."""
    sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=24))
    bursts = tuple(b if draw(st.booleans()) else -b for b in sizes)
    noise = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    control = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
    jitter = draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0)))
    tmpl = SiteTemplate(class_id=draw(st.integers(0, 9)), base_bursts=bursts,
                        noise_scale=noise)
    profile = ConditionProfile(draw(st.sampled_from([0.4, 1.0, 2.0])), control, jitter)
    return tmpl, profile, draw(st.integers(0, 2**64 - 1)), draw(st.integers(0, 5))


class TestRenderVisitReference:
    """The array renderer against the per-burst loop it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(case=visit_cases())
    def test_same_trace_and_counter_as_the_loop(self, case):
        tmpl, profile, seed, drawn = case
        rng, ref_rng = RandomSource(seed), RandomSource(seed)
        rng.uniforms(drawn)
        ref_rng.uniforms(drawn)
        expected = synth_reference.render_visit(tmpl, profile, ref_rng)
        visit = render_visit(tmpl, profile, rng)
        assert rng._count == ref_rng._count
        assert visit.times.tobytes() == expected.times.tobytes()
        assert visit.directions.tobytes() == expected.directions.tobytes()
        assert visit.sizes.tobytes() == expected.sizes.tobytes()
        assert visit.label == expected.label

    def test_short_bursts_shift_later_draws(self):
        # sizes of 1 and 2 under strong noise: many bursts fall below 2 and
        # skip their split draw, so later bursts read shifted draws
        tmpl = SiteTemplate(class_id=0, base_bursts=(-1, 1, -2, -1, -2) * 8,
                            noise_scale=2.0)
        profile = ConditionProfile(1.0, control_rate=0.5, jitter=0.3)
        for seed in range(20):
            rng, ref_rng = RandomSource(seed), RandomSource(seed)
            visit = render_visit(tmpl, profile, rng)
            expected = synth_reference.render_visit(tmpl, profile, ref_rng)
            assert rng._count == ref_rng._count
            assert np.array_equal(visit.directions, expected.directions)
            assert np.array_equal(visit.times, expected.times)


def reference_dataset(templates, profiles, visits, rng):
    """make_dataset as a per-visit loop of the reference renderer over the
    same spawned streams, then the same shuffle."""
    traces, stream = [], 0
    for tmpl in templates:
        for profile, count in zip(profiles, visits):
            for _ in range(count):
                traces.append(synth_reference.render_visit(tmpl, profile, rng.spawn(stream)))
                stream += 1
    rng.shuffle(traces)
    return traces


@st.composite
def dataset_cases(draw):
    """One to three templates with base sizes down to 1 (so draws shift),
    the first of them possibly with no incoming burst; one or two profiles
    whose noise, control rate and jitter each include 0; a visit count
    per profile."""
    templates = []
    for class_id in range(draw(st.integers(1, 3))):
        sizes = draw(st.lists(st.integers(1, 12), min_size=1, max_size=16))
        outgoing = class_id == 0 and draw(st.booleans())
        bursts = tuple(b if outgoing or draw(st.booleans()) else -b for b in sizes)
        noise = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
        templates.append(SiteTemplate(class_id, bursts, noise))
    profiles = [
        ConditionProfile(draw(st.sampled_from([0.4, 1.0, 2.0])),
                         draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))),
                         draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0))))
        for _ in range(draw(st.integers(1, 2)))
    ]
    visits = [draw(st.integers(1, 5)) for _ in profiles]
    return templates, profiles, visits, draw(st.integers(0, 2**64 - 1))


class TestMakeDatasetReference:
    """The batched renderer against a per-visit loop of the reference one."""

    @settings(max_examples=150, deadline=None)
    @given(case=dataset_cases())
    def test_same_corpus_as_the_per_visit_loop(self, case):
        templates, profiles, visits, seed = case
        rng, ref_rng = RandomSource(seed), RandomSource(seed)
        corpus = make_dataset(templates, profiles, visits, rng)
        expected = reference_dataset(templates, profiles, visits, ref_rng)
        assert rng._count == ref_rng._count
        assert len(corpus) == len(expected)
        for visit, ref in zip(corpus, expected):
            assert visit.times.tobytes() == ref.times.tobytes()
            assert visit.directions.tobytes() == ref.directions.tobytes()
            assert visit.sizes.tobytes() == ref.sizes.tobytes()
            assert visit.label == ref.label

    def test_short_bursts_and_no_incoming_burst(self):
        templates = [SiteTemplate(0, (-1, 1, -2, -1, -2) * 8, noise_scale=2.0),
                     SiteTemplate(1, (3, 1), noise_scale=0.5)]
        profiles = [ConditionProfile(1.0, control_rate=0.5, jitter=0.3), CLEAN]
        for seed in range(5):
            corpus = make_dataset(templates, profiles, [6, 2], RandomSource(seed))
            expected = reference_dataset(templates, profiles, [6, 2], RandomSource(seed))
            for visit, ref in zip(corpus, expected):
                assert np.array_equal(visit.directions, ref.directions)
                assert visit.times.tobytes() == ref.times.tobytes()


class TestMakeDataset:
    def test_cartesian_count(self):
        templates = make_templates(2, RandomSource(1))
        profiles = [SUPERIOR_PROFILE, INFERIOR_PROFILE]
        dataset = make_dataset(templates, profiles, 3, RandomSource(2))
        assert len(dataset) == 2 * 2 * 3

    def test_deterministic(self):
        templates = make_templates(2, RandomSource(1))
        a = make_dataset(templates, [CLEAN], 4, RandomSource(9))
        b = make_dataset(templates, [CLEAN], 4, RandomSource(9))
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert np.array_equal(x.times, y.times)
            assert np.array_equal(x.directions, y.directions)
            assert x.label == y.label

    def test_every_class_in_every_profile(self):
        templates = make_templates(3, RandomSource(1))
        profiles = [SUPERIOR_PROFILE, INFERIOR_PROFILE]
        dataset = make_dataset(templates, profiles, 2, RandomSource(3))
        superior_labels = {t.label for t in dataset if compute_ncm(t) >= 40000}
        inferior_labels = {t.label for t in dataset if compute_ncm(t) < 40000}
        assert superior_labels == inferior_labels == {0, 1, 2}

    def test_per_profile_visit_counts(self):
        templates = make_templates(2, RandomSource(1))
        profiles = [SUPERIOR_PROFILE, INFERIOR_PROFILE]
        dataset = make_dataset(templates, profiles, [5, 1], RandomSource(4))
        assert len(dataset) == 2 * (5 + 1)

    def test_shuffled_by_seed(self):
        templates = make_templates(2, RandomSource(1))
        a = make_dataset(templates, [CLEAN], 10, RandomSource(5))
        labels_in_order = [t.label for t in a]
        assert labels_in_order != sorted(labels_in_order)

    def test_bad_inputs_rejected(self):
        templates = make_templates(2, RandomSource(1))
        with pytest.raises(ValueError):
            make_dataset([], [CLEAN], 1, RandomSource(0))
        with pytest.raises(ValueError):
            make_dataset(templates, [CLEAN], [1, 2], RandomSource(0))
        with pytest.raises(ValueError):
            make_dataset(templates, [CLEAN], 0, RandomSource(0))
