"""Deterministic synthetic website-trace generator.

Each class gets a random burst skeleton (its "page structure"). A visit
renders the skeleton under a network-condition profile: incoming burst
sizes get multiplicative lognormal content noise, flow-control cells show
up as small outgoing bursts splitting incoming ones (more often on poor
connections), and timestamps spread the download over a duration set by
the profile's bandwidth factor, so the network-condition metric scales
linearly with that factor.

The perturbations here are deliberately parameterized differently from
the burst augmenter (lognormal byte/time noise and fixed-size midpoint
splits versus uniform cell-space scaling and empirically sized uniform-
position splits), so training on augmented traces is never a trivially
matched inverse of the generator.

Every visit draws from its own spawned stream, and draw k of a stream is a
pure function of its seed and k (``rng``). So ``make_dataset`` renders all
visits of a (template, profile) pair in one pass: one (visits, block)
uniform matrix from the spawned streams' seeds, the size noise, split
decisions and durations as (visit, burst) arrays, and every visit's cells
from one ``np.repeat``. Only a visit with a short burst, whose later draws
shift, is walked again on its own. ``render_visit`` is the one-visit form.
"""

from dataclasses import dataclass

import numpy as np

from .rng import RandomSource, box_muller
from .traces import DEFAULT_CELL_SIZE, TimedTrace

#: Bytes per second corresponding to a bandwidth factor of 1.0; with the
#: conventional 40 kBps split, factor 1.0 sits exactly on the boundary.
NOMINAL_RATE = 40_000.0


@dataclass(frozen=True)
class SiteTemplate:
    class_id: int
    base_bursts: tuple[int, ...]
    noise_scale: float

    def __post_init__(self):
        if any(b == 0 for b in self.base_bursts):
            raise ValueError("template bursts must be nonzero")
        if not 0 <= self.noise_scale < np.inf:
            raise ValueError("noise scale must be finite and >= 0")


@dataclass(frozen=True)
class ConditionProfile:
    """Network condition knobs: bandwidth factor scales the NCM, the
    control rate sets how often incoming bursts are split by flow-control
    cells, jitter adds lognormal noise to the load time."""

    bandwidth_factor: float
    control_rate: float = 0.0
    jitter: float = 0.0

    def __post_init__(self):
        if not 0 < self.bandwidth_factor < np.inf:
            raise ValueError("bandwidth factor must be positive and finite")
        if not (0 <= self.control_rate < np.inf and 0 <= self.jitter < np.inf):
            raise ValueError("control rate and jitter must be finite and >= 0")


#: Desk-scale experiment profiles: stable high-bandwidth collection vs a
#: congested low-bandwidth deployment.
SUPERIOR_PROFILE = ConditionProfile(bandwidth_factor=2.0, control_rate=0.05, jitter=0.05)
INFERIOR_PROFILE = ConditionProfile(bandwidth_factor=0.4, control_rate=0.3, jitter=0.05)


def make_templates(
    num_classes: int, rng: RandomSource, noise_scale: float = 0.25
) -> list[SiteTemplate]:
    """Random per-class burst skeletons, deterministic from the rng seed."""
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    templates = []
    for class_id in range(num_classes):
        child = rng.spawn(class_id)
        n_rounds = child.randint(10, 24)
        bursts: list[int] = []
        for _ in range(n_rounds):
            bursts.append(child.randint(1, 3))          # request
            bursts.append(-child.randint(3, 30))        # response content
        templates.append(SiteTemplate(class_id, tuple(bursts), noise_scale))
    return templates


def render_visit(
    tmpl: SiteTemplate, profile: ConditionProfile, rng: RandomSource
) -> TimedTrace:
    """One synthetic page visit under the given network conditions.

    The template's incoming bursts take their draws in order: two for the
    lognormal size noise when ``noise_scale > 0``, then one for the split
    decision when ``control_rate > 0`` and the noisy size is at least 2. A
    jittered visit then takes two for its duration noise. All of them come
    from one block, and the stream is left after the last draw the visit
    used. This is the one-visit form of the renderer ``make_dataset`` runs
    on all visits of a (template, profile) pair.
    """
    [visit], unused = _render(tmpl, profile, lambda n: rng.uniforms(n)[None])
    rng.rewind(int(unused[0]))
    return visit


def _render(tmpl: SiteTemplate, profile: ConditionProfile, draw):
    """Visits of ``tmpl`` under ``profile``, rendered as whole arrays.

    ``draw(block)`` returns a (visits, block) uniform matrix, one row of
    draws per visit, ``block`` as many as a visit may take. Returns the
    visits in row order and how many draws at the end of its block each
    visit left unused.
    """
    base = np.array(tmpl.base_bursts, dtype=np.int64)
    incoming = (base < 0).nonzero()[0]
    size = -base[incoming]
    noise_draws = 2 if tmpl.noise_scale > 0 else 0
    jitter_draws = 2 if profile.jitter > 0 else 0
    block = (noise_draws + (profile.control_rate > 0)) * len(incoming) + jitter_draws
    u = draw(block)

    def noisy_sizes(uniforms, offset, size):  # the bursts' noise draws start at offset
        scale = np.exp(tmpl.noise_scale * box_muller(
            np.take_along_axis(uniforms, offset, 1), np.take_along_axis(uniforms, offset + 1, 1)))
        return np.maximum(1, np.rint(size * scale)).astype(np.int64)

    # takes_split: whether a (visit, burst) takes a split draw. With noise,
    # first assume every burst does; in a visit with a short burst, the
    # first one found shifts the draws of every later burst down by one,
    # so that visit is walked again from there.
    takes_split = np.full((len(u), len(incoming)), profile.control_rate > 0)
    if not noise_draws:
        takes_split &= size >= 2
    draws = noise_draws + takes_split
    offset = draws.cumsum(axis=1) - draws
    noisy = np.broadcast_to(size, takes_split.shape)
    if noise_draws:
        noisy = noisy_sizes(u, offset, size)
        for v in (takes_split & (noisy < 2)).any(axis=1).nonzero()[0]:
            start = 0
            while True:
                short = (takes_split[v, start:] & (noisy[v, start:] < 2)).nonzero()[0]
                if not len(short):
                    break
                start += int(short[0])
                takes_split[v, start] = False
                start += 1
                offset[v, start:] -= 1
                noisy[v, start:] = noisy_sizes(u[[v]], offset[[v], start:], size[start:])
    used = noise_draws * len(incoming) + takes_split.sum(axis=1)
    split = takes_split.copy()
    rows, cols = takes_split.nonzero()
    split[rows, cols] = u[rows, offset[rows, cols] + noise_draws] < profile.control_rate

    # each template burst is three runs of cells, most of them empty: a
    # split burst becomes [-half, 1, -(size - half)], two incoming bursts
    # around one flow-control cell
    half = np.where(split, (noisy + 1) // 2, noisy)
    runs = np.zeros((len(u), len(base), 3), dtype=np.int64)
    runs[:, :, 0] = base
    runs[:, incoming, 0] = -half
    runs[:, incoming, 1] = split
    runs[:, incoming, 2] = half - noisy
    runs = runs.reshape(len(u), -1)
    directions = np.repeat(np.sign(runs).astype(np.int8).ravel(), np.abs(runs).ravel())
    # every cell is DEFAULT_CELL_SIZE bytes: one read-only value for them all
    sizes = np.broadcast_to(np.int64(DEFAULT_CELL_SIZE), directions.shape)
    lengths = np.abs(runs).sum(axis=1)
    ends = lengths.cumsum()
    starts = ends - lengths

    duration = DEFAULT_CELL_SIZE * noisy.sum(axis=1) / (profile.bandwidth_factor * NOMINAL_RATE)
    if jitter_draws:
        rows = np.arange(len(u))
        duration *= np.exp(profile.jitter * box_muller(u[rows, used], u[rows, used + 1]))
    # each visit's times are np.linspace(0, d, n), by its own float operations:
    # i * (d / (n - 1)) + 0.0, the last of n > 1 set to d (n = 1 gives 0.0)
    step = duration / np.maximum(lengths - 1, 1)
    times = (np.arange(len(directions)) - np.repeat(starts, lengths)) * np.repeat(step, lengths)
    times += 0.0
    times[ends[lengths > 1] - 1] = duration[lengths > 1]
    visits = [
        TimedTrace(times=times[a:b], directions=directions[a:b], sizes=sizes[a:b],
                   label=tmpl.class_id)
        for a, b in zip(starts.tolist(), ends.tolist())
    ]
    return visits, block - used - jitter_draws


def make_dataset(
    templates: list[SiteTemplate],
    profiles: list[ConditionProfile],
    visits_per_class_per_profile,
    rng: RandomSource,
) -> list[TimedTrace]:
    """Cartesian corpus over templates x profiles, shuffled by seed.

    ``visits_per_class_per_profile`` is either a single count or one count
    per profile. Every visit renders from its own spawned stream, so the
    corpus is stable under reordering or parallel generation; the visits
    of each (template, profile) pair are rendered together.
    """
    if not templates or not profiles:
        raise ValueError("need at least one template and one profile")
    if isinstance(visits_per_class_per_profile, int):
        visits = [visits_per_class_per_profile] * len(profiles)
    else:
        visits = list(visits_per_class_per_profile)
        if len(visits) != len(profiles):
            raise ValueError("need one visit count per profile")
    if any(v < 1 for v in visits):
        raise ValueError("visit counts must be >= 1")

    traces = []
    stream = 0
    for tmpl in templates:
        for profile, count in zip(profiles, visits):
            traces += _render(tmpl, profile, lambda n: rng.spawned_uniforms(stream, count, n))[0]
            stream += count
    rng.shuffle(traces)
    return traces
