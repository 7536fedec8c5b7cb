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
    from one block, and the bursts are rendered as whole arrays.
    """
    base = np.array(tmpl.base_bursts, dtype=np.int64)
    incoming = (base < 0).nonzero()[0]
    size = -base[incoming]
    noise_draws = 2 if tmpl.noise_scale > 0 else 0
    jitter_draws = 2 if profile.jitter > 0 else 0
    block = (noise_draws + (profile.control_rate > 0)) * len(incoming) + jitter_draws
    u = rng.uniforms(block)

    # takes_split: whether a burst takes a split draw. With noise, first
    # assume every burst does; a short burst found at the first
    # disagreement shifts the draws of every later burst down by one.
    takes_split = np.full(len(incoming), profile.control_rate > 0)
    if noise_draws:
        noisy = size.copy()
    else:
        noisy = size
        takes_split &= size >= 2
    start = 0
    while True:
        draws = noise_draws + takes_split
        offset = draws.cumsum() - draws
        if noise_draws:
            at = offset[start:]
            scale = np.exp(tmpl.noise_scale * box_muller(u[at], u[at + 1]))
            noisy[start:] = np.maximum(1, np.rint(size[start:] * scale))
        short = (takes_split[start:] & (noisy[start:] < 2)).nonzero()[0]
        if not len(short):
            break
        start += int(short[0])
        takes_split[start] = False
        start += 1
    used = int(draws.sum())
    split = takes_split.copy()
    split[takes_split] = u[offset[takes_split] + noise_draws] < profile.control_rate

    # a split burst becomes [-half, 1, -(size - half)]: two incoming bursts
    # around one flow-control cell
    base[incoming] = -noisy
    where = incoming[split]
    counts = np.ones(len(base), dtype=np.int64)
    counts[where] = 3
    bursts = np.repeat(base, counts)
    first = (counts.cumsum() - counts)[where]
    half = (noisy[split] + 1) // 2
    bursts[first] = -half
    bursts[first + 1] = 1
    bursts[first + 2] = half - noisy[split]

    directions = np.repeat(np.sign(bursts).astype(np.int8), np.abs(bursts))
    sizes = np.full(len(directions), DEFAULT_CELL_SIZE, dtype=np.int64)
    incoming_bytes = DEFAULT_CELL_SIZE * int(noisy.sum())

    duration = incoming_bytes / (profile.bandwidth_factor * NOMINAL_RATE)
    if jitter_draws:
        z = box_muller(u[used : used + 1], u[used + 1 : used + 2])
        duration *= float(np.exp(profile.jitter * z[0]))
    rng.rewind(block - used - jitter_draws)
    times = np.linspace(0.0, duration, num=len(directions))
    return TimedTrace(times=times, directions=directions, sizes=sizes, label=tmpl.class_id)


def make_dataset(
    templates: list[SiteTemplate],
    profiles: list[ConditionProfile],
    visits_per_class_per_profile,
    rng: RandomSource,
) -> list[TimedTrace]:
    """Cartesian corpus over templates x profiles, shuffled by seed.

    ``visits_per_class_per_profile`` is either a single count or one count
    per profile. Every visit renders from its own spawned stream, so the
    corpus is stable under reordering or parallel generation.
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
            for _ in range(count):
                traces.append(render_visit(tmpl, profile, rng.spawn(stream)))
                stream += 1
    rng.shuffle(traces)
    return traces
