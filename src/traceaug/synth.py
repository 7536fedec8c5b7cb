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

from .rng import RandomSource
from .traces import DEFAULT_CELL_SIZE, TimedTrace

#: Bytes per second corresponding to a bandwidth factor of 1.0; with the
#: conventional 40 kBps split, factor 1.0 sits exactly on the boundary.
NOMINAL_RATE = 40_000.0


@dataclass(frozen=True)
class SiteTemplate:
    class_id: int
    base_bursts: tuple[int, ...]
    noise_scale: float
    seed: int

    def __post_init__(self):
        if any(b == 0 for b in self.base_bursts):
            raise ValueError("template bursts must be nonzero")
        if self.noise_scale < 0:
            raise ValueError("noise scale must be >= 0")


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
        templates.append(
            SiteTemplate(
                class_id=class_id,
                base_bursts=tuple(bursts),
                noise_scale=noise_scale,
                seed=child.seed,
            )
        )
    return templates


def render_visit(
    tmpl: SiteTemplate, profile: ConditionProfile, rng: RandomSource
) -> TimedTrace:
    """One synthetic page visit under the given network conditions."""
    bursts: list[int] = []
    for b in tmpl.base_bursts:
        if b > 0:
            bursts.append(b)
            continue
        size = -b
        if tmpl.noise_scale > 0:
            size = max(1, int(round(size * np.exp(tmpl.noise_scale * rng.normals(1)[0]))))
        if profile.control_rate > 0 and size >= 2 and rng.uniform() < profile.control_rate:
            half = (size + 1) // 2
            bursts += [-half, 1, -(size - half)]
        else:
            bursts.append(-size)

    directions = np.repeat(np.sign(bursts), np.abs(bursts)).astype(np.int8)
    sizes = np.full(len(directions), DEFAULT_CELL_SIZE, dtype=np.int64)
    incoming_bytes = int(sizes[directions == -1].sum())

    duration = incoming_bytes / (profile.bandwidth_factor * NOMINAL_RATE)
    if profile.jitter > 0:
        duration *= float(np.exp(profile.jitter * rng.normals(1)[0]))
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
