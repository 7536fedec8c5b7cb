"""The per-burst visit renderer, frozen as the reference for the array one.

``traceaug.synth.render_visit`` takes a visit's draws as one block and
renders its bursts as whole arrays. This module keeps the earlier renderer,
unchanged: it walks the template's bursts one at a time, drawing each
incoming burst's lognormal noise and split decision as it goes. Each
normal takes the next two uniforms through ``box_muller``.
``tests/test_synth.py`` checks the array renderer against it trace for
trace and counter for counter, and ``make_dataset`` against a per-visit
loop of it, so do not change its arithmetic or its draws.
"""

import numpy as np

from traceaug.rng import RandomSource, box_muller
from traceaug.synth import NOMINAL_RATE, ConditionProfile, SiteTemplate
from traceaug.traces import DEFAULT_CELL_SIZE, TimedTrace


def _normal(rng: RandomSource):
    """One standard normal from the next two uniforms of ``rng``."""
    u = rng.uniforms(2)
    return box_muller(u[0::2], u[1::2])[0]


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
            size = max(1, int(round(size * np.exp(tmpl.noise_scale * _normal(rng)))))
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
        duration *= float(np.exp(profile.jitter * _normal(rng)))
    times = np.linspace(0.0, duration, num=len(directions))
    return TimedTrace(times=times, directions=directions, sizes=sizes, label=tmpl.class_id)
