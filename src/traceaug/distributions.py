"""Empirical distribution of outgoing burst sizes.

Stored as an exact integer histogram (support, counts, cumulative counts)
so sampling is a single inverse-CDF lookup and serialization round-trips
without loss. Built from the positive bursts of a direction-trace corpus,
whose traces may differ in length: their nonzero cells are concatenated
and run-length encoded in one pass (``bursts.run_lengths``).
"""

from dataclasses import dataclass, field

import numpy as np

from .bursts import extract_bursts  # noqa: F401  perfbench/tracing.py wraps it
from .bursts import run_lengths
from .rng import RandomSource
from .traces import DirectionTrace


class NoOutgoingBursts(ValueError):
    """Corpus contains no outgoing bursts to build a distribution from."""


class EmptyDistributionFile(ValueError):
    """A .bdist file was malformed or empty."""


@dataclass
class BurstSizeDistribution:
    support: np.ndarray
    counts: np.ndarray
    cumulative: np.ndarray = field(init=False)

    def __post_init__(self):
        self.support = np.asarray(self.support, dtype=np.int64)
        self.counts = np.asarray(self.counts, dtype=np.int64)
        if len(self.support) == 0:
            raise NoOutgoingBursts("distribution support is empty")
        if len(self.support) != len(self.counts):
            raise ValueError("support and counts must be parallel")
        if np.any(np.diff(self.support) <= 0):
            raise ValueError("support must be strictly increasing")
        if np.any(self.support <= 0) or np.any(self.counts <= 0):
            raise ValueError("support values and counts must be positive")
        self.cumulative = np.cumsum(self.counts)
        # the counts are positive, so a sum that wraps past int64 stops
        # increasing (a difference would wrap back)
        if np.any(self.cumulative[1:] <= self.cumulative[:-1]):
            raise ValueError("the counts' total does not fit in a 64-bit integer")

    @property
    def total(self) -> int:
        return int(self.cumulative[-1])

    def inverse_cdf(self, u):
        """Support values at uniforms u in [0, 1), scalar or array: each value
        is taken with probability count/total when u is uniform."""
        idx = np.searchsorted(self.cumulative, np.asarray(u) * self.total, side="right")
        return self.support[np.minimum(idx, len(self.support) - 1)]

    def sample(self, rng: RandomSource) -> int:
        """Draw one support value from a single uniform draw."""
        return int(self.inverse_cdf(rng.uniform()))


def build_distribution(traces) -> BurstSizeDistribution:
    """Histogram all outgoing burst sizes found in a corpus of traces."""
    cells = [t.cells if isinstance(t, DirectionTrace) else np.asarray(t) for t in traces]
    if not cells:
        raise NoOutgoingBursts("no traces in corpus")
    flat = np.concatenate(cells)
    bursts, _ = run_lengths(flat[flat != 0], [np.count_nonzero(c) for c in cells])
    outgoing = bursts[bursts > 0]
    if not len(outgoing):
        raise NoOutgoingBursts("no outgoing bursts in corpus")
    support, counts = np.unique(outgoing, return_counts=True)
    return BurstSizeDistribution(support, counts)


def save_bdist(path, dist: BurstSizeDistribution) -> None:
    """Write `size count` lines in ascending size order under a version header."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("bdist v1\n")
        for s, c in zip(dist.support, dist.counts):
            fh.write(f"{int(s)} {int(c)}\n")


def load_bdist(path) -> BurstSizeDistribution:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().strip()
        if header != "bdist v1":
            raise EmptyDistributionFile(f"bad .bdist header: {header!r}")
        support, counts = [], []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            try:
                size, count = map(int, line.split())
                for name, value in (("size", size), ("count", count)):
                    if not -(2**63) <= value < 2**63:  # both are held as int64
                        raise ValueError(f"{name} {value} does not fit in a 64-bit integer")
                support.append(size)
                counts.append(count)
            except ValueError as exc:
                raise EmptyDistributionFile(f"line {line_no}: {exc}") from exc
    if not support:
        raise EmptyDistributionFile("no histogram rows in .bdist file")
    return BurstSizeDistribution(np.array(support), np.array(counts))
