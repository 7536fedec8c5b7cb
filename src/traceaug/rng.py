"""Deterministic, counter-based random source.

Every stochastic component in this package draws from a ``RandomSource``:
a splitmix64 generator whose n-th output is a pure function of (seed, n).
That makes streams reproducible across platforms and lets the scalar and
vectorized paths produce identical sequences, which the augmentation and
training contracts rely on.
"""

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SPAWN_SALT = 0xD6E8FEB86659FD93
# draws per block in RandomSource.below: its two uint64 temporaries (128 KB
# each) are then reused heap memory, not fresh pages faulted in on every call
_BELOW_BLOCK = 16384


def _mix64(x: int) -> int:
    """Finalizer of splitmix64: bijective 64-bit avalanche mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """splitmix64's finalizer over a uint64 array, in place (one scratch array)."""
    t = np.empty_like(x)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(x, np.uint64(shift), out=t)
        x ^= t
        x *= np.uint64(mult)
    np.right_shift(x, np.uint64(31), out=t)
    x ^= t
    return x


def raw_to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit draws to float64 uniforms in [0, 1), as uniform() does."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


def box_muller(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Standard normals of paired uniforms in [0, 1), by Box-Muller."""
    return np.sqrt(-2.0 * np.log(1.0 - u1)) * np.cos(2.0 * np.pi * u2)


class RandomSource:
    """Seeded stream of uniform bits with scalar and vectorized draws.

    The same seed and the same sequence of calls produce the same values
    no matter how scalar and vectorized calls are interleaved: draw k of
    the stream is always mix64(seed + (k+1) * golden).
    """

    __slots__ = ("_seed", "_count")

    def __init__(self, seed: int):
        self._seed = seed & _MASK64
        self._count = 0

    @property
    def seed(self) -> int:
        return self._seed

    def spawn(self, index: int) -> "RandomSource":
        """Derive an independent child stream; children with distinct
        indices never collide with each other or with the parent."""
        child_seed = _mix64((self._seed ^ _SPAWN_SALT) + _GOLDEN * (index + 1))
        return RandomSource(child_seed)

    # -- scalar draws -----------------------------------------------------

    def _raw(self) -> int:
        self._count += 1
        return _mix64(self._seed + _GOLDEN * self._count)

    def uniform(self) -> float:
        """One float64 uniform in [0, 1)."""
        return (self._raw() >> 11) * 2.0 ** -53

    def randbelow(self, n: int) -> int:
        """Uniform integer in {0, ..., n-1}."""
        if n <= 0:
            raise ValueError(f"randbelow requires n >= 1, got {n}")
        return self._raw() % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in {lo, ..., hi} (both ends inclusive)."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        return lo + self.randbelow(hi - lo + 1)

    # -- vectorized draws -------------------------------------------------

    def _raw_block(self, n: int) -> np.ndarray:
        """The next n raw 64-bit draws, consumed; same stream as n _raw() calls."""
        x = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        self._count += n
        x *= np.uint64(_GOLDEN)
        x += np.uint64(self._seed)
        return _mix64_inplace(x)

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 uniforms in [0, 1); same stream as n uniform() calls."""
        if n == 0:
            return np.empty(0, dtype=np.float64)
        return raw_to_uniforms(self._raw_block(n))

    def spawned_uniforms(self, first: int, count: int, n: int) -> np.ndarray:
        """A (count, n) float64 matrix whose row i holds the first n uniforms
        of ``spawn(first + i)``; this source's counter does not move."""
        index = np.arange(first + 1, first + count + 1, dtype=np.uint64)
        seeds = _mix64_inplace(index * np.uint64(_GOLDEN) + np.uint64(self._seed ^ _SPAWN_SALT))
        draw = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
        return raw_to_uniforms(_mix64_inplace(seeds[:, None] + draw))

    def rewind(self, n: int) -> None:
        """Give back the last n draws: the next n draws repeat them.

        For a caller that takes a block as long as it may need and uses
        only its first part; it leaves the counter where drawing just that
        part would have.
        """
        if not 0 <= n <= self._count:
            raise ValueError(f"cannot rewind {n} of {self._count} draws")
        self._count -= n

    def at(self, count: int) -> "RandomSource":
        """A new source on this stream, positioned after its first ``count``
        draws: its draws are the ones this source takes after ``count``
        draws from its start. For a caller that knows how many draws the
        work before its own takes."""
        if count < 0:
            raise ValueError(f"cannot position a stream at draw {count}")
        out = RandomSource(self._seed)
        out._count = count
        return out

    def below(self, n: int, p: float) -> np.ndarray:
        """n booleans, uniform() < p for each of the next n draws.

        Same values and counter as ``uniforms(n) < p``, without forming the
        floats: a uniform is k * 2**-53 with k = raw >> 11, so it lies below
        p exactly when k < ceil(p * 2**53). The draws are taken
        _BELOW_BLOCK at a time.
        """
        bound = np.uint64(min(max(math.ceil(p * 2.0**53), 0), 2**53))
        out = np.empty(n, dtype=bool)
        for start in range(0, n, _BELOW_BLOCK):
            k = self._raw_block(min(_BELOW_BLOCK, n - start))
            k >>= np.uint64(11)
            np.less(k, bound, out=out[start : start + len(k)])
        return out

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle of a mutable sequence or 1-d array.

        Draws one block of len(items) - 1 raw values: swap partner j of
        position i (i from the end down to 1) is the next raw draw mod
        (i + 1), so the permutation and the counter equal those of drawing
        each partner with randbelow.
        """
        n = len(items)
        if n < 2:
            return
        partners = self._raw_block(n - 1) % np.arange(n, 1, -1, dtype=np.uint64)
        for i, j in zip(range(n - 1, 0, -1), partners.tolist()):
            items[i], items[j] = items[j], items[i]
