"""Deterministic, counter-based random source.

Every stochastic component in this package draws from a ``RandomSource``:
a splitmix64 generator whose n-th output is a pure function of (seed, n).
That makes streams reproducible across platforms and lets the scalar and
vectorized paths produce identical sequences, which the augmentation and
training contracts rely on.
"""

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_SPAWN_SALT = 0xD6E8FEB86659FD93


def _mix64(x: int) -> int:
    """Finalizer of splitmix64: bijective 64-bit avalanche mix."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix64_vec(x: np.ndarray) -> np.ndarray:
    x = x ^ (x >> np.uint64(30))
    x = x * np.uint64(0xBF58476D1CE4E5B9)
    x = x ^ (x >> np.uint64(27))
    x = x * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def raw_to_uniforms(raw: np.ndarray) -> np.ndarray:
    """Map raw 64-bit draws to float64 uniforms in [0, 1), as uniform() does."""
    return (raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53


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

    def peek_raw_block(self, n: int) -> np.ndarray:
        """The next n raw 64-bit draws, without consuming them."""
        counters = np.arange(self._count + 1, self._count + n + 1, dtype=np.uint64)
        return _mix64_vec(np.uint64(self._seed) + np.uint64(_GOLDEN) * counters)

    def advance(self, n: int) -> None:
        """Consume n draws, e.g. the ones a peek_raw_block caller used."""
        self._count += n

    def _raw_block(self, n: int) -> np.ndarray:
        block = self.peek_raw_block(n)
        self.advance(n)
        return block

    def uniforms(self, n: int) -> np.ndarray:
        """n float64 uniforms in [0, 1); same stream as n uniform() calls."""
        if n == 0:
            return np.empty(0, dtype=np.float64)
        return raw_to_uniforms(self._raw_block(n))

    def normals(self, n: int) -> np.ndarray:
        """n standard normals via Box-Muller; consumes 2n uniforms."""
        u = self.uniforms(2 * n)
        u1 = 1.0 - u[0::2]  # in (0, 1], safe for log
        u2 = u[1::2]
        return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)

    def shuffle(self, items) -> None:
        """In-place Fisher-Yates shuffle of a mutable sequence or 1-d array."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]
