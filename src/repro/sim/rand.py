"""Seeded random-number streams.

Every stochastic component (think times, interaction choice, key choice,
service-time jitter) draws from its own named substream derived from one
experiment seed, so adding a component never perturbs the draws of another
and every run is exactly reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, Sequence, TypeVar

# The interpreter's built-in SHA-256 first: ``hashlib`` maps OpenSSL's
# libcrypto, ~3.7 MB of RSS in every process, to hash a few substream
# names (CPython's own random.py does the same for its seeds).  The
# digest, and so every seed, is the same bytes either way.
try:
    from _sha2 import sha256  # 3.12 and later
except ImportError:
    try:
        from _sha256 import sha256  # 3.10, 3.11
    except ImportError:
        from hashlib import sha256

T = TypeVar("T")


class RandomStream:
    """One named substream, a thin wrapper over :class:`random.Random`."""

    def __init__(self, seed: int):
        self._random = random.Random(seed)

    def uniform(self, low: float, high: float) -> float:
        """Uniform draw in ``[low, high)``."""
        return self._random.uniform(low, high)

    def exponential(self, mean: float) -> float:
        """Exponential draw with the given mean."""
        if mean <= 0:
            raise ValueError("mean must be positive, got %r" % mean)
        return self._random.expovariate(1.0 / mean)

    def randint(self, low: int, high: int) -> int:
        """Integer draw in ``[low, high]`` inclusive."""
        return self._random.randint(low, high)

    def random(self) -> float:
        """Uniform draw in ``[0, 1)``."""
        return self._random.random()

    def choice(self, seq: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(seq)

    def weighted_choice(self, items: Sequence[T],
                        weights: Sequence[float]) -> T:
        """Choice from ``items`` with the given relative weights."""
        return self._random.choices(items, weights=weights, k=1)[0]


class StreamFactory:
    """Derives independent :class:`RandomStream` objects from a root seed.

    Substream seeds are derived by hashing ``(root_seed, name)`` so that the
    mapping is stable across runs and insertion orders.
    """

    def __init__(self, root_seed: int = 0):
        self.root_seed = root_seed
        self._streams: Dict[str, RandomStream] = {}

    def stream(self, name: str) -> RandomStream:
        """Return (creating if needed) the substream called ``name``."""
        if name not in self._streams:
            digest = sha256(
                ("%d/%s" % (self.root_seed, name)).encode()).digest()
            seed = int.from_bytes(digest[:8], "big")
            self._streams[name] = RandomStream(seed)
        return self._streams[name]
