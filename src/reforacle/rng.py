"""Counter-based deterministic random generator.

Every random decision in the harness (operator choice, injected names,
literals) flows from a 64-bit key through this generator, so a run is
reproducible from its master seed alone and independent of iteration
order. Keys are derived by hashing, which makes the generator splittable:
two streams derived with different tokens never share state.
"""

from __future__ import annotations

import hashlib

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def derive_key(*tokens: int | str) -> int:
    """Hash a sequence of ints/strings into a 64-bit stream key."""
    h = hashlib.sha256()
    for tok in tokens:
        if isinstance(tok, int):
            h.update(b"i")
            h.update(tok.to_bytes(16, "big", signed=True))
        else:
            h.update(b"s")
            h.update(tok.encode("utf-8"))
        h.update(b"\x00")
    return int.from_bytes(h.digest()[:8], "big")


class CounterRng:
    """SplitMix64-style generator: output i depends only on (key, i)."""

    def __init__(self, key: int) -> None:
        self._key = key & _MASK64
        self._counter = 0

    @property
    def key(self) -> int:
        return self._key

    def next_u64(self) -> int:
        self._counter = (self._counter + 1) & _MASK64
        z = (self._key + self._counter * _GAMMA) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), rejection-sampled to avoid bias."""
        if n <= 0:
            raise ValueError("randrange() arg must be positive")
        limit = _MASK64 - (_MASK64 + 1) % n
        while True:
            v = self.next_u64()
            if v <= limit:
                return v % n

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.randrange(hi - lo + 1)

    def choice(self, seq):
        if not seq:
            raise ValueError("choice() from empty sequence")
        return seq[self.randrange(len(seq))]
