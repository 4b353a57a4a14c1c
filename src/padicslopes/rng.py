"""Self-contained deterministic 64-bit RNG (SplitMix64).

Per-trial seeds are derived as trial_seed(master_seed, index) =
splitmix64(master_seed + (index + 1) * GOLDEN), the standard SplitMix64
output function; the stream generator advances its state by GOLDEN per
draw. Keeping the generator in-repo guarantees byte-identical experiment
reports across Python versions and platforms.

Uniform integers are rejection-sampled: a word at or above the largest
multiple of the span below 2^64 is discarded and the next one drawn.
randints(lo, hi, k) draws what k randint(lo, hi) calls draw (randint is
randints(lo, hi, 1)), so a generator may take a whole matrix in one call
without changing a single report byte.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(master_seed: int, index: int) -> int:
    """64-bit per-trial seed; the documented mixing function for experiments."""
    return _mix((master_seed + (index + 1) * _GOLDEN) & _MASK)


class SplitMix64:
    """Deterministic stream of 64-bit words with uniform integer helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive; rejection-sampled, no modulo bias."""
        return self.randints(lo, hi, 1)[0]

    def randints(self, lo: int, hi: int, k: int) -> list:
        """The k integers that k randint(lo, hi) calls return, with the state advanced
        as they advance it; one range check, next_u64 inlined."""
        if lo > hi:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span.bit_length() > 64:
            raise ValueError("range wider than 64 bits")
        limit = (1 << 64) - ((1 << 64) % span)
        state = self._state
        out = []
        while len(out) < k:
            state = (state + _GOLDEN) & _MASK
            # _mix(state), inlined
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
            z ^= z >> 31
            if z < limit:
                out.append(lo + z % span)
        self._state = state
        return out

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def unit(self, p: int, bound: int) -> int:
        """Nonzero integer in [-bound, bound] coprime to p."""
        while True:
            u = self.randint(-bound, bound)
            if u != 0 and u % p != 0:
                return u
