"""Self-contained deterministic 64-bit RNG (SplitMix64).

Per-trial seeds are derived as trial_seed(master_seed, index) =
splitmix64(master_seed + (index + 1) * GOLDEN), the standard SplitMix64
output function; the stream generator advances its state by GOLDEN per
draw. Keeping the generator in-repo guarantees byte-identical experiment
reports across Python versions and platforms.

Uniform integers are rejection-sampled: a word at or above the largest
multiple of the span below 2^64 is discarded and the next one drawn.
randints(lo, hi, k) returns what k randint(lo, hi) calls return, with the
state advanced as they advance it, so a generator may take a whole matrix in
one call without changing a single report byte. It mixes its words at once,
one per 128-bit lane of a Python int (Steele, Lea and Flood, "Fast splittable
pseudorandom number generators", OOPSLA 2014, for the generator); randint,
next_u64 and trial_seed mix one word at a time.
"""

from __future__ import annotations

import sys
from functools import lru_cache

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MAX_LANES = 256  # words mixed per batch: bounds the cached lane constants at 4 KB each
# Lane i keeps its word in the low half of its 16 bytes: 'Q' item 2i of the
# little-endian bytes, item 2k - 1 - 2i of the big-endian ones.
_WORD_STEP = {"little": 2, "big": -2}
_STEP = _WORD_STEP[sys.byteorder]


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(master_seed: int, index: int) -> int:
    """64-bit per-trial seed; the documented mixing function for experiments."""
    return _mix((master_seed + (index + 1) * _GOLDEN) & _MASK)


def _span_limit(lo: int, hi: int) -> tuple:
    """The span of [lo, hi] and the rejection limit, the largest multiple of it up to 2^64."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    if span.bit_length() > 64:
        raise ValueError("range wider than 64 bits")
    return span, (1 << 64) - ((1 << 64) % span)


@lru_cache(maxsize=64)
def _lanes(k: int) -> tuple:
    """ONES, STEPS and the lane mask for k 128-bit lanes: state * ONES + STEPS holds
    state + (i + 1) * GOLDEN in lane i, and the mask keeps the low 64 bits of each lane."""
    ones = sum(1 << (128 * i) for i in range(k))
    steps = sum((((i + 1) * _GOLDEN) & _MASK) << (128 * i) for i in range(k))
    return ones, steps, ones * _MASK


class SplitMix64:
    """Deterministic stream of 64-bit words with uniform integer helpers."""

    def __init__(self, seed: int):
        self._state = seed & _MASK  # the state after the last word consumed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return _mix(self._state)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive; rejection-sampled, no modulo bias."""
        span, limit = _span_limit(lo, hi)
        z = self.next_u64()
        while z >= limit:
            z = self.next_u64()
        return lo + z % span

    def randints(self, lo: int, hi: int, k: int) -> list:
        """The k integers that k randint(lo, hi) calls return, with the state advanced
        as they advance it.

        Each batch mixes the words still needed in 128-bit lanes; every xor-shift is
        masked to 64 bits per lane before its multiply, so no carry crosses a lane.
        A rejected word is replaced by the next batch, which starts where this one ended.
        """
        span, limit = _span_limit(lo, hi)
        state = self._state
        out = []
        while (n := min(k - len(out), _MAX_LANES)) > 0:
            ones, steps, lanes = _lanes(n)
            z = (state * ones + steps) & lanes
            z = ((z ^ (z >> 30)) & lanes) * 0xBF58476D1CE4E5B9 & lanes
            z = ((z ^ (z >> 27)) & lanes) * 0x94D049BB133111EB & lanes
            z ^= z >> 31  # what this shifts in from the next lane lands past bit 64
            words = memoryview(z.to_bytes(16 * n, sys.byteorder)).cast("Q")[::_STEP]
            out += [lo + w % span for w in words if w < limit]
            state = (state + n * _GOLDEN) & _MASK
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
