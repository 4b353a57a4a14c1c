"""Self-contained deterministic 64-bit RNG (SplitMix64; Steele, Lea and Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014).

trial_seed(master_seed, index) = mix(master_seed + (index + 1) * GOLDEN), the
standard SplitMix64 output function, and the stream of SplitMix64(seed) is
mix(seed + i * GOLDEN) for i = 1, 2, ... Keeping the generator in-repo keeps
reports byte-identical across Python versions and platforms.

The stream mixes _BATCH words at once, one per 128-bit lane of a Python int, and
every draw reads its next words: next_u64 one, randint as many as its rejection
sampling takes (a word at or above the largest multiple of the span below 2^64 is
discarded), and randints(lo, hi, k) runs of them until it has what k randint(lo, hi)
calls return. Only trial_seed mixes a single word, with _mix.
"""

from __future__ import annotations

import sys
from itertools import islice

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Words mixed per batch; each trial starts a fresh stream. Over 300 trials a trial reads
# 136 words on the prop-poly workload, 67-83 (median 70) on prop-planted and 78 on
# constancy. A batch costs about 6 us plus 0.1 us a word, so 80 takes constancy and all
# but a few planted trials in one batch and prop-poly in two.
_BATCH = 80
# state * _ONES + _STEPS holds state + (i + 1) * GOLDEN in lane i; _LANES keeps the
# low 64 bits of each lane.
_ONES = sum(1 << (128 * i) for i in range(_BATCH))
_STEPS = sum((((i + 1) * _GOLDEN) & _MASK) << (128 * i) for i in range(_BATCH))
_LANES = _ONES * _MASK
# Lane i keeps its word in the low half of its 16 bytes: 'Q' item 2i of the
# little-endian bytes, item 2 * _BATCH - 1 - 2i of the big-endian ones.
_WORD_STEP = {"little": 2, "big": -2}
_STEP = _WORD_STEP[sys.byteorder]


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def trial_seed(master_seed: int, index: int) -> int:
    """64-bit per-trial seed; the documented mixing function for experiments."""
    return _mix((master_seed + (index + 1) * _GOLDEN) & _MASK)


def _words(state: int):
    """The words after state, mixed _BATCH at a time; every xor-shift is masked to
    64 bits per lane before its multiply, so no carry crosses a lane."""
    while True:
        z = (state * _ONES + _STEPS) & _LANES
        z = ((z ^ (z >> 30)) & _LANES) * 0xBF58476D1CE4E5B9 & _LANES
        z = ((z ^ (z >> 27)) & _LANES) * 0x94D049BB133111EB & _LANES
        z ^= z >> 31  # what this shifts in from the next lane lands past bit 64
        yield from memoryview(z.to_bytes(16 * _BATCH, sys.byteorder)).cast("Q")[::_STEP].tolist()
        state = (state + _BATCH * _GOLDEN) & _MASK


def _span_limit(lo: int, hi: int) -> tuple:
    """The span of [lo, hi] and the rejection limit, the largest multiple of it up to 2^64."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    if span.bit_length() > 64:
        raise ValueError("range wider than 64 bits")
    return span, (1 << 64) - ((1 << 64) % span)


class SplitMix64:
    """Deterministic stream of 64-bit words with uniform integer helpers."""

    def __init__(self, seed: int):
        self._words = _words(seed & _MASK)

    def next_u64(self) -> int:
        return next(self._words)

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive; rejection-sampled, no modulo bias."""
        span, limit = _span_limit(lo, hi)
        for z in self._words:
            if z < limit:
                return lo + z % span

    def randints(self, lo: int, hi: int, k: int) -> list:
        """The k integers that k randint(lo, hi) calls return, from the same words."""
        span, limit = _span_limit(lo, hi)
        out = []
        while (n := k - len(out)) > 0:
            out += [lo + w % span for w in islice(self._words, n) if w < limit]
        return out

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def unit(self, p: int, bound: int) -> int:
        """Nonzero integer in [-bound, bound] coprime to p."""
        while True:
            u = self.randint(-bound, bound)
            if u != 0 and u % p != 0:
                return u
