"""Self-contained deterministic 64-bit RNG (SplitMix64; Steele, Lea and Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014).

trial_seed(master_seed, index) = mix(master_seed + (index + 1) * GOLDEN), the
standard SplitMix64 output function, and the stream of SplitMix64(seed) is
mix(seed + i * GOLDEN) for i = 1, 2, ... Keeping the generator in-repo keeps
reports byte-identical across Python versions and platforms.

A stream holds a batch of _BATCH words, mixed at once, one per 128-bit lane of a Python
int, as a list and a cursor: next_u64 reads one word, and randints(lo, hi, k) slices runs
of them, on into the next batch, until it has k values, rejection-sampled (a word at or
above the largest multiple of the span below 2^64 is discarded); randint is one of them,
and cycled and units draw the same way over several ranges, or units only.
Only trial_seed mixes one word, with _mix.
"""

from __future__ import annotations

import sys
from itertools import count

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
# Words mixed per batch; each trial starts a fresh stream. Over 300 trials a trial reads
# 136 words on the prop-poly workload, 67-83 (median 70) on prop-planted and 78 on
# constancy. A batch costs about 10 us to mix and a few ns a word to slice out, so 80
# takes constancy and all but a few planted trials in one batch and prop-poly in two.
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


def _batch(state: int) -> list:
    """The _BATCH words after state mod 2^64, xor-shifts masked per lane before each multiply."""
    z = ((state & _MASK) * _ONES + _STEPS) & _LANES
    z = ((z ^ (z >> 30)) & _LANES) * 0xBF58476D1CE4E5B9 & _LANES
    z = ((z ^ (z >> 27)) & _LANES) * 0x94D049BB133111EB & _LANES
    z ^= z >> 31  # what this shifts in from the next lane lands past bit 64
    return memoryview(z.to_bytes(16 * _BATCH, sys.byteorder)).cast("Q")[::_STEP].tolist()


def _span_limit(lo: int, hi: int) -> tuple:
    """The span of [lo, hi] and the rejection limit, the largest multiple of it up to 2^64."""
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    span = hi - lo + 1
    if span.bit_length() > 64:
        raise ValueError("range wider than 64 bits")
    return span, (1 << 64) - ((1 << 64) % span)


class SplitMix64:
    """Deterministic stream of 64-bit words, _words[_at:] not read yet, and integer helpers."""

    def __init__(self, seed: int):
        self._batches = map(_batch, count(seed & _MASK, _BATCH * _GOLDEN))
        self._words, self._at = [], 0

    def _take(self, n: int) -> list:
        """The next words up to the end of the batch: at least one, at most n."""
        if self._at == len(self._words):
            self._words, self._at = next(self._batches), 0
        words = self._words[self._at:self._at + n]
        self._at += len(words)
        return words

    def next_u64(self) -> int:
        return self._take(1)[0]

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], inclusive; rejection-sampled, no modulo bias."""
        return self.randints(lo, hi, 1)[0]

    def randints(self, lo: int, hi: int, k: int) -> list:
        """The next k randint(lo, hi) values; while n more are needed, n words are read."""
        span, limit = _span_limit(lo, hi)
        out = []
        while (n := k - len(out)) > 0:
            out += [lo + w % span for w in self._take(n) if w < limit]
        return out

    def cycled(self, ranges, k: int) -> list:
        """k randint values over the (lo, hi) pairs in ranges, in turn; a rejected word keeps its turn."""
        specs = [(lo, *_span_limit(lo, hi)) for lo, hi in ranges]
        out = []
        while (n := k - len(out)) > 0:
            for w in self._take(n):
                lo, span, limit = specs[len(out) % len(specs)]
                if w < limit:
                    out.append(lo + w % span)
        return out

    def choice(self, seq):
        return seq[self.randint(0, len(seq) - 1)]

    def units(self, p: int, bound: int, k: int) -> list:
        """k unit(p, bound) values: randints(-bound, bound) draws that p does not divide."""
        span, limit = _span_limit(-bound, bound)
        out = []
        while (n := k - len(out)) > 0:
            out += [u for w in self._take(n) if w < limit and (u := w % span - bound) % p]
        return out

    def unit(self, p: int, bound: int) -> int:
        """Nonzero integer in [-bound, bound] coprime to p."""
        return self.units(p, bound, 1)[0]
