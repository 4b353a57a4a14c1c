"""Exact integer p-adic primitives: valuations and primality.

Everything in this module is arbitrary-precision integer arithmetic; there
is deliberately no floating point anywhere. The valuation of 0 is the
INFINITY sentinel, above every int and Fraction; newton's zero-eigenvalue slope.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Deterministic Miller-Rabin with the witness set above is proven correct
# for all n below this bound (Sorenson-Webster).
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


class PadicInfinity:
    """Valuation of zero, larger than every integer and Fraction. INFINITY is its one
    instance: pickle, at every protocol, and copy give INFINITY back by its name."""

    def __reduce__(self):
        return "INFINITY"

    def __repr__(self):
        return "INFINITY"

    def __lt__(self, other):
        return False

    def __gt__(self, other):
        return other is not self


INFINITY = PadicInfinity()


def is_prime(n: int) -> bool:
    """Deterministic primality test (Miller-Rabin with fixed witnesses).

    Correct for all n < 3.3e24; larger inputs are refused rather than
    answered probabilistically.
    """
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    if n >= _MR_DETERMINISTIC_BOUND:
        raise ValueError(f"primality check is only deterministic below {_MR_DETERMINISTIC_BOUND}")
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=64, typed=True)
def _require_prime(p: int) -> None:
    """Raises ValueError unless p is a prime int (TypeError if p is unhashable). The
    cache holds the 64 primes last passed, so each is tested once per process; a
    raise is never cached, and typed=True keeps 3.0 from hitting the entry of 3."""
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")


def padic_valuation(x: int, p: int) -> int | PadicInfinity:
    """Largest e with p^e | x; INFINITY for x = 0. It is read off gcd(x, p^64) in the
    _powers table; while that gcd is p^64, p^64 is divided out and 64 added."""
    _require_prime(p)
    if x == 0:
        return INFINITY
    exponents, top = _powers(p)
    v = 0
    while (g := gcd(x, top)) == top:
        x //= top
        v += 64
    return v + exponents[g]


@lru_cache(maxsize=32)
def _powers(p: int) -> tuple:
    """({p^k: k for k < 64}, p^64), kept per p."""
    return {p ** k: k for k in range(64)}, p ** 64
