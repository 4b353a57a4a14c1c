"""Exact integer p-adic primitives: valuations, primality, slopes.

Everything in this module is arbitrary-precision integer arithmetic; there
is deliberately no floating point anywhere. The valuation of 0 is the
distinguished INFINITY sentinel, which compares above every finite value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Deterministic Miller-Rabin with the witness set above is proven correct
# for all n below this bound (Sorenson-Webster).
_MR_DETERMINISTIC_BOUND = 3317044064679887385961981


class PadicInfinity:
    """Singleton valuation of zero, larger than every integer and Fraction; __new__
    returns the one instance, also when unpickled in a worker process."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True


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
    """Largest e with p^e | x; INFINITY for x = 0."""
    _require_prime(p)
    if x == 0:
        return INFINITY
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def as_slope(value) -> Fraction | PadicInfinity:
    """Normalize a slope-like value (int, Fraction, INFINITY) to canonical form;
    a Fraction, already in lowest terms, passes through unchanged."""
    if value is INFINITY or type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError("slope cannot be a bool")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(f"not a slope: {value!r}")
