"""Quantitative slope bounds derived from a divisor profile.

The lower boundary T(j) = M + B(j-1), where B(j) sums b_i = n - a_i over
i <= j and M is the smallest integer with 2M >= n; the exact constant
c = min(n, min_i T(i)/i) with its argmin at any level n' <= n (the cap n
never binds: T(1) = ceil(n/2)), the Hilbert tensor-structure profile, the
floating-point closed forms c1 / kappa / n-threshold, and the largest kappa
for which the eigenvalue-congruence proposition's hypotheses hold.

All hypothesis checking is exact (Fractions); the closed forms are the only
floating-point code in the package and carry a boundary-proximity flag.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat, takewhile

from .lattice import DivisorProfile, InputError

BOUNDARY_EPS = 1e-9


def lower_boundary(profile: DivisorProfile) -> tuple:
    """(T(1), ..., T(r)) of the lower boundary T(j) = M + B(j-1), B(j) = b_1 + ... + b_j
    with b_i = n - a_i, so T(1) = M."""
    n = profile.n
    return tuple(accumulate([n - a for a in profile.a[:-1]], initial=(n + 1) // 2))


class CBound(namedtuple("CBound", "value argmin")):
    """Exact value of c = min(n, min_i T(i)/i), a Fraction; argmin is the smallest index
    attaining the T(i)/i minimum. The cap n never binds: T(1) = M = ceil(n/2) <= n."""

    __slots__ = ()


def c_exact(profile: DivisorProfile, nprime: int | None = None) -> CBound:
    """c(L/(K + p^{n'} L)) at the level n' (default n), from the exponents clipped
    at n': b_i = n' - min(a_i, n') and M = ceil(n'/2)."""
    n = profile.n if nprime is None else nprime
    if not 1 <= n <= profile.n:
        raise ValueError(f"nprime must satisfy 1 <= nprime <= {profile.n}, got {n}")
    return _c_of_runs(profile.sigma_counts(), n)


def _c_of_runs(runs, n: int) -> CBound:
    """c_exact at the level n from the profile's runs, its (exponent, count) pairs."""
    # running minimum of T(i)/i by integer cross-multiplication. Along a run of equal
    # exponents T(i) is linear in i, so T(i)/i is monotone: only the run's first and last
    # index can be the minimum, and comparing them in index order keeps the earliest
    t = best_num = (n + 1) // 2  # t = T(first) = M + b_1 + ... + b_{first-1}
    best_den = best_i = first = 1
    for a, count in runs:
        b = n - min(a, n)
        last = first + count - 1
        if t * best_den < best_num * first:
            best_num, best_den, best_i = t, first, first
        t += count * b  # T(last + 1), so T(last) = t - b
        if (t - b) * best_den < best_num * last:
            best_num, best_den, best_i = t - b, last, last
        first = last + 1
    return CBound(value=Fraction(best_num, best_den), argmin=best_i)


def level_bounds(profile: DivisorProfile):
    """c(L/(K + p^{n'} L)) at n' = n, n - 1, ..., 1, each computed when read, all from
    one run-length encoding of the exponents."""
    runs = profile.sigma_counts()
    return (_c_of_runs(runs, nprime) for nprime in range(profile.n, 0, -1))


def hilbert_profile(d: int, h: int, n: int, max_rank: int | None = None) -> DivisorProfile:
    """Tensor-structure profile: ((r+1)^d - r^d) h copies of n - r, r = 0..n-1,
    truncated to its first max_rank exponents, which are the only ones formed."""
    for name, v in (("d", d), ("h", h), ("n", n)):
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    # n ** d is formed only when it is small (d < 64) or trivial (n = 1)
    if (n > 1 and d >= 64) or h * n ** d > sys.maxsize:
        raise InputError(f"profile rank h * n^d exceeds {sys.maxsize}")
    runs = (repeat(n - r, ((r + 1) ** d - r ** d) * h) for r in range(n))
    return DivisorProfile(n=n, a=tuple(islice(chain.from_iterable(runs), max_rank)))


def c1_closed(d: int, h: int) -> float:
    """(1/(d+1))^{d/(d+1)} * (h^{-d/(d+1)} + 1); relative error <= 1e-12."""
    ex = d / (d + 1)
    return (1.0 / (d + 1)) ** ex * (1.0 / h ** ex + 1.0)


class KappaClosed(namedtuple("KappaClosed", "value near_boundary")):
    """floor(c1 n^{1/(d+1)} - 1 - 3 alpha), an int, with near_boundary set when the float
    sits within 1e-9 of an integer (the floor is then boundary-sensitive)."""

    __slots__ = ()


def kappa_closed(n: int, alpha: int, d: int, h: int) -> KappaClosed:
    x = c1_closed(d, h) * n ** (1.0 / (d + 1)) - 1.0 - 3.0 * alpha
    return KappaClosed(value=math.floor(x), near_boundary=abs(x - round(x)) < BOUNDARY_EPS)


def n_threshold(kappa: int, alpha: int, d: int, h: int) -> int:
    """Smallest integer n strictly greater than ((kappa+1+3 alpha)/c1)^{d+1}.

    The float is snapped to an integer when within 1e-9 of one, so exact
    boundaries (the bound landing on an integer) still give bound + 1.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    x = ((kappa + 1 + 3 * alpha) / c1_closed(d, h)) ** (d + 1)
    snapped = round(x) if abs(x - round(x)) < BOUNDARY_EPS else math.floor(x)
    return snapped + 1


def resolve_kappa(profile: DivisorProfile, alpha: int, levels=None) -> int | None:
    """Largest kappa >= 1 whose hypotheses pass, or None.

    The hypotheses for kappa are kappa <= n - 2 alpha and alpha < c(L/(K + p^{n'} L))
    at every level n - 2 alpha - kappa < n' <= n. So kappa passes exactly when the
    top 2 alpha + kappa levels n' = n, n - 1, ... pass, and one downward scan that
    stops at the first failing level counts 2 alpha + kappa. The count is at most n,
    so kappa <= n - 2 alpha holds. levels is that scan, level_bounds(profile) unless
    given.
    """
    scan = level_bounds(profile) if levels is None else levels
    kappa = sum(1 for _ in takewhile(lambda c: alpha < c.value, scan)) - 2 * alpha
    return kappa if kappa >= 1 else None
