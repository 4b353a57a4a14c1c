"""Quantitative slope bounds derived from a divisor profile.

The boundary sequences b and B, the constant M (smallest integer with
2M >= n), the lower boundary T(j) = M + B(j-1), the exact constant
c = min(n, min_i T(i)/i), the Hilbert tensor-structure profile, the
floating-point closed forms c1 / kappa / n-threshold, and the hypothesis
checker for the eigenvalue-congruence proposition.

All hypothesis checking is exact (Fractions); the closed forms are the only
floating-point code in the package and carry a boundary-proximity flag.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat

from .lattice import DivisorProfile, profile_mod

BOUNDARY_EPS = 1e-9


@dataclass(frozen=True)
class BoundaryFunctions:
    """b_i = n - a_i, prefix sums B, and the lower boundary T(j) = M + B(j-1)."""

    n: int
    b: tuple
    B: tuple
    M: int
    T: tuple


def boundary_functions(profile: DivisorProfile) -> BoundaryFunctions:
    n = profile.n
    b = tuple(n - a for a in profile.a)
    B = tuple(accumulate(b))
    M = (n + 1) // 2
    T = tuple(M + (B[j - 1] if j > 0 else 0) for j in range(profile.r))
    return BoundaryFunctions(n=n, b=b, B=B, M=M, T=T)


@dataclass(frozen=True)
class CBound:
    """Exact value of c = min(n, min_i T(i)/i).

    argmin is the smallest index attaining the T(i)/i minimum, or None when
    the level cap n is strictly below every ratio (capped=True).
    """

    value: Fraction
    argmin: int | None
    capped: bool


def c_exact(profile: DivisorProfile) -> CBound:
    bf = boundary_functions(profile)
    # track the running minimum with integer cross-multiplication; profiles
    # from hilbert_profile can have 10^5+ entries and Fractions are too slow
    best_num, best_den, best_i = bf.T[0], 1, 1
    for i in range(2, profile.r + 1):
        t = bf.T[i - 1]
        if t * best_den < best_num * i:
            best_num, best_den, best_i = t, i, i
    if profile.n * best_den < best_num:
        return CBound(value=Fraction(profile.n), argmin=None, capped=True)
    return CBound(value=Fraction(best_num, best_den), argmin=best_i, capped=False)


def hilbert_profile(d: int, h: int, n: int, max_rank: int | None = None) -> DivisorProfile:
    """Tensor-structure profile: ((r+1)^d - r^d) h copies of n - r, r = 0..n-1,
    truncated to its first max_rank exponents, which are the only ones formed."""
    for name, v in (("d", d), ("h", h), ("n", n)):
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")
    # n ** d is formed only when it is small (d < 64) or trivial (n = 1)
    if (n > 1 and d >= 64) or h * n ** d > sys.maxsize:
        raise ValueError(f"profile rank h * n^d exceeds {sys.maxsize}")
    runs = (repeat(n - r, ((r + 1) ** d - r ** d) * h) for r in range(n))
    return DivisorProfile(n=n, a=tuple(islice(chain.from_iterable(runs), max_rank)))


def c1_closed(d: int, h: int) -> float:
    """(1/(d+1))^{d/(d+1)} * (h^{-d/(d+1)} + 1); relative error <= 1e-12."""
    ex = d / (d + 1)
    return (1.0 / (d + 1)) ** ex * (1.0 / h ** ex + 1.0)


@dataclass(frozen=True)
class KappaClosed:
    """floor(c1 n^{1/(d+1)} - 1 - 3 alpha), flagged when the float sits within
    1e-9 of an integer (the floor is then boundary-sensitive)."""

    value: int
    near_boundary: bool


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


@dataclass(frozen=True)
class HypothesisCheck:
    nprime: int
    c_value: Fraction
    ok: bool


@dataclass(frozen=True)
class HypothesisReport:
    """Outcome of the congruence proposition's hypotheses for (profile, alpha, kappa).

    kappa must satisfy kappa <= n - 2 alpha, and alpha < c(L/(K + p^{n'} L))
    for every integer n' with n - 2 alpha - kappa < n' <= n.
    """

    alpha: int
    kappa: int
    kappa_in_range: bool
    checks: tuple
    passed: bool

    @property
    def failure_reason(self) -> str | None:
        if not self.kappa_in_range:
            return "kappa-range"
        if not all(c.ok for c in self.checks):
            return "c-bound"
        return None


def proposition_hypotheses(profile: DivisorProfile, alpha: int, kappa: int) -> HypothesisReport:
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    if kappa < 1:
        raise ValueError(f"kappa must be a positive integer, got {kappa}")
    n = profile.n
    in_range = kappa <= n - 2 * alpha
    checks = []
    if in_range:
        for nprime in range(n - 2 * alpha - kappa + 1, n + 1):
            c = c_exact(profile_mod(profile, nprime))
            checks.append(HypothesisCheck(nprime=nprime, c_value=c.value, ok=alpha < c.value))
    return HypothesisReport(
        alpha=alpha,
        kappa=kappa,
        kappa_in_range=in_range,
        checks=tuple(checks),
        passed=in_range and all(c.ok for c in checks),
    )


def resolve_kappa(profile: DivisorProfile, alpha: int) -> int | None:
    """Largest kappa >= 1 whose hypotheses pass, or None.

    kappa passes exactly when the top 2 alpha + kappa levels n' = n, n - 1, ...
    pass, so one downward scan that stops at the first failing level counts
    2 alpha + kappa. The count is at most n, so kappa <= n - 2 alpha holds.
    """
    passing = 0
    for nprime in range(profile.n, 0, -1):
        if not alpha < c_exact(profile_mod(profile, nprime)).value:
            break
        passing += 1
    kappa = passing - 2 * alpha
    return kappa if kappa >= 1 else None
