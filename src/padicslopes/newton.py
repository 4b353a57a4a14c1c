"""Characteristic polynomials, Newton polygons, and slope-root extraction.

Polynomials are stored in descending powers: coefficients (c_0, ..., c_t)
represent sum_s c_s X^{t-s}, so index i pairs with the polygon point
(i, v_p(c_i)); Hensel lifting evaluates them mod p^k by Horner's rule. Slopes
are exact Fractions; eigenvalue valuation INFINITY (zero eigenvalues) is
carried as a final polygon segment.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import gcd
from operator import mul

from .lattice import KERNEL_MAX_RANK, IntMatrix, _dot, _entries, _kernel, smith_normal_form
from .padics import INFINITY, _powers, _require_prime, padic_valuation


class CharPoly(namedtuple("CharPoly", "coeffs")):
    """Integer polynomial sum_s c_s X^{t-s}, c_0 != 0, as a tuple of ints. char_poly,
    its one producer, builds it from the Berkowitz steps, so nothing is checked here."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


class SlopeSegment(namedtuple("SlopeSegment", "slope length")):
    """A polygon segment: slope a Fraction or INFINITY, length positive. Only _segment
    builds one, and an unpickled segment is _segment's again (see __reduce__)."""

    __slots__ = ()

    def __reduce__(self):
        slope, run = self  # the slope's denominator divides the run, so the rise is an int
        rise = slope if slope is INFINITY else slope.numerator * run // slope.denominator
        return _segment, (rise, run)


class NewtonPolygon(namedtuple("NewtonPolygon", "vertices segments")):
    """Lower convex hull of (i, v_p(c_i)); vertices cover the finite part only.

    Finite segment slopes are strictly increasing and their lengths sum to
    the index of the last nonzero coefficient; trailing zero coefficients
    appear as one final segment of slope INFINITY.
    """

    __slots__ = ()


def char_poly(A: IntMatrix) -> CharPoly:
    """Characteristic polynomial det(X I - A) by Berkowitz's division-free algorithm.

    Step k takes the polynomial of the leading k x k block A_k to that of the
    next block: with R and S the new row and column, it multiplies by the
    lower-triangular Toeplitz matrix whose first column is
    (1, -a_kk, -R S, -R A_k S, ..., -R A_k^{k-1} S). Only products and sums
    occur, so the result is exact and reproducible.

    Up to rank KERNEL_MAX_RANK, the cap IntMatrix's kernels share (see lattice),
    the steps run as the straight-line code of _berkowitz(r), compiled on the
    first call at each rank (once per process, inherited by a fork; about 6 ms
    at the cap, since the source grows as r^4), never at import. The cap is the
    largest rank the shipped trials reach, where the compile is repaid over
    many calls; a one-shot call, such as `polygon --input` at rank 8, pays it once.
    Above the cap _berkowitz_loop runs the steps: no trial reaches those
    ranks, one call there repays less than its compile, and the loop's
    memory stays bounded for the large matrices `polygon --input` accepts.
    """
    rows = A.rows
    r = len(rows)
    return CharPoly(_berkowitz(r)(rows) if r <= KERNEL_MAX_RANK else _berkowitz_loop(rows))


@lru_cache(maxsize=KERNEL_MAX_RANK)
def _berkowitz(r: int):
    """The Berkowitz steps of char_poly at rank r as one generated function of the
    rows: entries unpacked into locals a{i}_{j}, and every Krylov power written out,
    entry i of A_k^m S as v{m}_{i} and each term -R A_k^(m-1) S as t{m+1}, so the
    source grows as r^4. Each Toeplitz coefficient is one sum of products, updated
    in place from the highest down: the new c_i reads only the old c_1..c_i. The
    source depends on r alone; c0 and the Toeplitz column's first entry are both 1."""
    a, unpack = _entries("a", r)
    lines = [unpack, f"    c1 = -{a[0][0]}"]
    for k in range(1, r):
        R, v = a[k][:k], [a[i][k] for i in range(k)]
        lines += [f"    t1 = -{a[k][k]}", f"    t2 = -({_dot(R, v)})"]
        for m in range(1, k):
            lines += [f"    v{m}_{i} = {_dot(row[:k], v)}" for i, row in enumerate(a[:k])]
            v = [f"v{m}_{i}" for i in range(k)]
            lines.append(f"    t{m + 2} = -({_dot(R, v)})")
        # coefficient i of the product is sum_j c_j t_{i-j}, with c0 = t0 = 1
        for i in range(k + 1, 0, -1):
            terms = [f"c{j}*t{i - j}" if j < i else f"c{j}" for j in range(1, min(i, k) + 1)]
            lines.append(f"    c{i} = {' + '.join([f't{i}', *terms])}")
    lines.append(f"    return (1, {', '.join(f'c{i}' for i in range(1, r + 1))})")
    return _kernel("berkowitz", r, "a", lines)


def _berkowitz_loop(rows) -> tuple:
    """The Berkowitz steps of char_poly as loops over the rows."""
    coeffs = [1, -rows[0][0]]
    for k in range(1, len(rows)):
        block = [row[:k] for row in rows[:k]]
        R = rows[k][:k]
        v = [row[k] for row in rows[:k]]
        col = [1, -rows[k][k], -sum(map(mul, R, v))]
        for _ in range(k - 1):
            v = [sum(map(mul, row, v)) for row in block]
            col.append(-sum(map(mul, R, v)))
        # Toeplitz product: entry i is sum_j col[i - j] * coeffs[j]
        coeffs = [sum(map(mul, coeffs, col[i::-1])) for i in range(k + 2)]
    return tuple(coeffs)


def newton_polygon(cp: CharPoly, p: int) -> NewtonPolygon:
    """Lower convex hull of the points (i, v_p(c_i)), skipping zero coefficients.

    v_p(c) is read off gcd(c, p^64) in padics' table, which holds p^v(c) below 64;
    only at or past 64 (or at c = 0, which has INFINITY) is padic_valuation called.
    The hull depends on the valuations alone, so _hull builds it once per valuation
    vector it keeps.
    """
    _require_prime(p)
    exponents, top = _powers(p)
    valuations = []
    for c in cp.coeffs:
        g = gcd(c, top)
        valuations.append(exponents[g] if g != top else padic_valuation(c, p))
    return _hull(tuple(valuations))


@lru_cache(maxsize=1024)
def _hull(valuations: tuple) -> NewtonPolygon:
    """The polygon of the points (i, v_i) with v_i finite: the point set and the degree
    as one flat tuple. One immutable polygon per key, shared, so equal point sets share
    one segments tuple."""
    points = [(i, v) for i, v in enumerate(valuations) if v is not INFINITY]
    hull = [points[0]]
    for pt in points[1:]:
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            # pop while the middle point is on or above the chord
            if (x1 - x0) * (pt[1] - y0) - (y1 - y0) * (pt[0] - x0) <= 0:
                hull.pop()
            else:
                break
        hull.append(pt)
    segments = [_segment(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(hull, hull[1:])]
    i_last, t = points[-1][0], len(valuations) - 1
    if i_last < t:
        segments.append(_segment(INFINITY, t - i_last))
    return NewtonPolygon(vertices=tuple(hull), segments=tuple(segments))


@lru_cache(maxsize=1024)
def _segment(rise, run: int) -> SlopeSegment:
    """Slope rise/run (INFINITY if rise is) and length run: one object per key, shared."""
    return SlopeSegment(rise if rise is INFINITY else Fraction(rise, run), run)


def slope_multiplicity(np: NewtonPolygon, alpha) -> int:
    """Horizontal length of the slope-alpha segment (alpha an int or Fraction), 0 if absent."""
    for seg in np.segments:
        if seg.slope == alpha:
            return seg.length
    return 0


class HenselError(ValueError):
    """Root extraction failed (slope absent or of multiplicity above 1, bad precision)."""


class HenselRoot(namedtuple("HenselRoot", "value derivative_valuation")):
    """A slope-alpha eigenvalue residue mod p^N.

    value is the least nonnegative residue mod p^N of the one p-adic root of cp on
    the slope-alpha segment, so v_p(value) = alpha, and a known exact root gives the
    value the lift does. The residual check cp(value) = 0 mod p^N alone fixes a
    residue only mod p^{N - derivative_valuation}.
    """

    __slots__ = ()


def hensel_slope_root(cp: CharPoly, poly: NewtonPolygon, p: int, alpha: int, N: int,
                      root: int | None = None) -> HenselRoot:
    """Lift the slope-alpha root of cp to a residue mod p^N, given poly = newton_polygon(cp, p).

    Substitutes X = p^alpha Y, strips the content p^C read off the segment's first
    vertex, and Newton-iterates from the unique simple unit root of the reduction
    mod p. That seed exists and is closed-form when the slope-alpha segment has
    length 1; a longer segment is refused. The seed check confirms the segment
    against cp's coefficients: a polygon that disagrees there raises, never returns.

    A caller that knows the root exactly passes it as root, which skips only the Newton
    loop: the lift converges to the one root on the segment, so an exact one gives its
    value. root must have valuation alpha and root / p^alpha the seed's residue mod p,
    and pass the residual check; either failure raises AssertionError.
    """
    _require_prime(p)
    if isinstance(alpha, bool) or not isinstance(alpha, int):
        raise HenselError(f"slope must be a nonnegative integer, got {alpha!r}")
    if root is not None and (isinstance(root, bool) or not isinstance(root, int)):
        raise HenselError(f"root must be an integer, got {root!r}")
    if alpha < 0:
        raise HenselError(f"slope must be nonnegative, got {alpha}")
    if N < 1:
        raise ValueError(f"precision must be positive, got {N}")
    if N <= alpha:
        raise HenselError(f"precision {N} cannot resolve a residue of valuation {alpha}")

    k = next((k for k, s in enumerate(poly.segments) if s.slope == alpha), None)
    if k is None:
        raise HenselError(f"polygon has no slope-{alpha} segment")
    length = poly.segments[k].length
    if length != 1:
        raise HenselError(f"slope-{alpha} segment has length {length}, not 1")

    t = cp.degree
    i0, v0 = poly.vertices[k]  # segment k runs from vertex k to vertex k + 1
    # the line of slope alpha through (i0, v0) supports the polygon, so p^content
    # divides every scaled coefficient and exactly two quotients are units
    content = v0 + alpha * (t - i0)
    pc = p ** content
    g, rems = zip(*[divmod(c * p ** (alpha * (t - s)), pc) for s, c in enumerate(cp.coeffs)])

    # the reduction must be Y^{t-i0-1} (u0 Y + u1) with u0, u1 the unit coefficients
    # at the segment's endpoints, so the seed -u1/u0 is a simple unit root
    g_mod = [x % p for x in g]
    if any(rems) or [s for s, x in enumerate(g_mod) if x] != [i0, i0 + 1]:
        raise AssertionError(f"polygon's slope-{alpha} segment is not that of cp")
    y = -g_mod[i0 + 1] * pow(g_mod[i0], -1, p) % p

    pN = p ** N
    if root is None:
        # quadratic Newton lifting; g'(y) stays a unit throughout. z carries its
        # inverse: correct mod p^prec before a step, it needs one step z(2 - g'(y) z)
        # to be correct mod the next p^prec (Newton's iteration for 1/g'(y))
        dg = _poly_derivative(g)
        z = pow(_horner_mod(dg, y, p), -1, p)
        prec = 1
        while prec < N:
            prec = min(2 * prec, N)
            m = p ** prec
            y = (y - _horner_mod(g, y, m) * z) % m
            if prec < N:
                z = z * (2 - _horner_mod(dg, y, m) * z) % m
        lam = p ** alpha * y % pN  # y is a unit and alpha < N, so v_p(lam) = alpha
    else:
        pa = p ** alpha
        if root % pa or (root // pa - y) % p:
            raise AssertionError(f"root is not p^{alpha} times a unit congruent to the seed mod p")
        lam = root % pN
    if _horner_mod(cp.coeffs, lam, pN) != 0:
        raise AssertionError("slope root fails the residual check")
    return HenselRoot(value=lam, derivative_valuation=content - alpha)


def _poly_derivative(coeffs) -> list:
    t = len(coeffs) - 1
    return [c * (t - s) for s, c in enumerate(coeffs[:-1])]


def _horner_mod(coeffs, x: int, m: int) -> int:
    """The residue mod m of the polynomial at x, reduced once: the degrees are small."""
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc % m


class EigenvectorError(ValueError):
    """No primitive kernel vector at the required precision."""


def eigenvector_mod(A: IntMatrix, lam: int, p: int, M: int) -> tuple:
    """A primitive kernel vector F of A - lam I mod p^M, as a tuple mod p^M.

    F is column r-1 of V^-1 in the Smith form of A - lam I over Z/p^M, the generator of the
    kernel's top order (see SmithDecomposition), unscaled; (A - lam I) F = 0 mod p^order,
    the order read off d_r (M where d_r = 0). Only that column is formed, from the column
    log: primitive, V^-1 being invertible mod p. Prop trials call it for POLYNOMIAL_PSI
    pairs only, at M = cap: v_r >= N >= cap makes d_r = 0 mod p^cap, so F is a unit kernel
    vector mod p^cap, the witness that family.PolynomialOperator.eigenvalue checks.
    """
    dec = smith_normal_form(A.shift(-lam), p, M)
    if dec.divisors[-1] % p:  # d_r a unit: A - lam I is invertible mod p
        raise EigenvectorError("no kernel modulo p: the residue is not an eigenvalue at this precision")
    return dec.v_inverse_column(A.r - 1)


class ConsistencyError(ValueError):
    """B F is not proportional to F at the requested precision."""


def commuting_eigenvalue(B: IntMatrix, F, p: int, M: int) -> int:
    """Eigenvalue of B on the eigenvector F, mod p^M.

    B needs only .apply: an IntMatrix, or a family.PolynomialOperator or
    family.ConjugatedDiagonal, which apply psi without forming it. Divides at a
    unit coordinate of F and then verifies B F = a F in every coordinate; a
    failure signals a non-eigenvector or exhausted precision. No trial calls it: each
    reads a by its psi's eigenvalue. It is the tests' oracle of that a, and
    perfbench's tracer times it by name.
    """
    _require_prime(p)
    if M < 1:
        raise ValueError(f"precision must be positive, got {M}")
    F = tuple(F)
    pM = p ** M
    pivot = next((i for i, x in enumerate(F) if x % p != 0), None)
    if pivot is None:
        raise ConsistencyError("eigenvector has no unit coordinate")
    BF = B.apply(F)
    a = BF[pivot] * pow(F[pivot], -1, pM) % pM
    for i, (lhs, rhs) in enumerate(zip(BF, F)):
        if (lhs - a * rhs) % pM != 0:
            raise ConsistencyError(
                f"coordinate {i} violates proportionality mod {p}^{M}: "
                "non-eigenvector or precision exhaustion"
            )
    return a


# --- polygon report format (shared with the CLI) -------------------------------

def slope_to_string(slope) -> str:
    """"inf", or "num/den" of an int or a Fraction."""
    if slope is INFINITY:
        return "inf"
    return f"{slope.numerator}/{slope.denominator}"


def polygon_to_document(np: NewtonPolygon) -> dict:
    return {
        "vertices": [[i, v] for i, v in np.vertices],
        "segments": [
            {"slope": slope_to_string(seg.slope), "length": seg.length} for seg in np.segments
        ],
    }
