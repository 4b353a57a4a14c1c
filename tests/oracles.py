"""Independent oracles used by the tests.

These deliberately avoid the library's code paths: determinants via exact
rational Gaussian elimination, characteristic polynomials via cofactor
expansion of the polynomial matrix or the Faddeev-LeVerrier trace recursion
(Cohen, GTM 138, section 2.2), valuations via repeated division, the
quotient action by entrywise differences, plain list-based polynomial
arithmetic, and matrix products and sums by the schoolbook loops. Two
exceptions read the library's Smith form: the reference eigenvector, built
from the integer-mode Smith form (the computation the Z/p^N mode replaced on
the eigenvector path), and kernel_mod, every generator of a kernel mod p^N
from the whole of V^-1 (where eigenvector_mod replays one column of it);
eigenvector_at is eigenvector_mod's own vector, from the Smith form mod p^(N + dv),
reduced mod p^N.
c at a level is min(n', min_i T(i)/i) over Fractions from the exponents
clipped at n'; sigma is min_k B_k / k, with the coefficient bounds B_k that the
pair hypotheses force read off the profile by their definition. The largest
passing kappa is found by trying every kappa against the proposition's
hypotheses at every level, where resolve_kappa bisects the levels n' for the
least one with alpha < c, c being nondecreasing in n'. The reference report
writer builds the whole report as a document, one dict per trial, for json.dumps
to write; formed_rows forms psi from its parts by schoolbook powers and
products, where the library applies the operator to the unit vectors.
random_unimodular_by_randint draws each shear by the same three randint calls
as random_unimodular and applies each at once, to the rows of U and the
columns of U^-1, where random_unimodular applies each to the rows of U and of
U^-T; random_unimodular_by_replay keeps the formulas it had before, a logged
replay for U and one of the inverse transposes for U^-T, which read the
lattice's _replay, as the Smith form forms its transforms.
sigma_with_plain_moduli reads the bound off every choice of columns of every
principal minor, where coefficient_bounds takes the sorted exponents.
gen_xi_by_rows and
gen_congruent_pair_by_rows form each entry from its own randint call and the
per-entry formula, row by row, where the library cuts one randints run into
rows with zip and reads its per-profile tables.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

from padicslopes.family import ConjugatedDiagonal, PolynomialOperator
from padicslopes.lattice import (
    _ADD, _SCALE, _SWAP, IntMatrix, _inverse_transposed, _replay, smith_normal_form,
)
from padicslopes.newton import eigenvector_mod
from padicslopes.padics import INFINITY


def det_fraction(A: IntMatrix) -> Fraction:
    m = [[Fraction(x) for x in row] for row in A.rows]
    r = len(m)
    det = Fraction(1)
    for c in range(r):
        piv = next((i for i in range(c, r) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, r):
            f = m[i][c] * inv
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_add(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    off = len(a) - len(b)
    for i, y in enumerate(b):
        out[off + i] += y
    return out


def charpoly_cofactor(A: IntMatrix):
    """det(X I - A) by cofactor expansion over integer polynomial lists
    (descending powers). Exponential; fine for r <= 5."""

    def minor(rows, skip_col):
        return [[row[j] for j in range(len(row)) if j != skip_col] for row in rows[1:]]

    def det_poly(rows):
        r = len(rows)
        if r == 1:
            return rows[0][0]
        acc = [0]
        for j in range(r):
            term = poly_mul(rows[0][j], det_poly(minor(rows, j)))
            if j % 2:
                term = [-x for x in term]
            acc = poly_add(acc, term)
        return acc

    r = A.r
    rows = [[[1, -A.rows[i][j]] if i == j else [-A.rows[i][j]] for j in range(r)] for i in range(r)]
    coeffs = det_poly(rows)
    while len(coeffs) > 1 and coeffs[0] == 0:
        coeffs = coeffs[1:]
    return tuple(coeffs)


def charpoly_faddeev(A: IntMatrix):
    """det(X I - A) by the Faddeev-LeVerrier recursion over lists of rows:
    c_k = -tr(A M_k) / k with M_1 = I, M_{k+1} = A M_k + c_k I. Every division
    is exact over the integers; descending powers."""
    a = [list(row) for row in A.rows]
    r = len(a)
    coeffs = [1]
    m = [[int(i == j) for j in range(r)] for i in range(r)]
    for k in range(1, r + 1):
        am = [[sum(x * y for x, y in zip(row, col)) for col in zip(*m)] for row in a]
        q, rem = divmod(sum(am[i][i] for i in range(r)), k)
        assert rem == 0, "Faddeev-LeVerrier division was not exact"
        coeffs.append(-q)
        m = [[x - q * (i == j) for j, x in enumerate(row)] for i, row in enumerate(am)]
    return tuple(coeffs)


def same_quotient_action(x: IntMatrix, y: IntMatrix, profile, p: int) -> bool:
    """True iff x and y induce the same endomorphism of L/K, K = sum_i p^{a_i} Z e_i:
    row i of x - y vanishes mod p^{a_i}."""
    for i, ai in enumerate(profile.a):
        for j in range(profile.r):
            if (x.rows[i][j] - y.rows[i][j]) % p**ai != 0:
                return False
    return True


def valuation_by_division(x: int, p: int):
    if x == 0:
        return None
    x = abs(x)
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def lower_hull_by_brute_force(coeffs, p: int):
    """(vertices, [(slope, length)]) of the Newton polygon of sum_s c_s X^{t-s}, c_0 != 0,
    from its definition: a point (i, v_p(c_i)) is a vertex when it is the first or the
    last, or lies strictly below every chord between a point on its left and one on its
    right; trailing zeros add (INFINITY, their count). Cubic in the degree."""
    points = [(i, valuation_by_division(c, p)) for i, c in enumerate(coeffs) if c]
    vertices = [(x, y) for k, (x, y) in enumerate(points)
                if k in (0, len(points) - 1)
                or all((y - y0) * (x1 - x0) < (y1 - y0) * (x - x0)
                       for x0, y0 in points[:k] for x1, y1 in points[k + 1:])]
    segments = [(Fraction(y1 - y0, x1 - x0), x1 - x0)
                for (x0, y0), (x1, y1) in zip(vertices, vertices[1:])]
    if points[-1][0] < len(coeffs) - 1:
        segments.append((INFINITY, len(coeffs) - 1 - points[-1][0]))
    return vertices, segments


def multiplicity_differences_by_dict(census, census_prime) -> list:
    """(slope, m, m') for every slope whose multiplicities differ, from one dict per
    census keyed by slope, in increasing slope order (INFINITY sorts last)."""
    m = {seg.slope: seg.length for seg in census}
    m_prime = {seg.slope: seg.length for seg in census_prime}
    return [(s, m.get(s, 0), m_prime.get(s, 0)) for s in sorted(m.keys() | m_prime.keys())
            if m.get(s, 0) != m_prime.get(s, 0)]


@lru_cache(maxsize=None)
def c_at_level(profile, nprime: int) -> Fraction:
    """c(L/(K + p^{n'} L)): clip every exponent at n', then
    min(n', min_i T(i)/i) with T(i) = ceil(n'/2) + sum_{k < i} (n' - a'_k)."""
    clipped = [min(a, nprime) for a in profile.a]
    B = [0, *accumulate(nprime - a for a in clipped)]  # B[j] = b'_1 + ... + b'_j
    ratios = [Fraction((nprime + 1) // 2 + B[i - 1], i) for i in range(1, len(clipped) + 1)]
    return min(Fraction(nprime), min(ratios))


def coefficient_bounds(profile, nprime: int) -> list:
    """[B_1, ..., B_r]: B_k is the least valuation of e'_k - e_k that the pair hypotheses
    force, e_k the coefficient of X^(r-k) in char_poly(xi) and e'_k in char_poly(xi').
    Expanded by columns, each term of e'_k - e_k is a product of entries from k distinct
    columns, one of them, j0, an entry of Delta: p^max(a_i, n - a_j0, n') divides it, and
    p^(n - a_j) divides every entry of column j of xi and of xi'. So B_k is the least,
    over j0, of max(a_min, n - a_j0, n') plus the sum of the k - 1 smallest n - a_j with
    j != j0. With b the sorted n - a_j and j0 a position in b, those k - 1 are b[:k]
    without b[j0] when j0 < k, else b[:k - 1]."""
    b = sorted(profile.n - a for a in profile.a)
    prefix = [0, *accumulate(b)]
    floor = max(min(profile.a), nprime)
    return [min(max(floor, b0) + (prefix[k] - b0 if j0 < k else prefix[k - 1])
                for j0, b0 in enumerate(b)) for k in range(1, len(b) + 1)]


def sigma(profile, nprime: int) -> Fraction:
    """min_k B_k / k: below this slope the polygons of xi and xi' agree (the
    Newton-polygon lemma, with B_k from coefficient_bounds)."""
    return min(Fraction(bk, k) for k, bk in enumerate(coefficient_bounds(profile, nprime), 1))


def sigma_with_plain_moduli(profile, m: int) -> Fraction:
    """sigma when every Delta entry is a multiple of p^m alone: min_k B_k / k, B_k the
    least over k columns of a principal minor of xi' = xi + Delta, each column taken from
    xi (valuation >= n - a_j) or from Delta (>= m), at least one from Delta."""
    r = profile.r
    return min(Fraction(min(sum(m if j in delta else profile.n - profile.a[j] for j in cols)
                            for cols in combinations(range(r), k)
                            for d in range(1, k + 1) for delta in combinations(cols, d)), k)
               for k in range(1, r + 1))


def hypotheses_pass(profile, alpha: int, kappa: int) -> bool:
    """The proposition's hypotheses: kappa <= n - 2 alpha, and alpha < c at every
    level n' with n - 2 alpha - kappa < n' <= n."""
    n = profile.n
    return kappa <= n - 2 * alpha and all(
        alpha < c_at_level(profile, nprime) for nprime in range(n - 2 * alpha - kappa + 1, n + 1))


def resolve_kappa_by_search(profile, alpha: int):
    """Largest kappa >= 1 whose hypotheses pass, or None, by trying every kappa
    from n - 2 alpha down."""
    for kappa in range(profile.n - 2 * alpha, 0, -1):
        if hypotheses_pass(profile, alpha, kappa):
            return kappa
    return None


def horner_mod(coeffs, x: int, m: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = (acc * x + c) % m
    return acc


def unit_normalized(vector, p: int, m: int) -> tuple:
    """vector scaled so its first unit coordinate is 1, mod m, a power of p; a vector
    with no unit coordinate raises StopIteration."""
    unit = next(x for x in vector if x % p != 0)
    inv = pow(unit, -1, m)
    return tuple(x * inv % m for x in vector)


def eigenvector_by_integer_snf(A: IntMatrix, lam: int, p: int, N: int) -> tuple:
    """Last column of V^-1 in the integer Smith form of A - lam I, scaled so its
    first unit coordinate is 1, mod p^N."""
    dec = smith_normal_form(A - IntMatrix.identity(A.r).scale(lam))
    return unit_normalized(tuple(row[A.r - 1] for row in dec.v_inverse.rows), p, p**N)


def eigenvector_at(A: IntMatrix, lam: int, p: int, N: int, dv: int) -> tuple:
    """eigenvector_mod's vector of the Smith form mod p^(N + dv), reduced mod p^N: with dv
    = v(cp'(lam)) the Hensel root's, the eigenvector mod p^N whose pivots the first r - 1
    Smith valuations fix (v_1 + ... + v_(r-1) <= dv)."""
    return tuple([x % p**N for x in eigenvector_mod(A, lam, p, N + dv)])


def diagonal(entries) -> IntMatrix:
    """diag(entries), every entry through IntMatrix's validating constructor."""
    r = len(entries)
    return IntMatrix([[x if i == j else 0 for j in range(r)] for i, x in enumerate(entries)])


def mat_mul_naive(a, b):
    """a * b for matrices given as lists of rows, by the schoolbook triple loop."""
    out = [[0] * len(b[0]) for _ in a]
    for i in range(len(a)):
        for j in range(len(b[0])):
            for k in range(len(b)):
                out[i][j] += a[i][k] * b[k][j]
    return out


def mat_add_naive(a, b):
    """Entrywise a + b for matrices given as lists of rows."""
    out = []
    for i in range(len(a)):
        out.append([a[i][j] + b[i][j] for j in range(len(a[i]))])
    return out


def random_unimodular_by_randint(r: int, rng):
    """(U, U^-1) from 2r shears and swaps, each drawn by three rng.randint calls."""
    if r == 1:
        s = rng.choice((1, -1))
        return IntMatrix([[s]]), IntMatrix([[s]])
    U = [[1 if i == j else 0 for j in range(r)] for i in range(r)]
    Ui = [row[:] for row in U]
    for _ in range(2 * r):
        i = rng.randint(0, r - 1)
        j = rng.randint(0, r - 2)
        if j >= i:
            j += 1
        q = rng.randint(-2, 2)
        if q == 0:
            U[i], U[j] = U[j], U[i]
            for row in Ui:
                row[i], row[j] = row[j], row[i]
        else:
            # U <- E U with E = I + q e_i e_j^T; Ui <- Ui E^{-1}, col_j -= q col_i
            U[i] = [x + q * y for x, y in zip(U[i], U[j])]
            for row in Ui:
                row[j] -= q * row[i]
    return IntMatrix(U), IntMatrix(Ui)


def random_unimodular_by_replay(r: int, rng):
    """(U, U^-1) by the formulas random_unimodular used before it applied its shears as
    it drew them: the shears logged from three rng.randint calls each, U the lattice's
    _replay of the log, and U^-1 the transposed replay of the inverse-transposed log, as
    the Smith form's u_inverse and U are formed."""
    if r == 1:
        s = rng.choice((1, -1))
        ops = [(_SCALE, 0, s, s)]
    else:
        ops = []
        for _ in range(2 * r):
            i, j, q = rng.randint(0, r - 1), rng.randint(0, r - 2), rng.randint(-2, 2)
            if j >= i:
                j += 1
            ops.append((_ADD, i, j, q) if q else (_SWAP, i, j, None))
    return (IntMatrix([list(row) for row in _replay(r, ops, 0)]),
            IntMatrix([list(col) for col in zip(*_replay(r, map(_inverse_transposed, ops), 0))]))


def gen_xi_by_rows(profile, p: int, entry_bound: int, rng) -> IntMatrix:
    """xi with entry (i, j) p^(n - a_j) times its own randint draw, row by row."""
    bound = p**entry_bound
    return IntMatrix([[p ** (profile.n - aj) * rng.randint(-bound, bound) for aj in profile.a]
                      for _ in profile.a])


def gen_congruent_pair_by_rows(xi, profile, p: int, entry_bound: int, rng,
                               min_exponent: int = 0) -> IntMatrix:
    """xi + Delta with Delta_ij p^max(a_i, n - a_j, min_exponent) times its own randint
    draw, row by row."""
    bound = p**entry_bound
    rows = []
    for row, ai in zip(xi.rows, profile.a):
        rows.append([x + p ** max(ai, profile.n - aj, min_exponent) * rng.randint(-bound, bound)
                     for x, aj in zip(row, profile.a)])
    return IntMatrix(rows)


def poly_of_matrix_naive(coeffs, a):
    """sum_k coeffs[k] a^k for a matrix given as a list of rows, each power formed by
    the schoolbook product, as a list of rows."""
    r = len(a)
    out = [[0] * r for _ in range(r)]
    power = [[int(i == j) for j in range(r)] for i in range(r)]
    for c in coeffs:
        out = [[x + c * y for x, y in zip(row, prow)] for row, prow in zip(out, power)]
        power = mat_mul_naive(a, power)
    return out


def formed_rows(op):
    """An operator's matrix as a list of rows, by the schoolbook loops from its parts: q(A)
    by powers of A for a PolynomialOperator, U diag(d) U^-1 by two products for a
    ConjugatedDiagonal, and the rows of an IntMatrix as they are."""
    if isinstance(op, PolynomialOperator):
        return poly_of_matrix_naive(op.coeffs, op.A.rows)
    if isinstance(op, ConjugatedDiagonal):
        scaled = [[x * d for x, d in zip(row, op.diagonal)] for row in op.U.rows]
        return mat_mul_naive(scaled, op.U_inverse.rows)
    return [list(row) for row in op.rows]


def poly_apply_naive(coeffs, a, vec):
    """sum_k coeffs[k] a^k vec, each power applied to vec by the schoolbook loop."""
    out = [0] * len(vec)
    power = list(vec)
    for c in coeffs:
        out = [x + c * y for x, y in zip(out, power)]
        power = [sum(a[i][k] * power[k] for k in range(len(vec))) for i in range(len(vec))]
    return out


@dataclass(frozen=True)
class KernelGenerator:
    """One cyclic factor of ker(A mod p^N).

    vector is primitive (it has a unit coordinate); the kernel elements it
    accounts for are t * p^{N - order} * vector, a cyclic group of order
    p^{order}.
    """

    vector: tuple
    order: int


def kernel_mod(A: IntMatrix, p: int, N: int) -> list:
    """Generators of {v mod p^N : A v = 0 mod p^N}, from the Smith form over Z/p^N.

    Returned in nondecreasing order of the p-power order they carry (column i
    of V^-1 for each divisor p^{v_i} off the units, order min(N, v_i), N for a
    zero divisor); each vector is scaled so its first unit coordinate is 1 and
    reduced mod p^N.
    """
    dec = smith_normal_form(A, p, N)
    out = []
    for i, d in enumerate(dec.divisors):
        order = N if d == 0 else min(N, valuation_by_division(d, p))
        if order < 1:
            continue
        col = tuple(row[i] for row in dec.v_inverse.rows)
        out.append(KernelGenerator(vector=unit_normalized(col, p, p**N), order=order))
    return out


# --- the reference report writer ---------------------------------------------------

def _slope_json(slope) -> str:
    return "inf" if slope is INFINITY else f"{slope.numerator}/{slope.denominator}"


def _margin_json(margin):
    if margin is None:
        return None
    if margin is INFINITY:
        return "inf"
    return margin


def _census_json(census):
    if census is None:
        return None
    return [[_slope_json(seg.slope), seg.length] for seg in census]


def _slope_triples_json(triples):
    if triples is None:
        return None
    return [[_slope_json(s), m, mp] for s, m, mp in triples]


def trial_document(t) -> dict:
    """One TrialReport as the report's document holds it."""
    doc = {
        "index": t.index,
        "seed": t.seed,
        "status": t.status,
        "reason": t.reason,
        "census": _census_json(t.census),
        "census_prime": _census_json(t.census_prime),
    }
    if t.alpha is not None:
        doc["alpha"] = t.alpha
    if t.kappa is not None:
        doc["kappa"] = t.kappa
    if t.lam is not None:
        doc.update(lam=t.lam, lam_prime=t.lam_prime, a=t.a, a_prime=t.a_prime,
                   margin=_margin_json(t.margin), margin_cap=t.margin_cap)
    if t.constancy_bound is not None:
        doc["constancy_bound"] = _slope_json(t.constancy_bound)
        doc["mismatched_slopes"] = _slope_triples_json(t.mismatched_slopes)
        doc["informational_slopes"] = _slope_triples_json(t.informational_slopes)
    if t.pair is not None:
        doc["matrices"] = {name: formed_rows(getattr(t.pair, name))
                           for name in ("xi", "xi_prime", "psi", "psi_prime")}
    return doc


def report_document(report) -> dict:
    """An ExperimentReport as one document: config as given, the plan's resolutions,
    the summary counts and every trial's document."""
    plan = report.plan
    cfg = plan.config
    config_fields = [name for name in cfg._fields if name != "profile_doc"]
    return {
        "mode": report.mode,
        "config": {**{k: getattr(cfg, k) for k in config_fields}, "profile": cfg.profile_doc},
        "resolved": {
            "kappa": plan.kappa,
            "hypotheses_pass": plan.hypotheses_pass,
            "precision": plan.precision,
            "profile_rank": cfg.profile.r,
            "profile_level": cfg.profile.n,
        },
        "summary": {
            "trials": cfg.trials,
            "accepted": sum(t.status == "ACCEPTED" for t in report.trials),
            "rejected": dict(sorted(Counter(
                t.reason for t in report.trials if t.status == "REJECTED").items())),
            "violations": sum(t.status == "VIOLATION" for t in report.trials),
            "min_margin": _margin_json(min((t.margin for t in report.trials
                                            if t.status == "ACCEPTED" and t.margin is not None),
                                           default=None)),
        },
        "trials": [trial_document(t) for t in report.trials],
    }
