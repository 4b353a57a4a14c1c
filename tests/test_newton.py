import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from padicslopes import family, newton
from padicslopes.family import prepare_plan, read_config, run_experiment
from padicslopes.lattice import IntMatrix, random_unimodular
from padicslopes.newton import (
    KERNEL_MAX_RANK,
    CharPoly,
    ConsistencyError,
    EigenvectorError,
    HenselError,
    SlopeSegment,
    char_poly,
    commuting_eigenvalue,
    eigenvector_mod,
    hensel_slope_root,
    newton_polygon,
    slope_multiplicity,
)
from padicslopes.padics import INFINITY, padic_valuation
from padicslopes.rng import SplitMix64

from oracles import (
    charpoly_cofactor, charpoly_faddeev, diagonal, eigenvector_at, eigenvector_by_integer_snf,
    horner_mod, kernel_mod, lower_hull_by_brute_force, poly_mul, poly_of_matrix_naive,
    unit_normalized, valuation_by_division,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def segments_as_pairs(segs):
    return [(s.slope, s.length) for s in segs]


def planted(rng, p, r, vals, unit_bound=9):
    diag = [p**v * rng.unit(p, unit_bound) for v in vals]
    U, Ui = random_unimodular(r, rng)
    return U * diagonal(diag) * Ui, diag, U


# --- characteristic polynomial ---------------------------------------------------

def test_char_poly_examples():
    assert char_poly(IntMatrix.identity(2)).coeffs == (1, -2, 1)
    assert char_poly(IntMatrix([[0, 1], [1, 0]])).coeffs == (1, 0, -1)
    companion = IntMatrix([[0, 0, -5], [1, 0, -2], [0, 1, 0]])
    # oracle: cofactor expansion of det(XI - C)
    assert charpoly_cofactor(companion) == (1, 0, 2, 5)
    assert char_poly(companion).coeffs == (1, 0, 2, 5)


def test_char_poly_matches_cofactor_oracle():
    rng = SplitMix64(555)
    for _ in range(60):
        r = rng.randint(1, 4)
        A = IntMatrix(
            [[rng.randint(-20, 20) for _ in range(r)] for _ in range(r)]
        )
        assert char_poly(A).coeffs == charpoly_cofactor(A)


def random_matrices(rng, ranks):
    """One matrix per listed rank, entries of 1 to 40 bits, some with a zero row and column."""
    for r in ranks:
        bound = rng.choice((1, 9, 3**6, 10**12))
        rows = [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(r)]
        if r > 1 and rng.randint(0, 3) == 0:  # a zero row and column: det is 0
            k = rng.randint(0, r - 1)
            rows = [[0 if k in (i, j) else x for j, x in enumerate(row)]
                    for i, row in enumerate(rows)]
        yield IntMatrix(rows)


def test_char_poly_matches_faddeev_oracle_at_random_ranks():
    rng = SplitMix64(0xBE4C0)
    ranks = [r for r in range(1, 25) for _ in range(3)] + [32, 32, 48]
    for A in random_matrices(rng, ranks):
        assert char_poly(A).coeffs == charpoly_faddeev(A), A.r
    for A in (diagonal((0,) * 7), IntMatrix.identity(9).scale(-3)):
        assert char_poly(A).coeffs == charpoly_faddeev(A)


def test_char_poly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = SplitMix64(0x5E4B)
    for A in random_matrices(rng, [r for r in range(1, 13) for _ in range(3)]):
        expected = tuple(int(c) for c in sympy.Matrix(A.rows).charpoly().all_coeffs())
        assert char_poly(A).coeffs == expected, A.r


@pytest.mark.parametrize("name,mode", [("prop_default.json", "prop"),
                                       ("prop_planted.json", "prop"),
                                       ("constancy_default.json", "constancy")])
def test_char_poly_matches_faddeev_on_shipped_trials(name, mode, monkeypatch):
    # every xi and xi' whose polynomial a shipped config's trials read
    checked = []

    def checked_char_poly(A):
        cp = char_poly(A)
        assert cp.coeffs == charpoly_faddeev(A)
        checked.append(A.r)
        return cp

    monkeypatch.setattr(family, "char_poly", checked_char_poly)
    report = run_experiment(read_config(CONFIG_DIR / name), mode=mode)
    assert len(checked) == 2 * sum(t.reason != "no-instance" for t in report.trials) > 0


def kernel_corpus(rng, r):
    """random_matrices at rank r, the zero matrix, a scaled identity, and entries past +-2^64."""
    yield from random_matrices(rng, [r] * 4)
    yield diagonal((0,) * r)
    yield IntMatrix.identity(r).scale(-(3**5))
    big = [[(-1) ** (i + j) * (rng.randint(1, 9) << 66 | rng.next_u64()) for j in range(r)]
           for i in range(r)]
    yield IntMatrix(big)
    yield IntMatrix([[-x for x in row] for row in big])


@pytest.mark.parametrize("r", range(1, 18))
def test_generated_berkowitz_matches_the_loop_and_faddeev(r):
    # ranks 1 and 2 write out no Krylov power, and rank 1 unpacks a one-entry row;
    # the ranks above KERNEL_MAX_RANK are compiled here although char_poly never asks for them
    rng = SplitMix64(0xB3E4C0 + r)
    kernel = newton._berkowitz.__wrapped__(r)
    corpus = list(kernel_corpus(rng, r))
    for A in corpus:
        expected = charpoly_faddeev(A)
        assert kernel(A.rows) == expected, A.rows
        assert newton._berkowitz_loop(A.rows) == expected, A.rows
        assert char_poly(A).coeffs == expected
    assert all(abs(x) > 2**64 for A in corpus[-2:] for row in A.rows for x in row)


def test_char_poly_compiles_one_kernel_per_rank_up_to_the_cap():
    newton._berkowitz.cache_clear()
    rng = SplitMix64(0x17)
    for r in (KERNEL_MAX_RANK + 1, KERNEL_MAX_RANK + 7):
        for A in random_matrices(rng, [r] * 2):
            assert char_poly(A).coeffs == charpoly_faddeev(A)
    # the ranks above the cap run the loop and never reach the kernel cache
    assert newton._berkowitz.cache_info().currsize == 0
    assert newton._berkowitz.cache_info().misses == 0
    for A in random_matrices(rng, [KERNEL_MAX_RANK, 6, 6, KERNEL_MAX_RANK]):
        char_poly(A)
    info = newton._berkowitz.cache_info()
    assert (info.currsize, info.misses, info.hits) == (2, 2, 2)


def test_the_kernel_cap_is_the_largest_rank_the_shipped_configs_reach():
    # ranks above the cap were not measured to gain from compiling; a config past
    # it should come with a measurement before the cap moves
    ranks = [read_config(path).profile.r for path in sorted(CONFIG_DIR.glob("*.json"))]
    assert len(ranks) == 4 and max(ranks) == KERNEL_MAX_RANK


def test_generated_berkowitz_source_holds_no_input():
    # the code object is built from the rank alone, with every Krylov power written
    # out: its constants are 1 and None, never a matrix entry or a loop count
    for r in (1, 2, 6):
        code = newton._berkowitz(r).__code__
        assert code.co_filename == f"<berkowitz rank {r}>"
        assert set(code.co_consts) <= {None, 1}


def test_char_poly_conjugation_invariance():
    rng = SplitMix64(616)
    for _ in range(40):
        r = rng.randint(2, 5)
        A = IntMatrix(
            [[rng.randint(-50, 50) for _ in range(r)] for _ in range(r)]
        )
        U, Ui = random_unimodular(r, rng)
        assert char_poly(U * A * Ui) == char_poly(A)


# --- Newton polygon ---------------------------------------------------------------

def test_polygon_examples():
    poly = newton_polygon(CharPoly((1, 2, 8, 32)), 2)
    assert poly.vertices == ((0, 0), (1, 1), (3, 5))
    assert segments_as_pairs(poly.segments) == [(Fraction(1), 1), (Fraction(2), 2)]

    poly = newton_polygon(CharPoly((1, 0, -2)), 7)
    assert segments_as_pairs(poly.segments) == [(Fraction(0), 2)]

    # roots 3 and 9: valuations 1 and 2
    poly = newton_polygon(CharPoly((1, -12, 27)), 3)
    assert segments_as_pairs(poly.segments) == [(Fraction(1), 1), (Fraction(2), 1)]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_polygon_valuations_match_the_division_loop(p):
    # newton_polygon reads v_p(c) off gcd(c, p^64) below 64 and divides at or past it;
    # a two-term polygon's vertices are the points themselves
    rng = SplitMix64(0x76616C + p)
    cofactors = [1, rng.randint(2, 10**6), rng.next_u64(),
                 rng.next_u64() << 236 | rng.next_u64() << 172 | rng.next_u64()]
    cofactors = [u + 1 if u % p == 0 else u for u in cofactors]
    assert cofactors[-1].bit_length() > 290
    for v in range(71):
        for u in cofactors:
            for c in (p**v * u, -(p**v) * u):
                assert valuation_by_division(c, p) == v
                assert newton_polygon(CharPoly((1, c)), p).vertices == ((0, 0), (1, v))
                assert newton_polygon(CharPoly((c, 0, 1)), p).vertices == ((0, v), (2, 0))


def test_polygon_trailing_zeros_report_infinite_slope():
    # X^3 - 3 X^2 = (X - 3) X^2
    poly = newton_polygon(CharPoly((1, -3, 0, 0)), 3)
    assert segments_as_pairs(poly.segments) == [(Fraction(1), 1), (INFINITY, 2)]


def test_polygon_convexity_and_lengths():
    rng = SplitMix64(717)
    for _ in range(100):
        p = rng.choice((2, 3, 5))
        t = rng.randint(1, 7)
        coeffs = [1] + [rng.randint(-500, 500) for _ in range(t)]
        poly = newton_polygon(CharPoly(tuple(coeffs)), p)
        finite = [s for s in poly.segments if s.slope is not INFINITY]
        slopes = [s.slope for s in finite]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == len(slopes)
        i_last = max(i for i, c in enumerate(coeffs) if c != 0)
        assert sum(s.length for s in finite) == i_last
        assert poly.vertices[0] == (0, 0)


def test_polygon_segments_are_shared_per_rise_and_run():
    rng = SplitMix64(1121)
    shared, total = {}, 0
    for _ in range(200):
        p = rng.choice((2, 3, 5))
        coeffs = [1] + [rng.randint(-500, 500) for _ in range(rng.randint(1, 6))]
        coeffs += [0] * rng.randint(0, 2)  # trailing zeros give an INFINITY segment
        poly = newton_polygon(CharPoly(tuple(coeffs)), p)
        keys = [(y1 - y0, x1 - x0) for (x0, y0), (x1, y1) in zip(poly.vertices, poly.vertices[1:])]
        fresh = [SlopeSegment(Fraction(rise, run), run) for rise, run in keys]
        if len(poly.segments) > len(keys):
            keys.append((INFINITY, poly.segments[-1].length))
            fresh.append(SlopeSegment(INFINITY, keys[-1][1]))
        assert list(poly.segments) == fresh
        for key, seg in zip(keys, poly.segments):
            assert shared.setdefault(key, seg) is seg
        total += len(keys)
    assert len(shared) < total and any(k[0] is INFINITY for k in shared)


def brute_force_corpus():
    """500 seeded (coeffs, p) of degree 1 to 11, with zero coefficients, trailing zeros
    and valuations up to 75, past the gcd(c, p^64) table."""
    rng = SplitMix64(0x68756C6C)
    corpus = []
    for k in range(500):
        p = rng.choice((2, 3, 5, 7))
        t = rng.randint(1, 8)
        high = 75 if k % 5 == 0 else 6  # every fifth vector reaches valuations 64 and above
        coeffs = [p ** rng.randint(0, high) * rng.unit(p, 50) * rng.choice((1, -1))
                  if rng.randint(0, 3) else 0 for _ in range(t)]
        coeffs = [p ** rng.randint(0, 3) * rng.unit(p, 50)] + coeffs
        coeffs += [0] * (rng.randint(0, 3) if k % 3 == 0 else 0)  # the INFINITY segment
        corpus.append((tuple(coeffs), p))
    return corpus


def test_polygon_matches_the_brute_force_hull_cold_and_warm():
    corpus = brute_force_corpus()
    assert any(c == 0 for coeffs, _ in corpus for c in coeffs[1:-1])
    assert sum(coeffs[-1] == 0 for coeffs, _ in corpus) > 100
    assert any(valuation_by_division(c, p) >= 64 for coeffs, p in corpus for c in coeffs if c)
    newton._hull.cache_clear()
    cold = [newton_polygon(CharPoly(coeffs), p) for coeffs, p in corpus]
    assert newton._hull.cache_info().misses > 400
    warm = [newton_polygon(CharPoly(coeffs), p) for coeffs, p in corpus]
    for (coeffs, p), poly, again in zip(corpus, cold, warm):
        vertices, segments = lower_hull_by_brute_force(coeffs, p)
        assert poly.vertices == tuple(vertices)
        assert segments_as_pairs(poly.segments) == segments
        assert again is poly  # fewer than 1024 point sets: the warm pass only hits


def test_equal_point_sets_share_one_polygon():
    # a unit factor moves no valuation, so the point set and the polygon object stay
    for coeffs, p in brute_force_corpus()[:100]:
        poly = newton_polygon(CharPoly(coeffs), p)
        twin = newton_polygon(CharPoly(tuple(c * (p + 1) for c in coeffs)), p)
        assert twin is poly and twin.segments is poly.segments
    # a different degree is a different polygon, though the finite points agree
    assert newton_polygon(CharPoly((1, 3)), 3) is not newton_polygon(CharPoly((1, 3, 0)), 3)


def test_pickled_segments_are_the_cached_ones():
    # a forked worker sends its trials back pickled; each segment comes back as _segment's
    finite = newton_polygon(CharPoly((1, 2, 8, 32)), 2).segments
    infinite = newton_polygon(CharPoly((1, -3, 0, 0)), 3).segments[-1]
    assert infinite.slope is INFINITY
    for seg in finite + (infinite,):
        # at every protocol the one INFINITY survives a round trip (padics)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(seg, protocol)) is seg
    assert all(a is b for a, b in zip(pickle.loads(pickle.dumps(finite)), finite))
    # past the cache a round trip still gives an equal segment
    newton._segment.cache_clear()
    newton._hull.cache_clear()  # its polygons hold the segments made before
    again = pickle.loads(pickle.dumps(finite[1]))
    assert again == finite[1] and again is not finite[1]
    assert pickle.loads(pickle.dumps(finite[1])) is again


def test_polygon_multiplicativity():
    rng = SplitMix64(818)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        f = [1] + [rng.randint(-200, 200) for _ in range(rng.randint(1, 4))]
        g = [1] + [rng.randint(-200, 200) for _ in range(rng.randint(1, 4))]
        merged = {}
        for part in (f, g):
            for seg in newton_polygon(CharPoly(tuple(part)), p).segments:
                merged[seg.slope] = merged.get(seg.slope, 0) + seg.length
        product = {}
        for seg in newton_polygon(CharPoly(tuple(poly_mul(f, g))), p).segments:
            product[seg.slope] = seg.length
        assert product == merged


def test_slope_multiplicity():
    poly = newton_polygon(CharPoly((1, 2, 8, 32)), 2)
    assert slope_multiplicity(poly, 2) == 2
    assert slope_multiplicity(poly, 3) == 0
    assert slope_multiplicity(poly, 1) == 1
    assert slope_multiplicity(poly, Fraction(1, 2)) == 0


def test_slope_census_examples():
    rng = SplitMix64(919)
    p = 5
    A, _, _ = planted(rng, p, 2, [1, 2], unit_bound=1)

    def census(B):
        return segments_as_pairs(newton_polygon(char_poly(B), p).segments)

    assert census(A) == [(Fraction(1), 1), (Fraction(2), 1)]
    assert census(diagonal((0,) * 4)) == [(INFINITY, 4)]
    assert census(IntMatrix.identity(3)) == [(Fraction(0), 3)]


def test_slope_census_planted_oracle():
    rng = SplitMix64(1020)
    for _ in range(50):
        p = rng.choice((2, 3, 5, 7))
        r = rng.randint(2, 6)
        vals = [rng.randint(0, 6) for _ in range(r)]
        A, _, _ = planted(rng, p, r, vals)
        got = {}
        for seg in newton_polygon(char_poly(A), p).segments:
            got[seg.slope] = seg.length
        want = {}
        for v in vals:
            want[Fraction(v)] = want.get(Fraction(v), 0) + 1
        assert got == want


# --- Hensel lifting ---------------------------------------------------------------

def lift(cp, p, alpha, N):
    """hensel_slope_root on cp with cp's own polygon, as a trial passes it."""
    return hensel_slope_root(cp, newton_polygon(cp, p), p, alpha, N)


def test_hensel_examples():
    root = lift(CharPoly((1, -12, 27)), 3, 1, 5)
    assert root.value == 3
    assert root.derivative_valuation == 1

    root = lift(CharPoly((1, -10)), 5, 1, 4)
    assert root.value == 10


def test_hensel_rejections():
    with pytest.raises(HenselError):
        lift(CharPoly((1, 0, -2)), 7, 1, 3)  # no slope-1 segment
    with pytest.raises(HenselError):
        lift(CharPoly((1, 0, -1)), 2, 0, 4)  # (X-1)^2 mod 2: not simple
    with pytest.raises(HenselError):
        lift(CharPoly((1, 0, -2)), 7, Fraction(1, 2), 3)
    with pytest.raises(HenselError):
        lift(CharPoly((1, -12, 27)), 3, 1, 1)  # N <= alpha


def test_hensel_refuses_a_segment_longer_than_one():
    # X^2 - 2 has a slope-0 segment of length 2; a search for seeds over
    # range(1, p) once kept the second call busy for more than 5 s
    for p in (7, 2**61 - 1):
        with pytest.raises(HenselError, match="length 2"):
            lift(CharPoly((1, 0, -2)), p, 0, 3)


def test_hensel_refuses_the_polygon_of_another_polynomial():
    # the root reads only the polygon's slope-alpha segment; where another
    # polynomial's segment differs from cp's, the seed check raises
    cases = [
        # cp, another polynomial, p, alpha, what cp's own polygon gives
        ((1, -12, 27), (1, -4, 3), 3, 1, 3),        # slope-1 segment starts at 1, not 0
        ((1, -12, 27), (3, -36, 81), 3, 1, 3),      # content 3^3 does not divide cp's
        ((3, -36, 81), (1, -12, 27), 3, 1, 3),      # content 3^2 leaves every residue 0
        ((1, -3, 2), (1, -6, 5), 5, 0, None),       # cp's slope-0 segment has length 2
        ((4, -9), (3, -18), 3, 1, None),            # floor quotients (1, -1) would fit
    ]
    for coeffs, other, p, alpha, value in cases:
        cp = CharPoly(coeffs)
        if value is None:
            with pytest.raises(HenselError, match="length 2|no slope-"):
                lift(cp, p, alpha, 6)
        else:
            assert lift(cp, p, alpha, 6).value == value
        with pytest.raises(AssertionError, match=f"slope-{alpha} segment is not that of cp"):
            hensel_slope_root(cp, newton_polygon(CharPoly(other), p), p, alpha, 6)
    # a polygon without the segment is refused before the seed
    with pytest.raises(HenselError, match="no slope-1 segment"):
        hensel_slope_root(CharPoly((1, -12, 27)), newton_polygon(CharPoly((1, 0, -2)), 3), 3, 1, 6)


def test_hensel_matches_a_search_over_all_residues():
    # every root of valuation alpha mod p^M, found by trying each residue: mod
    # p^(N + e), with e the derivative valuation, they all reduce to the lifted
    # value mod p^N; mod p^N they are exactly the residues of valuation alpha
    # that agree with it mod p^(N - e)
    rng = SplitMix64(0x4E5E1)
    cases = []
    while len(cases) < 80:
        p = rng.choice((2, 3, 5))
        if len(cases) % 2:  # random coefficients
            coeffs = (1,) + tuple(rng.randint(-40, 40) for _ in range(rng.randint(1, 4)))
        else:  # roots p^b u, so that other roots can share the root's valuation
            coeffs = (1,)
            for _ in range(rng.randint(1, 4)):
                coeffs = poly_mul(coeffs, [1, -(p ** rng.randint(0, 3)) * rng.unit(p, 9)])
        cp = CharPoly(tuple(coeffs))
        poly = newton_polygon(cp, p)
        simple = [s.slope for s in poly.segments if s.length == 1 and s.slope != INFINITY
                  and s.slope.denominator == 1]
        if not simple:
            continue
        alpha = int(rng.choice(simple))
        N = alpha + rng.randint(1, 8)
        root = hensel_slope_root(cp, poly, p, alpha, N)
        e = root.derivative_valuation
        if p ** (N + e) > 2**14:
            continue
        cases.append((N, e))

        def roots(M):
            return [x for x in range(p**M) if horner_mod(cp.coeffs[::-1], x, p**M) == 0
                    and padic_valuation(x, p) == alpha]

        assert {x % p**N for x in roots(N + e)} == {root.value}
        assert roots(N) == [x for x in range(p**N) if padic_valuation(x, p) == alpha
                            and (x - root.value) % p ** max(N - e, 0) == 0]
    # some lifts take three or more Newton steps, and some roots have e > 0
    assert sum(N > 4 for N, _ in cases) >= 10 and sum(e > 0 for _, e in cases) >= 10


def test_hensel_planted_suite():
    rng = SplitMix64(1121)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        alpha = rng.randint(0, 4)
        u = rng.unit(p, 9)
        f = [1, -(p**alpha) * u]
        betas = []
        for _ in range(rng.randint(0, 4)):
            beta = rng.randint(0, 6)
            while beta == alpha:
                beta = rng.randint(0, 6)
            betas.append(beta)
            f = poly_mul(f, [1, -(p**beta) * rng.unit(p, 9)])
        e_true = sum(min(alpha, b) for b in betas)
        N = e_true + alpha + 8
        root = lift(CharPoly(tuple(f)), p, alpha, N)
        assert root.derivative_valuation == e_true
        assert (root.value - p**alpha * u) % p ** (N - e_true) == 0
        assert horner_mod(CharPoly(tuple(f)).coeffs[::-1], root.value, p**N) == 0
        assert padic_valuation(root.value, p) == alpha


def seeded_slope_roots(p, alpha, count=12):
    """count seeded (cp, d, others): cp = prod(X - d_j) over d and others, d = p^alpha u
    its one root of valuation alpha, others' valuations drawn from 0..6 without alpha."""
    rng = SplitMix64(0x5100 + 16 * p + alpha)
    out = []
    for _ in range(count):
        d = p ** alpha * rng.unit(p, 9)
        others = [p ** rng.choice([v for v in range(7) if v != alpha]) * rng.unit(p, 9)
                  for _ in range(rng.randint(0, 4))]
        coeffs = (1,)
        for x in [d, *others]:
            coeffs = poly_mul(coeffs, [1, -x])
        out.append((CharPoly(tuple(coeffs)), d, others))
    return out


@pytest.mark.parametrize("alpha", range(4))
@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_known_slope_root_gives_the_lift(p, alpha):
    # the lift converges to the one p-adic root on the segment, so the exact root, or
    # any integer congruent to it mod p^N, returns the lift's value and valuation
    for cp, d, _ in seeded_slope_roots(p, alpha):
        poly = newton_polygon(cp, p)
        assert slope_multiplicity(poly, alpha) == 1
        for N in (alpha + 1, alpha + 2, alpha + 9, alpha + 40):
            lifted = hensel_slope_root(cp, poly, p, alpha, N)
            assert hensel_slope_root(cp, poly, p, alpha, N, root=d) == lifted
            assert hensel_slope_root(cp, poly, p, alpha, N, d - 7 * p ** N) == lifted
            assert lifted.value == d % p ** N


def test_a_known_slope_root_must_be_an_integer():
    # the type check that alpha has, made before any polygon is read
    cp = CharPoly((1, -12, 27))
    poly = newton_polygon(cp, 3)
    for root in (True, False, 3.0, Fraction(3), "3", [3]):
        with pytest.raises(HenselError, match="root must be an integer"):
            hensel_slope_root(cp, poly, 3, 1, 5, root=root)
    assert hensel_slope_root(cp, poly, 3, 1, 5, root=3).value == 3


@pytest.mark.parametrize("p", [2, 3, 5])
def test_a_root_of_another_slope_is_refused(p):
    # each other root of cp has another valuation, so it misses the slope-alpha seed;
    # so does d + p^alpha, whose digit above p^alpha is off the seed's by one
    refused = 0
    for alpha in range(4):
        for cp, d, others in seeded_slope_roots(p, alpha):
            poly = newton_polygon(cp, p)
            for root in [*others, d + p ** alpha, 0]:
                with pytest.raises(AssertionError, match="congruent to the seed"):
                    hensel_slope_root(cp, poly, p, alpha, alpha + 9, root)
                refused += 1
    assert refused > 4 * 12 * 2


def test_a_seed_digit_alone_fails_the_residual_check():
    # d + p^(alpha + 1) has the seed's digit, but cp there has valuation content + 1
    for p in (2, 3, 5):
        for alpha in range(4):
            for cp, d, _ in seeded_slope_roots(p, alpha):
                poly = newton_polygon(cp, p)
                e = hensel_slope_root(cp, poly, p, alpha, alpha + 1).derivative_valuation
                N = alpha + e + 2  # content + 1 = alpha + e + 1 < N
                with pytest.raises(AssertionError, match="residual check"):
                    hensel_slope_root(cp, poly, p, alpha, N, d + p ** (alpha + 1))


@pytest.mark.parametrize("name,planted", [("prop_planted.json", True),
                                          ("prop_default.json", False)])
def test_only_planted_trials_hand_the_slope_root_over(name, planted, monkeypatch):
    # a PLANTED pair carries (d_slot, d'_slot), and every slope-root call of its trials
    # gets one; a POLYNOMIAL_PSI pair carries none, and its trials lift every root
    roots, original = [], family.hensel_slope_root

    def recorded(cp, poly, p, alpha, N, root=None):
        roots.append(root)
        return original(cp, poly, p, alpha, N, root)

    monkeypatch.setattr(family, "hensel_slope_root", recorded)
    report = run_experiment(read_config(CONFIG_DIR / name))
    # two calls a trial past the census gate, each of which then reaches a verdict
    assert len(roots) == 2 * sum(t.lam is not None for t in report.trials) > 0
    assert all((root is not None) == planted for root in roots)


# --- eigenvectors and the commuting operator ---------------------------------------

def test_eigenvector_examples():
    # mod 5^5, 5^(N + dv) at N = 4 and dv = v(cp'(lam)) = 1: cp'(5) is 5 - 125 and 5 - 25
    # for the first two; at lam = 0, A - lam I = I is invertible mod 5
    assert eigenvector_mod(diagonal([5, 125]), 5, 5, 5) == (1, 0)

    A = IntMatrix([[5, 1], [0, 25]])
    F = eigenvector_mod(A, 5, 5, 5)
    assert F[0] % 5 != 0
    assert F[1] == 0  # proportional to (1, 0)

    with pytest.raises(EigenvectorError):
        eigenvector_mod(IntMatrix.identity(2), 0, 5, 4)


def assert_eigenvector_is_the_top_kernel_generator(A, lam, p, N, dv):
    """eigenvector_at(A, lam, p, N, dv), eigenvector_mod's primitive vector mod p^(N + dv)
    reduced mod p^N, is a unit multiple of the last generator of the kernel oracle mod
    p^{2N}, reduced mod p^N, or eigenvector_mod raises where the oracle finds no kernel;
    returns the oracle's generators."""
    gens = kernel_mod(A.shift(-lam), p, 2 * N)
    if not gens:
        with pytest.raises(EigenvectorError):
            eigenvector_mod(A, lam, p, N + dv)
        return gens
    F = eigenvector_at(A, lam, p, N, dv)
    assert F == tuple(x % p**N for x in F)
    # eigenvector_mod leaves F unscaled; the oracle's generator has first unit coordinate 1
    assert unit_normalized(F, p, p**N) == tuple(x % p**N for x in gens[-1].vector)
    m = p ** min(N, gens[-1].order)
    assert all(x % m == 0 for x in A.shift(-lam).apply(F))
    return gens


def planted_eigen_steps(config, monkeypatch):
    """The prop run of a PLANTED config, and for each side of each accepted trial
    (A, lam, F, psi, a, N, cap): F is the eigenvector the trial's own pair carries,
    captured as the trial evaluates it, and eigenvector_mod must never run."""
    pairs, evaluate = {}, family._evaluate_proposition_pair

    def captured(plan, pair, index, seed):
        pairs[index] = pair
        return evaluate(plan, pair, index, seed)

    def no_eigenvector_mod(A, lam, p, M):
        raise AssertionError("a PLANTED trial solved for its eigenvector")

    monkeypatch.setattr(family, "_evaluate_proposition_pair", captured)
    monkeypatch.setattr(family, "eigenvector_mod", no_eigenvector_mod)
    report = run_experiment(config)
    N = report.plan.precision
    steps = []
    for t in report.trials:
        if t.status == family.ACCEPTED:
            pair = pairs[t.index]
            steps += [(pair.xi, t.lam, pair.eigenvector, pair.psi, t.a, N, t.margin_cap),
                      (pair.xi_prime, t.lam_prime, pair.eigenvector, pair.psi_prime, t.a_prime,
                       N, t.margin_cap)]
    return report, steps


def assert_constructed_eigenvector_is_the_top_kernel_generator(A, lam, F, p, N):
    """The exact eigenvector F of the root lam* that lam lifts (lam = lam* mod p^N) against
    the kernel oracle mod p^{2N}: the top order is at least N, (A - lam I) F = 0 mod p^N,
    and F is a unit multiple of the last generator mod p^(N - v_{r-1}), v_{r-1} the order
    below the top, which is all a kernel fixes once lam is only known mod p^N."""
    gens = kernel_mod(A.shift(-lam), p, 2 * N)
    assert gens and gens[-1].order >= N
    assert all(x % p**N == 0 for x in A.shift(-lam).apply(F))
    m = p ** (N - (gens[-2].order if len(gens) > 1 else 0))
    assert m > 1
    normalized = unit_normalized(F, p, p**N)
    assert all((x - y) % m == 0 for x, y in zip(normalized, gens[-1].vector))


@pytest.mark.parametrize("name", ["prop_default.json", "prop_planted.json", "constancy_default.json"])
def test_eigenvector_is_the_top_kernel_generator_on_shipped_trials(name, monkeypatch):
    config = read_config(CONFIG_DIR / name)
    if config.generator == "PLANTED":
        # the trial reads U e_slot off its pair; the same oracle, on that vector
        report, steps = planted_eigen_steps(config, monkeypatch)
        for A, lam, F, _, _, N, _ in steps:
            assert_constructed_eigenvector_is_the_top_kernel_generator(A, lam, F, config.p, N)
        assert len(steps) == 2 * report.accepted > 0
        return
    mode = "constancy" if config.nprime is not None else "prop"
    N = prepare_plan(config, mode).precision
    calls = []

    def eigenvector(A, lam, p, M):
        # the library's vector at the plan's N and the Hensel root's dv, from a Smith form
        # mod p^(N + dv), against the oracle's mod p^(2N); the trial's own call solves mod
        # p^M, M = cap <= N - alpha - dv, for a unit kernel vector mod p^cap, its witness
        root = lift(char_poly(A), p, config.alpha, N)
        assert root.value == lam
        dv = root.derivative_valuation
        calls.append(assert_eigenvector_is_the_top_kernel_generator(A, lam, p, N, dv))
        assert 1 <= M <= N - config.alpha - dv
        F = eigenvector_mod(A, lam, p, M)
        assert any(x % p for x in F) and all(x % p ** M == 0 for x in A.shift(-lam).apply(F))
        return F

    monkeypatch.setattr(family, "eigenvector_mod", eigenvector)
    report = run_experiment(config, mode)
    if mode == "constancy":
        assert calls == []  # constancy trials never extract an eigenvector
    else:
        assert len(calls) >= 2 * report.accepted > 0


def test_eigenvector_is_the_top_kernel_generator_on_random_kernels():
    # diagonal entries equal to lam give d_r = 0 mod p^{2N}; entries congruent to
    # lam mod p give kernels of finite order, several generators when there are more
    rng = SplitMix64(0x4B45)
    seen = {"none": 0, "several": 0, "zero divisor": 0}
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7))
        r, N = rng.randint(1, 8), rng.randint(1, 8)
        lam = p ** rng.randint(0, 3) * rng.unit(p, 9)
        diag = []
        for _ in range(r):
            kind = rng.randint(0, 3)
            if kind == 0:
                diag.append(lam)
            elif kind == 1:
                diag.append(lam + p ** rng.randint(1, 2 * N + 2) * rng.unit(p, 9))
            else:
                diag.append(rng.randint(-50, 50))
        U, Ui = random_unimodular(r, rng)
        # lam need not be a simple root here: dv = N is the Smith form mod p^(2N)
        gens = assert_eigenvector_is_the_top_kernel_generator(
            U * diagonal(diag) * Ui, lam, p, N, N)
        seen["none"] += not gens
        seen["several"] += len(gens) > 1
        seen["zero divisor"] += lam in diag
    assert min(seen.values()) >= 20, seen


def test_eigenvector_conjugation_oracle():
    rng = SplitMix64(1222)
    p, N = 5, 6
    pN = p**N
    for _ in range(30):
        U, Ui = random_unimodular(2, rng)
        A = U * diagonal([p, p**3]) * Ui
        F = eigenvector_at(A, p, p, N, 1)  # cp'(p) = p - p^3
        truth = tuple(row[0] for row in U.rows)
        # F must be a unit multiple of U e_1 mod p^N: the top divisor of A - p I is 0,
        # so the kernel is exact
        i = next(i for i, x in enumerate(truth) if x % p != 0)
        scale = F[i] * pow(truth[i] % pN, -1, pN)
        assert all((F[j] - scale * truth[j]) % pN == 0 for j in range(2))
        residual = (A - IntMatrix.identity(2).scale(p)).apply(F)
        assert all(x % pN == 0 for x in residual)


@pytest.mark.parametrize("name", ["prop_default.json", "prop_planted.json"])
def test_eigenvector_matches_integer_snf_on_shipped_trials(name, monkeypatch):
    # the eigenvector of each side of each accepted trial of the shipped config's 100
    # (eigenvector_mod's, or a PLANTED pair's own) against the vector the integer Smith
    # form gives: equal mod p^(N - e) once both have first unit coordinate 1, e the
    # Hensel root's derivative valuation, and the same commuting eigenvalue
    config = read_config(CONFIG_DIR / name)
    assert config.trials == 100
    if config.generator == "PLANTED":
        # the vector is the pair's exact U e_slot, not eigenvector_mod's
        report, steps = planted_eigen_steps(config, monkeypatch)
        p = config.p
        for A, lam, F, psi, a, N, cap in steps:
            root = lift(char_poly(A), p, config.alpha, N)
            assert root.value == lam
            old = eigenvector_by_integer_snf(A, lam, p, N)
            m = p ** (N - root.derivative_valuation)
            assert all((x - y) % m == 0 for x, y in zip(unit_normalized(F, p, p**N), old))
            a_old = commuting_eigenvalue(psi, old, p, cap)
            assert commuting_eigenvalue(psi, F, p, cap) == a_old == a
        assert len(steps) == 2 * report.accepted > 0
        return
    # a POLYNOMIAL_PSI trial reads a = q(lam) behind eigenvector_mod's vector mod p^cap as
    # its witness: psi applied to the integer-Smith vector, and to the library's vector at
    # the plan's N and the Hensel root's dv, gives that a too
    reference, pairs, evaluate = {}, {}, family._evaluate_proposition_pair
    N = prepare_plan(config, "prop").precision

    def eigenvector(A, lam, p, M):
        root = lift(char_poly(A), p, config.alpha, N)
        assert root.value == lam
        vec = eigenvector_at(A, lam, p, N, root.derivative_valuation)
        old = eigenvector_by_integer_snf(A, lam, p, N)
        m = p ** (N - root.derivative_valuation)
        assert all((x - y) % m == 0 for x, y in zip(unit_normalized(vec, p, p**N), old))
        witness = eigenvector_mod(A, lam, p, M)
        reference[A.rows, lam] = vec, old, witness
        return witness

    def captured(plan, pair, index, seed):
        pairs[index] = pair
        return evaluate(plan, pair, index, seed)

    monkeypatch.setattr(family, "eigenvector_mod", eigenvector)
    monkeypatch.setattr(family, "_evaluate_proposition_pair", captured)
    report = run_experiment(config)
    checked, p = 0, config.p
    for t in report.trials:
        if t.status != family.ACCEPTED:
            continue
        pair = pairs[t.index]
        for A, psi, lam, a in ((pair.xi, pair.psi, t.lam, t.a),
                               (pair.xi_prime, pair.psi_prime, t.lam_prime, t.a_prime)):
            vec, old, witness = reference[A.rows, lam]
            assert commuting_eigenvalue(psi, old, p, t.margin_cap) == a, t.index
            assert commuting_eigenvalue(psi, vec, p, t.margin_cap) == a, t.index
            assert commuting_eigenvalue(psi, witness, p, t.margin_cap) == a, t.index
            checked += 1
    assert checked == 2 * report.accepted > 0


def test_commuting_eigenvalue_examples():
    F = (1, 0)
    assert commuting_eigenvalue(IntMatrix.identity(2), F, 5, 3) == 1

    A = diagonal([5, 125])
    vec = eigenvector_mod(A, 5, 5, 4)
    assert commuting_eigenvalue(A, vec, 5, 3) == 5  # a = lambda


def test_commuting_eigenvalue_polynomial_functoriality():
    rng = SplitMix64(1323)
    p = 3
    for _ in range(25):
        r = rng.randint(2, 4)
        vals = list(range(r))  # distinct slopes, each simple
        A, diag, U = planted(rng, p, r, vals, unit_bound=2)
        alpha = rng.randint(0, r - 1)
        N = 12
        cp = char_poly(A)
        root = lift(cp, p, alpha, N)
        vec = eigenvector_at(A, root.value, p, N, root.derivative_valuation)
        coeffs = [rng.randint(-9, 9) for _ in range(r)]
        B = IntMatrix(poly_of_matrix_naive(coeffs, A.rows))
        cap = N - root.derivative_valuation - alpha
        a = commuting_eigenvalue(B, vec, p, cap)
        expected = 0
        for c in reversed(coeffs):
            expected = (expected * root.value + c) % p**cap
        assert a == expected


def test_commuting_eigenvalue_on_an_eigenvector_of_any_scale():
    # B = U diag(d) U^-1 takes the value d_j on column j of U, and on any unit multiple
    rng = SplitMix64(1324)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        r, M = rng.randint(1, 6), rng.randint(1, 60)
        U, Ui = random_unimodular(r, rng)
        diag = [rng.randint(-10**18, 10**18) << 64 | rng.next_u64() for _ in range(r)]
        B = U * diagonal(diag) * Ui
        j = rng.randint(0, r - 1)
        c = rng.unit(p, 10**18)
        F = tuple(c * row[j] for row in U.rows)
        assert commuting_eigenvalue(B, F, p, M) == diag[j] % p**M


def test_commuting_eigenvalue_consistency_error():
    B = IntMatrix([[0, 1], [0, 0]])
    with pytest.raises(ConsistencyError):
        commuting_eigenvalue(B, (1, 1), 5, 2)
    with pytest.raises(ConsistencyError):
        commuting_eigenvalue(B, (5, 10), 5, 2)  # no unit coordinate

