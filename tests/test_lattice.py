import hashlib
import json
import math
from decimal import Decimal
from fractions import Fraction

import pytest

from padicslopes.bounds import hilbert_profile
from padicslopes.family import gen_xi, random_unimodular
from padicslopes.lattice import (
    DivisorProfile,
    IntMatrix,
    SmithDecomposition,
    _ADD,
    _SCALE,
    _SWAP,
    check_xi_condition,
    json_text,
    matrix_from_document,
    quotient_profile,
    smith_normal_form,
)
from padicslopes.rng import SplitMix64

from oracles import (
    det_fraction, diagonal, kernel_mod, mat_add_naive, mat_mul_naive, valuation_by_division,
)


def random_matrix(rng, r, bound):
    return IntMatrix(
        [[rng.randint(-bound, bound) for _ in range(r)] for _ in range(r)]
    )


def assert_snf_contract(A):
    dec = smith_normal_form(A)
    assert dec.U * dec.D * dec.V == A
    assert abs(det_fraction(dec.U)) == 1
    assert abs(det_fraction(dec.V)) == 1
    assert dec.U * dec.u_inverse == IntMatrix.identity(A.r)
    assert dec.V * dec.v_inverse == IntMatrix.identity(A.r)
    d = dec.divisors
    assert all(x >= 0 for x in d)
    for x, y in zip(d, d[1:]):
        if x == 0:
            assert y == 0
        else:
            assert y % x == 0
    assert abs(det_fraction(dec.D)) == abs(det_fraction(A))
    return dec


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix([[1, 2]])
    with pytest.raises(ValueError):
        IntMatrix([])
    m = IntMatrix([[1, 2], [3, 4]])
    assert (m * IntMatrix.identity(2)) == m
    assert m.apply((1, 0)) == (1, 3)


def test_snf_examples():
    dec = smith_normal_form(diagonal([2, 3]))
    assert dec.divisors == (1, 6)
    assert_snf_contract(diagonal([2, 3]))

    for p in (2, 5):
        dec = smith_normal_form(diagonal([p, p]))
        assert dec.divisors == (p, p)

    dec = smith_normal_form(IntMatrix.zero(2))
    assert dec.divisors == (0, 0)

    # 2 clears its row and column but fails to divide 3: row 1 is folded into row 0
    dec = assert_snf_contract(IntMatrix([[2, 4], [6, 15]]))
    assert dec.divisors == (1, 6)
    assert any(kind == _ADD and k < i for kind, k, i, _ in dec.row_ops)
    # the least |x| is -2, so the first divisor comes out of a negated row
    dec = assert_snf_contract(IntMatrix([[-2, 4], [6, 8]]))
    assert dec.divisors == (2, 20)
    assert (_SCALE, 0, -1, -1) in dec.row_ops


def test_snf_random_contract():
    rng = SplitMix64(2024)
    for _ in range(120):
        r = rng.randint(1, 6)
        assert_snf_contract(random_matrix(rng, r, 10**4))


def test_snf_singular_matrices():
    rng = SplitMix64(5150)
    for _ in range(40):
        r = rng.randint(2, 5)
        A = random_matrix(rng, r, 50)
        rows = list(A.rows)
        rows[-1] = tuple(2 * x for x in rows[0])  # force rank deficiency
        assert_snf_contract(IntMatrix(rows))


def reduced(A, m):
    return tuple(tuple(x % m for x in row) for row in A.rows)


def assert_snf_mod_contract(A, p, N):
    m = p**N
    dec = smith_normal_form(A, p, N)
    ident = reduced(IntMatrix.identity(A.r), m)
    assert reduced(dec.U * dec.D * dec.V, m) == reduced(A, m)
    assert reduced(dec.U * dec.u_inverse, m) == ident
    assert reduced(dec.V * dec.v_inverse, m) == ident
    for M in (dec.U, dec.D, dec.V, dec.u_inverse, dec.v_inverse):
        assert all(0 <= x < m for row in M.rows for x in row)
    assert dec.D == diagonal(dec.divisors)
    vals = [N if d == 0 else valuation_by_division(d, p) for d in dec.divisors]
    assert list(dec.divisors) == [0 if v >= N else p**v for v in vals]
    assert vals == sorted(vals)
    exact = smith_normal_form(A).divisors
    assert vals == [N if d == 0 else min(N, valuation_by_division(d, p)) for d in exact]
    return vals


def test_matrix_document_decimal_strings_of_any_length():
    big = 7**9000  # 7606 digits, past the default int-to-str limit of 4300
    doc = {"rows": [[str(Decimal(big)), "-" + str(Decimal(big))], ["+12", "0"]]}
    assert matrix_from_document(doc) == IntMatrix([[big, -big], [12, 0]])
    for bad in ("\u00b2", "1e3", "1_000", "NaN", "0x1f", ""):
        with pytest.raises(ValueError):
            matrix_from_document({"rows": [[bad]]})


def test_json_text_is_json_dumps_indented_and_sorted():
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings, strategies as st

    scalars = st.one_of(
        st.none(), st.booleans(), st.integers(),
        st.integers(min_value=2**64), st.integers(max_value=-2**64),
        st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
        st.text(), st.sampled_from(["\x00\x1f\x7f\"\\", "\u00e9\u2028\U0001f600", "\ud800"]),
    )
    docs = st.recursive(scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ), max_leaves=40)

    @settings(derandomize=True, deadline=None, database=None, max_examples=300)
    @given(doc=docs)
    @example(doc={"b": [], "a": {}, "": [[], {}, ()], "c": {"z": -0.0, "y": [None, True]}})
    def check(doc):
        assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    check()
    with pytest.raises(TypeError):
        json_text({"a": [1, Fraction(1, 2)]})


def test_snf_mod_examples():
    dec = smith_normal_form(diagonal([2, 3]), 3, 2)
    assert dec.divisors == (1, 3)
    dec = smith_normal_form(IntMatrix([[5, 1], [0, 5]]), 5, 3)
    assert dec.divisors == (1, 25)
    assert smith_normal_form(diagonal([0, 27, 6]), 3, 2).divisors == (3, 0, 0)
    assert smith_normal_form(IntMatrix.zero(2), 2, 4).divisors == (0, 0)
    with pytest.raises(ValueError):
        smith_normal_form(IntMatrix.identity(2), 4, 2)
    with pytest.raises(ValueError):
        smith_normal_form(IntMatrix.identity(2), 3, 0)
    with pytest.raises(ValueError):
        smith_normal_form(IntMatrix.identity(2), None, 2)


def p_local_corpus(rng, count):
    """(A, p, N) of ranks 1 to 9 over p in {2, 3, 5, 7}: in turn random, singular (the
    last row a combination of two others), with trailing rows 0 mod p^N (all of
    them at times), and conjugated diagonals of valuations up to N + 2."""
    for k in range(count):
        r, p, N = 1 + k % 9, (2, 3, 5, 7)[k // 9 % 4], rng.randint(1, 24)
        if k % 4 == 3:
            diag = [p ** rng.randint(0, N + 2) * rng.unit(p, 50) for _ in range(r)]
            U, Ui = random_unimodular(r, rng)
            yield U * diagonal(diag) * Ui, p, N
            continue
        rows = [rng.randints(-10**4, 10**4, r) for _ in range(r)]
        if k % 4 == 1:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[-2 % r])]
        elif k % 4 == 2:
            for i in range(rng.randint(r // 2, r), r):
                rows[i] = [p**N * x for x in rows[i]]
        yield IntMatrix(rows), p, N


# SHA-256 of every (D.rows, row_ops, col_ops) of p_local_corpus(SplitMix64(0x5A1C), 300),
# taken when the two rings had separate elimination loops; the eigenvector reads
# these logs, so the shipped report digests rest on them
P_LOCAL_LOG_DIGEST = "86aff1b9910d284bd7f3e715a8741ba7818c89988d5db64157f2863a99efbcca"


def test_p_local_elimination_logs_match_the_pinned_digest():
    digest = hashlib.sha256()
    zero_blocks = 0
    for A, p, N in p_local_corpus(SplitMix64(0x5A1C), 300):
        dec = smith_normal_form(A, p, N)
        digest.update(repr((dec.D.rows, dec.row_ops, dec.col_ops)).encode())
        zero_blocks += dec.divisors[-1] == 0
    assert zero_blocks >= 150  # 179: the block below the last pivot is 0 mod p^N
    assert digest.hexdigest() == P_LOCAL_LOG_DIGEST


def test_integer_transforms_stay_small_at_rank_12():
    # xi - lam I, lam a unit below 3^32 as at the eigenvector's working precision.
    # The largest entry of U, V, U^-1 and V^-1 is at most 2,116 bits on these four;
    # an earlier integer loop, which went on clearing the pivot's row after a
    # remainder was left in its column, reached 20,334 to 23,148 bits on them
    profile = hilbert_profile(2, 1, 12, max_rank=12)
    rng = SplitMix64(0x5A1D)
    bits = 0
    for _ in range(4):
        xi = gen_xi(profile, 3, 2, rng)
        dec = assert_snf_contract(xi.shift(-rng.unit(3, 3**32)))
        for M in (dec.U, dec.V, dec.u_inverse, dec.v_inverse):
            bits = max(bits, max(abs(x).bit_length() for row in M.rows for x in row))
    assert bits <= 8000


def test_snf_mod_random_contract():
    rng = SplitMix64(7301)
    for _ in range(150):
        p = rng.choice((2, 3, 5))
        r = rng.randint(1, 8)
        N = rng.randint(1, 12)
        A = random_matrix(rng, r, rng.choice((p, 10**4)))
        assert_snf_mod_contract(A, p, N)


def test_snf_mod_planted_contract():
    rng = SplitMix64(7302)
    for _ in range(120):
        p = rng.choice((2, 3, 5))
        r = rng.randint(1, 8)
        N = rng.randint(1, 10)
        vals = [rng.randint(0, N + 2) for _ in range(r)]
        diag = [p**v * rng.unit(p, 50) for v in vals]
        if rng.randint(0, 3) == 0:
            diag[rng.randint(0, r - 1)] = 0  # singular
            vals = [N + 3 if x == 0 else v for x, v in zip(diag, vals)]
        U, Ui = random_unimodular(r, rng)
        got = assert_snf_mod_contract(U * diagonal(diag) * Ui, p, N)
        assert got == sorted(min(N, v) for v in vals)


def oracle_matrices(rng, count):
    """Random matrices of rank 1 to 8; about a third are singular, their last row
    a combination of the first and the last but one (0 at rank 1)."""
    for _ in range(count):
        r = rng.randint(1, 8)
        rows = list(random_matrix(rng, r, rng.choice((3, 50, 10**4))).rows)
        if rng.randint(0, 2) == 0:
            a, b = rng.randint(-3, 3), rng.randint(-3, 3)
            rows[-1] = [0] if r == 1 else [a * x + b * y for x, y in zip(rows[0], rows[-2])]
        yield IntMatrix(rows)


def sympy_invariant_factors(A):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors
    return tuple(abs(int(f)) for f in invariant_factors(sympy.Matrix(A.rows), domain=sympy.ZZ))


def test_snf_divisors_match_sympy_invariant_factors():
    rng = SplitMix64(0x5A17)
    singular = 0
    for A in oracle_matrices(rng, 150):
        factors = sympy_invariant_factors(A)
        assert smith_normal_form(A).divisors == factors, A.rows
        singular += factors[-1] == 0
    assert singular >= 20


def test_snf_mod_valuations_match_sympy_invariant_factors():
    rng = SplitMix64(0x5A18)
    for A in oracle_matrices(rng, 150):
        factors = sympy_invariant_factors(A)
        p = rng.choice((2, 3, 5, 7))
        N = rng.randint(1, 12)
        divisors = smith_normal_form(A, p, N).divisors
        got = [N if d == 0 else valuation_by_division(d, p) for d in divisors]
        assert got == [N if f == 0 else min(N, valuation_by_division(f, p)) for f in factors]


def test_snf_forms_each_transform_only_when_read():
    rng = SplitMix64(0x5A19)
    A = random_matrix(rng, 6, 10**4)
    for dec in (smith_normal_form(A), smith_normal_form(A, 3, 20)):
        assert dec.divisors and dec.v_inverse.r == 6  # what kernel_mod reads
        formed = {"U", "V", "u_inverse", "v_inverse"} & set(vars(dec))
        assert formed == {"v_inverse"}
        assert dec.U is dec.U and dec.V is dec.V and dec.u_inverse is dec.u_inverse
        assert {"U", "V", "u_inverse", "v_inverse"} <= set(vars(dec))


def test_v_inverse_column_equals_the_formed_column():
    rng = SplitMix64(0x5A1A)
    for A in oracle_matrices(rng, 150):
        p = rng.choice((2, 3, 5, 7))
        for dec in (smith_normal_form(A), smith_normal_form(A, p, rng.randint(1, 20))):
            columns = [dec.v_inverse_column(j) for j in range(A.r)]
            assert {"U", "V", "u_inverse", "v_inverse"}.isdisjoint(vars(dec))  # nothing formed
            assert columns == list(zip(*dec.v_inverse.rows))


def test_v_inverse_column_replays_every_kind_of_logged_operation():
    # elimination logs no column scale, so random logs of adds, swaps and unit
    # scales (+-1 over Z, units mod p^N) check the replay itself
    rng = SplitMix64(0x5A1B)
    for _ in range(150):
        r = rng.randint(1, 8)
        p, N = rng.choice((2, 3, 5, 7)), rng.randint(1, 20)
        for mod in (0, p**N):
            ops = []
            for _ in range(rng.randint(0, 30)):
                a, b = rng.randint(0, r - 1), rng.randint(0, r - 1)
                kind = rng.randint(0, 2)
                if kind == 0 and a != b:
                    ops.append((_ADD, a, b, rng.randint(-10**6, 10**6)))
                elif kind == 1:
                    ops.append((_SWAP, a, b, None))
                else:
                    c = rng.unit(p, 10**6) % mod if mod else rng.choice((1, -1))
                    ops.append((_SCALE, a, c, pow(c, -1, mod) if mod else c))
            dec = SmithDecomposition(IntMatrix.identity(r), (), tuple(ops), mod)
            columns = [dec.v_inverse_column(j) for j in range(r)]
            assert columns == list(zip(*dec.v_inverse.rows))


def test_quotient_profile_examples():
    p = 5
    assert quotient_profile(diagonal([p**2, p]), p, 3).a == (2, 1)
    assert quotient_profile(diagonal([1, 1]), p, 3).a == (0, 0)
    # SNF of [[5,1],[0,5]] is diag(1, 25)
    dec = smith_normal_form(IntMatrix([[5, 1], [0, 5]]))
    assert dec.divisors == (1, 25)
    assert quotient_profile(IntMatrix([[5, 1], [0, 5]]), 5, 2).a == (2, 0)


def test_quotient_profile_generating_set_invariance():
    rng = SplitMix64(31337)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        r = rng.randint(2, 5)
        n = 4
        exponents = sorted((rng.randint(0, n) for _ in range(r)), reverse=True)
        Kgen = diagonal([p**e for e in exponents])
        base = quotient_profile(Kgen, p, n)
        W, _ = random_unimodular(r, rng)
        assert quotient_profile(Kgen * W, p, n).a == base.a
        assert base.a == tuple(exponents)


def test_quotient_profile_errors():
    with pytest.raises(ValueError):
        quotient_profile(IntMatrix.zero(2), 5, 3)  # not finite index
    with pytest.raises(ValueError):
        quotient_profile(diagonal([6, 1]), 2, 3)  # stray factor 3
    with pytest.raises(ValueError):
        quotient_profile(diagonal([8, 1]), 2, 2)  # exponent 3 > n


def test_check_xi_examples():
    rng = SplitMix64(99)
    p, n = 3, 3
    profile = DivisorProfile(n=n, a=(2, 1, 0))
    A = random_matrix(rng, 3, 100)
    assert check_xi_condition(A.scale(p**n), profile, p)
    full = DivisorProfile(n=n, a=(n, n, n))
    assert check_xi_condition(A, full, p)
    bad = IntMatrix([[1, 2], [0, 4]])
    assert check_xi_condition(bad, DivisorProfile(n=2, a=(2, 0)), 2) is False
    with pytest.raises(ValueError):
        check_xi_condition(bad, profile, 2)


def test_check_xi_closed_under_addition():
    rng = SplitMix64(400)
    p, n = 2, 4
    profile = DivisorProfile(n=n, a=(4, 2, 1, 0))
    for _ in range(50):
        cols = lambda: [
            [p ** (n - aj) * rng.randint(-8, 8) for aj in profile.a] for _ in range(4)
        ]
        x, y = IntMatrix(cols()), IntMatrix(cols())
        assert check_xi_condition(x, profile, p)
        assert check_xi_condition(y, profile, p)
        assert check_xi_condition(IntMatrix(mat_add_naive(x.rows, y.rows)), profile, p)


def test_profile_validation():
    with pytest.raises(ValueError):
        DivisorProfile(n=3, a=(1, 2))  # increasing
    with pytest.raises(ValueError):
        DivisorProfile(n=3, a=(4, 1))  # above level
    with pytest.raises(ValueError):
        DivisorProfile(n=3, a=())


def test_constructors_refuse_inexact_entries():
    # operator.index: a float or a string is refused, not truncated or parsed
    for bad in (1.5, 2.0, "12", Decimal(3)):
        with pytest.raises(TypeError):
            IntMatrix([[bad]])
        with pytest.raises(TypeError):
            diagonal([1, bad])
        with pytest.raises(TypeError):
            DivisorProfile(n=16, a=(16, bad))
    with pytest.raises(TypeError):
        DivisorProfile(n=16, a=(16, True))
    with pytest.raises(ValueError):
        DivisorProfile(n=True, a=(1,))
    assert IntMatrix([[12]]).rows == ((12,),)
    assert DivisorProfile(n=16, a=[16, 15]).a == (16, 15)


def test_kernel_mod_examples():
    assert kernel_mod(IntMatrix.identity(3), 5, 3) == []
    gens = kernel_mod(diagonal([5, 1]), 5, 3)
    assert len(gens) == 1
    assert gens[0].vector == (1, 0)
    assert gens[0].order == 1
    # direct solve oracle: 5x = 0 mod 125 iff 25 | x
    assert [x for x in range(125) if 5 * x % 125 == 0] == [25 * k for k in range(5)]

    gens = kernel_mod(IntMatrix.zero(2), 3, 4)
    assert [g.order for g in gens] == [4, 4]
    assert sorted(g.vector for g in gens) == [(0, 1), (1, 0)]


def test_kernel_mod_membership_and_size():
    rng = SplitMix64(808)
    for _ in range(40):
        p = rng.choice((2, 3))
        N = rng.randint(1, 3)
        r = rng.randint(1, 2)
        A = random_matrix(rng, r, 12)
        gens = kernel_mod(A, p, N)
        pN = p**N
        for g in gens:
            elem = tuple(p ** (N - g.order) * x % pN for x in g.vector)
            assert all(v % pN == 0 for v in A.apply(elem))
        # brute-force size oracle over all of (Z/p^N)^r
        count = 0
        for idx in range(pN**r):
            vec = []
            k = idx
            for _ in range(r):
                vec.append(k % pN)
                k //= pN
            if all(v % pN == 0 for v in A.apply(tuple(vec))):
                count += 1
        expected = 1
        for g in gens:
            expected *= p**g.order
        assert count == expected


def test_matrix_document_round_trip():
    A = IntMatrix([[10**40, -3], [0, 7]])
    doc = {"rows": [list(row) for row in A.rows]}
    assert matrix_from_document(json.loads(json.dumps(doc))) == A
    # decimal strings accepted for big values
    assert matrix_from_document({"rows": [[str(10**40), "-3"], ["0", "7"]]}) == A
    with pytest.raises(ValueError):
        matrix_from_document({"rows": [[1, 2]], "extra": 1})
    with pytest.raises(ValueError):
        matrix_from_document({"rows": [[1.5, 2], [3, 4]]})
    with pytest.raises(ValueError):
        matrix_from_document({"rows": [[True, 2], [3, 4]]})
    with pytest.raises(ValueError):
        matrix_from_document({"rows": []})


# --- the product kernel against the schoolbook oracle ---------------------------------

def kernel_entry(rng):
    """0, a small signed value, or a signed value of 200 to 264 bits, with equal odds."""
    kind = rng.randint(0, 2)
    if kind == 0:
        return 0
    if kind == 1:
        return rng.randint(-9, 9)
    return rng.choice((1, -1)) * (1 << 200 | rng.next_u64() << 136 | rng.next_u64())


def kernel_rows(rng, r):
    return [[kernel_entry(rng) for _ in range(r)] for _ in range(r)]


def scaled(rows, c):
    return [[c * x for x in row] for row in rows]


def identity_rows(r):
    return [[1 if i == j else 0 for j in range(r)] for i in range(r)]


@pytest.mark.parametrize("r", range(1, 9))
def test_kernel_arithmetic_matches_the_schoolbook_oracle(r):
    rng = SplitMix64(0x6B65726E + r)
    for _ in range(4):
        a, b = kernel_rows(rng, r), kernel_rows(rng, r)
        c = kernel_entry(rng)
        vec = [kernel_entry(rng) for _ in range(r)]
        A, B = IntMatrix(a), IntMatrix(b)
        cases = [
            (A * B, mat_mul_naive(a, b)),
            (B * A, mat_mul_naive(b, a)),
            (A * A, mat_mul_naive(a, a)),
            (A - B, mat_add_naive(a, scaled(b, -1))),
            (A.scale(c), scaled(a, c)),
            (A.shift(c), mat_add_naive(a, scaled(identity_rows(r), c))),
            (IntMatrix.identity(r), identity_rows(r)),
            (IntMatrix.zero(r), scaled(identity_rows(r), 0)),
        ]
        for got, rows in cases:
            expected = IntMatrix(rows)
            assert got == expected
            assert hash(got) == hash(expected)
            assert all(type(x) is int for row in got.rows for x in row)
        assert A.apply(vec) == tuple(row[0] for row in mat_mul_naive(a, [[v] for v in vec]))


def test_kernel_entries_reach_200_bits_zero_and_negative_values():
    rng = SplitMix64(0x6B65726E + 8)
    entries = [x for row in kernel_rows(rng, 8) for x in row]
    assert 0 in entries and min(entries) < 0
    assert max(abs(x) for x in entries).bit_length() > 200


def test_public_constructors_still_validate():
    for rows in ([[1, 2]], [[1], [2, 3]], [], [[]], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            IntMatrix(rows)
    for rows in ([["x"]], [[None]], [[1, 2], [3, []]]):
        with pytest.raises((ValueError, TypeError)):
            IntMatrix(rows)
    with pytest.raises(ValueError):
        IntMatrix(())
    with pytest.raises(ValueError):
        diagonal([])
    with pytest.raises(ValueError):
        matrix_from_document({"rows": [[1.5]]})
    for r in (0, -1):
        with pytest.raises(ValueError):
            IntMatrix.identity(r)
        with pytest.raises(ValueError):
            IntMatrix.zero(r)
    A = IntMatrix([[True, 2], [3, 4]])
    assert type(A.rows[0][0]) is int
    with pytest.raises(TypeError):
        A.scale(1.5)
    with pytest.raises(TypeError):
        A.shift(0.5)
    with pytest.raises(ValueError):
        A * IntMatrix.identity(3)
    with pytest.raises(ValueError):
        A.apply((1, 2, 3))
