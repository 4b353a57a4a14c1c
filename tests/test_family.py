import hashlib
import json
import os
import pickle
import random
import signal
from fractions import Fraction
from operator import add
from pathlib import Path

import pytest

from padicslopes.family import (
    ACCEPTED,
    REJECTED,
    VIOLATION,
    ConjugatedDiagonal,
    ExperimentReport,
    InstancePair,
    PolynomialOperator,
    _assert_pair_invariants,
    _congruence_moduli,
    _evaluate_constancy_pair,
    _evaluate_proposition_pair,
    _generate_pair,
    _multiplicity_differences,
    config_from_document,
    gen_congruent_pair,
    gen_planted_quadruple,
    gen_psi_polynomial,
    gen_xi,
    operator_rows,
    prepare_plan,
    read_config,
    report_to_json,
    run_experiment,
    run_proposition_trial,
)
from padicslopes.bounds import c_exact, resolve_kappa
from padicslopes.lattice import (
    KERNEL_MAX_RANK, DivisorProfile, InputError, IntMatrix, _column_scales, check_xi_condition,
    json_text, random_unimodular, smith_normal_form,
)
from padicslopes import family, newton
from padicslopes.newton import SlopeSegment, char_poly, newton_polygon
from padicslopes.padics import INFINITY, padic_valuation
from padicslopes.rng import _BATCH, _WORD_STEP, SplitMix64, _mix, trial_seed

from oracles import (
    charpoly_faddeev, det_fraction, diagonal, gen_congruent_pair_by_rows, gen_xi_by_rows,
    horner_mod, mat_add_naive, multiplicity_differences_by_dict, poly_apply_naive,
    poly_of_matrix_naive,
    random_unimodular_by_randint, random_unimodular_by_replay, report_document,
    same_quotient_action,
    sigma_with_plain_moduli, trial_document, valuation_by_division,
)
from test_report_digests import PINNED, SHARP_SLACK_ZERO, VARIANTS, variant_ids

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def base_doc(**overrides):
    doc = {
        "p": 3,
        "profile": {"kind": "hilbert", "d": 1, "h": 1, "n": 12, "max_rank": 8},
        "alpha": 1,
        "kappa": "auto",
        "trials": 10,
        "master_seed": 20260808,
        "generator": "POLYNOMIAL_PSI",
    }
    doc.update(overrides)
    return doc


# --- seed derivation ----------------------------------------------------------------

def test_trial_seed_reference_vectors():
    # published SplitMix64 outputs for seed state 0
    assert trial_seed(0, 0) == 0xE220A8397B1DCDAF
    assert trial_seed(0, 1) == 0x6E789E6AA1B965F4
    assert trial_seed(0, 2) == 0x06C45D188009454F
    assert trial_seed(1, 0) != trial_seed(0, 0)


def test_splitmix_randint_deterministic_and_bounded():
    a, b = SplitMix64(9), SplitMix64(9)
    xs = [a.randint(-5, 5) for _ in range(200)]
    assert xs == [b.randint(-5, 5) for _ in range(200)]
    assert all(-5 <= x <= 5 for x in xs)
    assert len(set(xs)) == 11  # every value hit at this sample size
    u = SplitMix64(10)
    assert all(u.unit(3, 9) % 3 != 0 for _ in range(50))


GOLDEN = 0x9E3779B97F4A7C15


class _ScalarSplitMix64:
    """The reference stream, one word at a time: _mix(seed + i * GOLDEN) for i = 1, 2, ..."""

    def __init__(self, seed):
        self.state = seed % 2**64

    def next_u64(self):
        self.state = (self.state + GOLDEN) % 2**64
        return _mix(self.state)


def _randint_by_next_u64(rng, lo, hi):
    # the rejection sampler written out over next_u64, independent of randint and randints
    span = hi - lo + 1
    limit = 2**64 - 2**64 % span
    while True:
        x = rng.next_u64()
        if x < limit:
            return lo + x % span


@pytest.mark.parametrize("seed", [0, 31, 2**64 - 1])
def test_next_u64_is_the_scalar_stream_across_batches(seed):
    rng, oracle = SplitMix64(seed), _ScalarSplitMix64(seed)
    assert [rng.next_u64() for _ in range(3 * _BATCH + 1)] == [
        oracle.next_u64() for _ in range(3 * _BATCH + 1)]


@pytest.mark.parametrize("k", [0, 1, 2, 36, 40, 64, 65, 80, 81, 257])
@pytest.mark.parametrize("lo,hi", [(5, 5), (-9, 9), (0, 2**32 - 1), (-2**62, 2**62)])
def test_randints_is_k_randint_calls(lo, hi, k):
    batch, single, oracle = SplitMix64(31), SplitMix64(31), _ScalarSplitMix64(31)
    xs = batch.randints(lo, hi, k)
    assert xs == [single.randint(lo, hi) for _ in range(k)]
    assert xs == [_randint_by_next_u64(oracle, lo, hi) for _ in range(k)]
    assert all(lo <= x <= hi for x in xs)
    assert batch.next_u64() == single.next_u64() == oracle.next_u64()


def test_interleaved_draws_are_one_stream():
    # randint, randints and next_u64 in any order read one stream of words, as the
    # rejection sampler over the scalar stream reads it, and stop where it stops: _mix is
    # a bijection, so equal next words mean an equal position in the stream
    spans = [(5, 5), (-9, 9), (0, 2**32 - 1), (-2**62, 2**62), (0, 2**64 - 2)]
    plan = random.Random(2014)
    rng, oracle = SplitMix64(77), _ScalarSplitMix64(77)
    for _ in range(400):
        lo, hi = plan.choice(spans)
        op = plan.randrange(3)
        if op == 0:
            k = plan.choice([0, 1, 2, 6, 36, 79, 80, 81, 255, 256, 257, 600])
            assert rng.randints(lo, hi, k) == [_randint_by_next_u64(oracle, lo, hi) for _ in range(k)]
        elif op == 1:
            assert rng.randint(lo, hi) == _randint_by_next_u64(oracle, lo, hi)
        else:
            assert rng.next_u64() == oracle.next_u64()
        assert rng.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("byteorder", ["little", "big"])
def test_lane_words_read_alike_in_either_byte_order(byteorder):
    # a 'Q' view reads native 8-byte words; the lanes' high halves hold what the last
    # shift carried in from the next lane, which the word step must skip
    source = SplitMix64(5)
    words = [source.next_u64() for _ in range(9)]
    z = sum((w | source.next_u64() << 64) << (128 * i) for i, w in enumerate(words))
    data = z.to_bytes(16 * len(words), byteorder)
    native = [int.from_bytes(data[j:j + 8], byteorder) for j in range(0, len(data), 8)]
    assert native[::_WORD_STEP[byteorder]] == words


def test_randints_rejects_the_draws_above_the_last_whole_span():
    # span 2^63 + 1 takes words below 2^63 + 1 only, so about half the words are
    # rejected: 40 values must take more than 40 steps of the stream. The words of a
    # stream are distinct, so the next word shows how many randints read.
    lo, hi = -2**62, 2**62
    rng = SplitMix64(31)
    rng.randints(lo, hi, 40)
    after = rng.next_u64()
    words, steps = _ScalarSplitMix64(31), 0
    while words.next_u64() != after:
        steps += 1
    assert steps > 40


def _unmix(z):
    # the inverse of SplitMix64's output function: each multiply and xor-shift undone in turn
    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x
    z = unshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) % 2**64
    z = unshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) % 2**64
    return unshift(z, 30)


@pytest.mark.parametrize("lo,hi", [(-9, 9), (-2**62, 2**62)])
def test_a_word_at_the_limit_is_rejected_and_one_below_is_kept(lo, hi):
    span = hi - lo + 1
    limit = 2**64 - 2**64 % span
    for first, kept in ((limit, False), (limit - 1, True)):
        seed = (_unmix(first) - GOLDEN) % 2**64  # the state before that word
        assert SplitMix64(seed).next_u64() == first
        one = SplitMix64(seed)
        one.randint(lo, hi)  # one word if it is kept, more if it is rejected
        assert (one.next_u64() == _mix((seed + 2 * GOLDEN) % 2**64)) == kept
        oracle = _ScalarSplitMix64(seed)
        expected = [_randint_by_next_u64(oracle, lo, hi) for _ in range(3)]
        single = SplitMix64(seed)
        assert [single.randint(lo, hi) for _ in range(3)] == expected
        batch = SplitMix64(seed)
        assert batch.randints(lo, hi, 3) == expected
        assert single.next_u64() == batch.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("lo,hi", [(-9, 9), (-2**62, 2**62)])
def test_a_word_at_the_limit_ending_a_batch_is_read_alike_across_the_refill(lo, hi):
    # word _BATCH - 1, the last of the first batch, is put at the limit, then one below
    # it; a randints run that straddles the refill, single randint calls and next_u64
    # each read what the scalar oracle reads and stop at its word, from the stream's
    # start and from three words before the refill
    span = hi - lo + 1
    limit = 2**64 - 2**64 % span
    for word in (limit, limit - 1):
        seed = (_unmix(word) - _BATCH * GOLDEN) % 2**64  # the state _BATCH words before it
        probe = _ScalarSplitMix64(seed)
        assert [probe.next_u64() for _ in range(_BATCH)][-1] == word
        for skip, k in ((0, _BATCH + 2), (_BATCH - 3, 5)):
            def fresh(stream):
                for _ in range(skip):
                    stream.next_u64()
                return stream
            oracle = fresh(_ScalarSplitMix64(seed))
            expected = [_randint_by_next_u64(oracle, lo, hi) for _ in range(k)]
            after = oracle.next_u64()
            batch, single = fresh(SplitMix64(seed)), fresh(SplitMix64(seed))
            assert batch.randints(lo, hi, k) == expected
            assert [single.randint(lo, hi) for _ in range(k)] == expected
            assert batch.next_u64() == single.next_u64() == after
            words, oracle = fresh(SplitMix64(seed)), fresh(_ScalarSplitMix64(seed))
            assert [words.next_u64() for _ in range(_BATCH + 2 - skip)] == [
                oracle.next_u64() for _ in range(_BATCH + 2 - skip)]
            assert words.next_u64() == oracle.next_u64()


def _unit_by_next_u64(rng, p, bound):
    # unit's rule written out over the scalar stream's rejection sampler
    while True:
        u = _randint_by_next_u64(rng, -bound, bound)
        if u % p:
            return u


def _skipped(stream, skip):
    for _ in range(skip):
        stream.next_u64()
    return stream


# (lo, hi) ranges drawn in turn: random_unimodular's at ranks 6 and 2, and spans just
# over 2^63 (about half the words rejected) beside narrow and 64-bit wide ones
RANGE_CYCLES = {
    "shears-r6": ((0, 5), (0, 4), (-2, 2)),
    "shears-r2": ((0, 1), (0, 0), (-2, 2)),
    "wide-and-narrow": ((-2**62, 2**62), (-9, 9), (0, 2**64 - 2)),
    "wide": ((-2**62, 2**62),),
}


@pytest.mark.parametrize("skip", [0, _BATCH - 7, _BATCH - 1])
@pytest.mark.parametrize("k", [0, 1, 3, 36, 80, 161])
@pytest.mark.parametrize("ranges", RANGE_CYCLES.values(), ids=RANGE_CYCLES.keys())
def test_cycled_is_randint_calls_over_the_ranges_in_turn(ranges, k, skip):
    # the one-pass draw returns what k randint calls over the ranges in turn return, the
    # scalar stream's rejection sampler too, and stops at their word; skips start it 7
    # words and 1 word before the first batch ends, so the run crosses a refill
    rng, single, oracle = (_skipped(s, skip) for s in
                           (SplitMix64(41), SplitMix64(41), _ScalarSplitMix64(41)))
    turns = [ranges[i % len(ranges)] for i in range(k)]
    expected = [_randint_by_next_u64(oracle, lo, hi) for lo, hi in turns]
    assert rng.cycled(ranges, k) == expected
    assert [single.randint(lo, hi) for lo, hi in turns] == expected
    assert rng.next_u64() == single.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("skip", [0, _BATCH - 5])
@pytest.mark.parametrize("k", [0, 1, 6, 40, 90])
@pytest.mark.parametrize("p,bound", [(3, 9), (2, 1), (5, 25), (3, 2**62), (2, 2**62)])
def test_units_are_unit_calls(p, bound, k, skip):
    # the one-pass draw of k units returns what k unit calls return and stops at their
    # word; at bound 2^62 the span is 2^63 + 1, so about half the words are rejected
    # before the unit test rejects more
    rng, single, oracle = (_skipped(s, skip) for s in
                           (SplitMix64(43), SplitMix64(43), _ScalarSplitMix64(43)))
    expected = [_unit_by_next_u64(oracle, p, bound) for _ in range(k)]
    assert rng.units(p, bound, k) == expected
    assert [single.unit(p, bound) for _ in range(k)] == expected
    assert rng.next_u64() == single.next_u64() == oracle.next_u64()


def test_the_wide_draws_reject_words():
    # the control of the two tests above: at a span just over 2^63 both one-pass draws
    # read more words than they return, so their rejections are exercised
    for draw in (lambda rng: rng.cycled(RANGE_CYCLES["wide"], 40),
                 lambda rng: rng.units(2, 2**62, 40)):
        rng = SplitMix64(31)
        draw(rng)
        after, words, steps = rng.next_u64(), _ScalarSplitMix64(31), 0
        while words.next_u64() != after:
            steps += 1
        assert steps > 50


def test_randints_range_errors():
    rng = SplitMix64(1)
    for k in (0, 3):
        with pytest.raises(ValueError, match="empty range"):
            rng.randints(1, 0, k)
        with pytest.raises(ValueError, match="wider than 64 bits"):
            rng.randints(0, 2**64, k)
    with pytest.raises(ValueError, match="empty range"):
        rng.randint(1, 0)
    with pytest.raises(ValueError, match="wider than 64 bits"):
        rng.randint(-2**63, 2**63)
    assert 0 <= rng.randint(0, 2**64 - 2) < 2**64 - 1  # the widest span allowed


def test_random_unimodular():
    rng = SplitMix64(77)
    for _ in range(25):
        r = rng.randint(1, 6)
        U, Ui = random_unimodular(r, rng)
        assert (U * Ui).rows == IntMatrix.identity(r).rows
        assert abs(det_fraction(U)) == 1


@pytest.mark.parametrize("r", range(1, 9))
def test_random_unimodular_reads_the_words_of_its_randint_calls(r):
    # the shears are drawn by the 6r randint calls the oracle makes, in its order: same
    # U and U^-1, and the stream stops at the same word
    for seed in range(200):
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        assert [m.rows for m in random_unimodular(r, rng)] == \
            [m.rows for m in random_unimodular_by_randint(r, oracle)]
        assert rng.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("r", range(1, 11))
def test_random_unimodular_is_the_replay_of_its_logged_shears(r):
    # the one-pass U and U^-T against the formulas they replaced: the 2r shears logged
    # from three randint calls each, U the replayed log and U^-1 the transposed replay of
    # the inverse-transposed log; the same matrices, and the stream stops at the same word
    for seed in range(200):
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        assert [m.rows for m in random_unimodular(r, rng)] == \
            [m.rows for m in random_unimodular_by_replay(r, oracle)]
        assert rng.next_u64() == oracle.next_u64()


@pytest.mark.parametrize("position,span", [(0, 6), (1, 5), (2, 5)])
def test_a_shear_word_at_the_limit_is_skipped_for_the_same_draw(position, span):
    # at rank 6 the first shear draws i from [0, 5], j from [0, 4] and q from [-2, 2];
    # the word of draw `position` is put at that range's limit, where randint skips it
    # and the next word serves the same draw, then one below it
    limit = 2**64 - 2**64 % span
    for word in (limit, limit - 1):
        seed = (_unmix(word) - (position + 1) * GOLDEN) % 2**64
        probe = SplitMix64(seed)
        assert [probe.next_u64() for _ in range(position + 1)][-1] == word
        rng, oracle = SplitMix64(seed), SplitMix64(seed)
        assert [m.rows for m in random_unimodular(6, rng)] == \
            [m.rows for m in random_unimodular_by_randint(6, oracle)]
        assert rng.next_u64() == oracle.next_u64()


# --- generators ---------------------------------------------------------------------

def test_gen_xi_satisfies_structural_condition():
    rng = SplitMix64(88)
    for _ in range(40):
        p = rng.choice((2, 3, 5))
        n = rng.randint(2, 6)
        r = rng.randint(2, 6)
        a = tuple(sorted((rng.randint(0, n) for _ in range(r)), reverse=True))
        profile = DivisorProfile(n=n, a=a)
        xi = gen_xi(profile, p, 2, rng)
        assert check_xi_condition(xi, profile, p)


def test_gen_congruent_pair_constraints():
    rng = SplitMix64(89)
    p = 3
    profile = DivisorProfile(n=4, a=(4, 3, 2, 0))
    for _ in range(30):
        xi = gen_xi(profile, p, 2, rng)
        xi_prime = gen_congruent_pair(xi, profile, p, 2, rng)
        assert check_xi_condition(xi_prime, profile, p)
        for i, ai in enumerate(profile.a):
            for j, aj in enumerate(profile.a):
                exp = max(ai, profile.n - aj)
                assert (xi.rows[i][j] - xi_prime.rows[i][j]) % p**exp == 0
        assert same_quotient_action(xi, xi_prime, profile, p)


def test_gen_congruent_pair_min_exponent():
    rng = SplitMix64(90)
    p = 3
    profile = DivisorProfile(n=4, a=(4, 4, 4, 4))
    xi = gen_xi(profile, p, 2, rng)
    xi_prime = gen_congruent_pair(xi, profile, p, 2, rng, min_exponent=4)
    diff = xi - xi_prime
    assert all(x % p**4 == 0 for row in diff.rows for x in row)


@pytest.mark.parametrize("r, a", [(2, (4, 3, 2)), (4, (4, 2))])
def test_gen_congruent_pair_refuses_an_xi_of_another_rank(r, a):
    # a smaller xi would come back as a 1 x 3 matrix, a larger one as its truncation
    profile = DivisorProfile(n=4, a=a)
    xi = IntMatrix([[9 * (i - j) for j in range(r)] for i in range(r)])
    with pytest.raises(ValueError) as refused:
        check_xi_condition(xi, profile, 3)
    with pytest.raises(ValueError, match=f"^dimension mismatch: matrix is {r}, profile has "
                                         f"rank {len(a)}$") as raised:
        gen_congruent_pair(xi, profile, 3, 2, SplitMix64(1))
    assert str(raised.value) == str(refused.value)


def test_per_profile_tables_match_the_per_entry_formulas():
    base = DivisorProfile(n=6, a=(5, 3, 3, 0))
    keys = [
        (base, 3, 2),
        (DivisorProfile(n=7, a=base.a), 3, 2),  # only n differs
        (base, 5, 2),                           # only p differs
        (base, 3, 4),                           # only n' differs
    ]
    scales, moduli = set(), set()
    for profile, p, nprime in keys:
        n, a = profile.n, profile.a
        assert _column_scales(profile, p) == tuple(p ** (n - aj) for aj in a)
        table = _congruence_moduli(profile, p, nprime)
        assert table == tuple(tuple(p ** max(ai, n - aj, nprime) for aj in a) for ai in a)
        assert _congruence_moduli(profile, p, nprime) is table  # kept, not rebuilt
        scales.add(_column_scales(profile, p))
        moduli.add(table)
    assert len(scales) == 3 and len(moduli) == 4  # n' leaves only the column scales alone


def test_pair_invariants_reject_a_pair_that_disagrees_on_the_quotient():
    p = 3
    profile = DivisorProfile(n=4, a=(4, 0))
    xi = IntMatrix([[2, 81], [5, 162]])
    psi = PolynomialOperator((1, 1), xi)
    good = InstancePair(xi=xi, xi_prime=IntMatrix(mat_add_naive(xi.rows, [[81, 0], [0, 0]])),
                        psi=psi, psi_prime=psi, profile=profile)
    _assert_pair_invariants(good, p)
    # 3 in row 0 keeps xi' structural but moves row 0 mod p^{a_0} = 81
    bad = good._replace(xi_prime=IntMatrix(mat_add_naive(xi.rows, [[3, 0], [0, 0]])))
    assert check_xi_condition(bad.xi_prime, profile, p)
    assert not same_quotient_action(bad.xi, bad.xi_prime, profile, p)
    with pytest.raises(AssertionError):
        _assert_pair_invariants(bad, p)
    # 1 in column 1 breaks xi'(K) in p^n L while xi keeps it
    broken = good._replace(xi_prime=IntMatrix(mat_add_naive(xi.rows, [[0, 1], [0, 0]])))
    assert not check_xi_condition(broken.xi_prime, profile, p)
    with pytest.raises(AssertionError):
        _assert_pair_invariants(broken, p)


@pytest.mark.parametrize("r", range(1, KERNEL_MAX_RANK + 2))
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_flat_forming_matches_the_row_by_row_reference(r, p):
    # rank 1 is where zip(*[entries] * r) has one entry a row; KERNEL_MAX_RANK + 1 is the
    # first rank above the generated kernels, and from rank 7 the pair's draws cross a batch
    plan = random.Random(100 * r + p)
    for seed in range(10):
        n = plan.randint(1, 8)
        profile = DivisorProfile(n=n, a=tuple(sorted((plan.randint(0, n) for _ in range(r)),
                                                     reverse=True)))
        entry_bound, nprime = plan.randint(0, 3), plan.randint(1, n)
        for min_exponent in (0, nprime):
            rng, oracle = SplitMix64(seed), SplitMix64(seed)
            xi = gen_xi(profile, p, entry_bound, rng)
            assert xi.rows == gen_xi_by_rows(profile, p, entry_bound, oracle).rows
            xi_prime = gen_congruent_pair(xi, profile, p, entry_bound, rng, min_exponent)
            want = gen_congruent_pair_by_rows(xi, profile, p, entry_bound, oracle, min_exponent)
            assert xi_prime.rows == want.rows
            assert rng.next_u64() == oracle.next_u64()


# a = (3, 2, 1) at n = 4, p = 3: column j of xi is divisible by 3^(1 + j), and the
# pair difference at (i, j) by 3^max(a_i, 1 + j)
EDGE_PROFILE = DivisorProfile(n=4, a=(3, 2, 1))
EDGE_XI = IntMatrix([[3, 9, 27], [6, 18, 54], [-3, -9, 81]])


@pytest.mark.parametrize("where", ["last row", "last column"])
def test_checks_reject_a_pair_broken_only_at_an_edge(where):
    p = 3
    assert check_xi_condition(EDGE_XI, EDGE_PROFILE, p)
    # (2, 0) lies in the last row only, (0, 2) in the last column only
    i, j = (2, 0) if where == "last row" else (0, 2)
    bump = [[0] * 3 for _ in range(3)]
    bump[i][j] = 1
    assert not check_xi_condition(IntMatrix(mat_add_naive(EDGE_XI.rows, bump)), EDGE_PROFILE, p)

    xi_prime = IntMatrix(mat_add_naive(EDGE_XI.rows, [[27, 27, 27]] * 3))
    good = InstancePair(xi=EDGE_XI, xi_prime=xi_prime,
                        psi=PolynomialOperator((1, 1), EDGE_XI),
                        psi_prime=PolynomialOperator((1, 1), xi_prime),
                        profile=EDGE_PROFILE)
    _assert_pair_invariants(good, p)
    # one power of p short of what (i, j) needs
    need = max(EDGE_PROFILE.a[i], EDGE_PROFILE.n - EDGE_PROFILE.a[j])
    bump[i][j] = p ** (need - 1)
    bad = good._replace(xi_prime=IntMatrix(mat_add_naive(EDGE_XI.rows, bump)))
    with pytest.raises(AssertionError, match=rf"at \({i},{j}\) misses p\^{need}$"):
        _assert_pair_invariants(bad, p)
    # min_exponent raises every need to p^4
    with pytest.raises(AssertionError, match=r"misses p\^4$"):
        _assert_pair_invariants(good, p, min_exponent=4)
    bump[i][j] = 27
    with pytest.raises(AssertionError, match=rf"at \({i},{j}\) misses p\^4$"):
        _assert_pair_invariants(
            good._replace(xi_prime=IntMatrix(mat_add_naive(EDGE_XI.rows, bump))), p, min_exponent=4)


def test_pair_invariants_name_the_first_failing_entry_in_row_major_order():
    p = 3
    xi_prime = IntMatrix(mat_add_naive(EDGE_XI.rows, [[27, 27, 27]] * 3))
    good = InstancePair(xi=EDGE_XI, xi_prime=xi_prime, psi=PolynomialOperator((1, 1), EDGE_XI),
                        psi_prime=PolynomialOperator((1, 1), xi_prime), profile=EDGE_PROFILE)
    # (1, 2) needs p^3 and (2, 0) p^1; by rows (1, 2) fails first, by columns (2, 0)
    bump = [[0, 0, 0], [0, 0, 1], [1, 0, 0]]
    bad = good._replace(xi_prime=IntMatrix(mat_add_naive(xi_prime.rows, bump)))
    with pytest.raises(AssertionError, match=r"at \(1,2\) misses p\^3$"):
        _assert_pair_invariants(bad, p)
    # an xi' of another rank is refused, not read in part
    for r in (2, 4):
        other = good._replace(xi_prime=IntMatrix.identity(r).scale(81))
        with pytest.raises(ValueError, match="dimension mismatch"):
            _assert_pair_invariants(other, p)


def test_constancy_plan_holds_the_bound_at_its_nprime():
    for nprime in range(1, 7):
        cfg = config_from_document(constancy_doc(nprime=nprime))
        plan = prepare_plan(cfg, "constancy")
        assert plan.constancy_bound == c_exact(cfg.profile, nprime).value
        assert run_experiment(cfg._replace(trials=2), "constancy").trials[0].constancy_bound \
            == plan.constancy_bound
    assert prepare_plan(config_from_document(base_doc()), "prop").constancy_bound is None


def test_gen_psi_polynomial_commutes():
    rng = SplitMix64(91)
    profile = DivisorProfile(n=3, a=(3, 2, 1))
    xi = gen_xi(profile, 5, 1, rng)
    xi_prime = gen_congruent_pair(xi, profile, 5, 1, rng)
    psi, psi_prime, coeffs = gen_psi_polynomial(xi, xi_prime, 5, 1, rng)
    assert (xi * psi).rows == (psi * xi).rows
    assert (xi_prime * psi_prime).rows == (psi_prime * xi_prime).rows
    assert [list(row) for row in psi.rows] == poly_of_matrix_naive(coeffs, xi.rows)
    assert [list(row) for row in psi_prime.rows] == poly_of_matrix_naive(coeffs, xi_prime.rows)


def test_poly_of_matrix_degenerate_cases():
    # q(xi) formed by operator_rows from the vector Horner
    rng = SplitMix64(94)
    xi = gen_xi(DivisorProfile(n=2, a=(2, 1)), 3, 1, rng)
    assert operator_rows(PolynomialOperator((0, 1), xi), 2) == xi.rows  # q = X
    assert operator_rows(PolynomialOperator((5,), xi), 2) == ((5, 0), (0, 5))  # q constant
    assert operator_rows(PolynomialOperator((), xi), 2) == ((0, 0), (0, 0))  # q = 0
    assert operator_rows(xi, 2) == xi.rows  # a formed matrix gives its own rows


@pytest.mark.parametrize("r", range(1, 9))
def test_polynomial_operator_matches_the_formed_matrix(r):
    # vector Horner, and the rows operator_rows forms from it, against the schoolbook
    # power oracles
    rng = SplitMix64(0x486F726E + r)

    def check(coeffs, A, vec):
        got = PolynomialOperator(coeffs, A).apply(vec)
        formed = poly_of_matrix_naive(coeffs, A.rows)
        assert got == IntMatrix(formed).apply(vec)
        assert got == tuple(poly_apply_naive(coeffs, [list(row) for row in A.rows], list(vec)))
        assert all(type(x) is int for x in got)
        rows = operator_rows(PolynomialOperator(coeffs, A), r)
        assert rows == tuple(map(tuple, formed))
        assert all(type(row) is tuple and type(x) is int for row in rows for x in row)

    def entry(big):
        x = rng.randint(-9, 9)
        return x << 200 | rng.next_u64() if big else x

    for deg in range(r):
        for big in (False, True):
            A = IntMatrix([[entry(big) for _ in range(r)] for _ in range(r)])
            vec = tuple(entry(big) for _ in range(r))
            coeffs = tuple(entry(big) for _ in range(deg + 1))
            check(coeffs, A, vec)
            check((0,) * (deg + 1), A, vec)
            check(coeffs, A, (0,) * r)
            check(coeffs, diagonal((0,) * r), vec)
    assert min(min(row) for row in A.rows) < 0
    assert max(abs(x) for row in A.rows for x in row).bit_length() > 190


class Counted:
    """A matrix whose applies are counted."""

    def __init__(self, A):
        self.A, self.calls = A, 0

    def apply(self, vec):
        self.calls += 1
        return self.A.apply(vec)


def test_polynomial_operator_skips_the_product_with_zero():
    # Horner starts at c_last vec: one matrix-vector product per further coefficient
    A = IntMatrix([[1, 2], [3, 4]])
    for coeffs in ((), (7,), (7, -1), (0, 0, 5)):
        counted = Counted(A)
        got = PolynomialOperator(coeffs, counted).apply((5, -6))
        assert got == tuple(poly_apply_naive(coeffs, [[1, 2], [3, 4]], [5, -6]))
        assert counted.calls == max(len(coeffs) - 1, 0)
    assert PolynomialOperator((), A).apply((5, -6)) == (0, 0)


def test_polynomial_operator_eigenvalue_reads_the_coefficients_ascending():
    # q = 1 + 3X^2 at lam = 2 is 13, as apply reads coeffs; read descending, 3 + 0 + 4 = 7,
    # another value mod 5. A = U diag(2, 5) U^-1 takes 2 on U e_0, so the eigenvalue is
    # what the formed q(A) gives on that column, with one product of A as the witness
    rng = SplitMix64(0x41736331)
    U, Ui = random_unimodular(2, rng)
    A, F = U * diagonal([2, 5]) * Ui, tuple(row[0] for row in U.rows)
    for M in (1, 3):
        m = 5 ** M
        counted = Counted(A)
        assert PolynomialOperator((1, 0, 3), counted).eigenvalue(F, 2, m) == 13 % m
        assert counted.calls == 1
        assert 13 % m != horner_mod((3, 0, 1), 2, m)
        formed = IntMatrix(poly_of_matrix_naive((1, 0, 3), A.rows))
        assert newton.commuting_eigenvalue(formed, F, 5, M) == 13 % m


def test_polynomial_operator_eigenvalue_of_the_zero_and_a_constant_polynomial():
    A = diagonal([3, 1])
    for lam, F in ((3, (1, 0)), (1, (0, 7))):
        assert PolynomialOperator((), A).eigenvalue(F, lam, 9) == 0
        assert PolynomialOperator((-5,), A).eigenvalue(F, lam, 9) == 4
        assert PolynomialOperator((11,), A).eigenvalue(F, lam + 9, 9) == 2


@pytest.mark.parametrize("r", range(1, 9))
def test_polynomial_operator_eigenvalue_is_q_of_lam_on_an_eigenvector_mod_m(r):
    # on c U e_j with c a unit, at lam = d_j + k m: q(d_j) mod m, the value the applied
    # operator gives through commuting_eigenvalue
    rng = SplitMix64(0x51656967 + r)
    for p in (2, 3, 7):
        U, Ui = random_unimodular(r, rng)
        entries = [rng.randint(-10**6, 10**6) for _ in range(r)]
        A = U * diagonal(entries) * Ui
        coeffs = tuple(rng.randint(-9, 9) for _ in range(r))
        op = PolynomialOperator(coeffs, A)
        for j, column in enumerate(zip(*U.rows)):
            M = rng.randint(1, 40)
            m = p ** M
            c = rng.unit(p, 10**6)
            F = tuple(c * x for x in column)
            lam = entries[j] + rng.randint(-9, 9) * m
            assert op.eigenvalue(F, lam, m) == horner_mod(coeffs, entries[j], m) == \
                newton.commuting_eigenvalue(op, F, p, M)


def test_polynomial_operator_eigenvalue_refuses_what_is_no_witness():
    # the control: a sum of two eigenvectors, the wrong eigenvalue, and multiples of p
    # (no unit coordinate, though A F = lam F holds) all raise
    rng = SplitMix64(0x4E6F7420)
    U, Ui = random_unimodular(3, rng)
    A = U * diagonal([2, 5, 10]) * Ui
    columns = list(zip(*U.rows))
    op = PolynomialOperator((1, 0, 3), A)
    for vec, lam in ((tuple(map(add, columns[0], columns[1])), 2), (columns[0], 7),
                     (tuple(5 * x for x in columns[0]), 2), ((0, 0, 0), 2)):
        with pytest.raises(AssertionError, match="not a unit eigenvector"):
            op.eigenvalue(vec, lam, 125)
    assert op.eigenvalue(columns[0], 2 + 125, 125) == 13


@pytest.mark.parametrize("r", range(1, 9))
def test_conjugated_diagonal_matches_the_formed_matrix(r):
    # U (d * (U^-1 v)) against U diag(d) U^-1 formed by two products
    rng = SplitMix64(0x436F6E6A + r)

    def entry():
        return rng.randint(-9, 9) << 200 | rng.next_u64()

    U, Ui = random_unimodular(r, rng)
    big = tuple(entry() for _ in range(r))
    assert max(abs(x) for x in big).bit_length() > 190
    for entries in (big, (0,) * r):
        op = ConjugatedDiagonal(U, entries, Ui)
        formed = U * diagonal(entries) * Ui
        assert operator_rows(op, r) == formed.rows
        for vec in (tuple(entry() for _ in range(r)), (0,) * r):
            got = op.apply(vec)
            assert got == formed.apply(vec)
            assert all(type(x) is int for x in got)


def test_generated_polynomial_psi_commutes_on_the_shipped_configs():
    # psi = q(xi) commutes with xi by construction, so trials no longer check it
    for name, mode in (("prop_default.json", "prop"), ("constancy_default.json", "constancy")):
        cfg = read_config(CONFIG_DIR / name)
        plan = prepare_plan(cfg, mode)
        min_exponent = cfg.nprime if mode == "constancy" else 0
        for index in range(cfg.trials):
            seed = trial_seed(cfg.master_seed, index)
            pair = _generate_pair(plan, SplitMix64(seed), min_exponent=min_exponent)
            # gen_psi_polynomial draws the same q from the same stream
            rng = SplitMix64(seed)
            xi = gen_xi(cfg.profile, cfg.p, cfg.entry_bound, rng)
            xi_prime = gen_congruent_pair(xi, cfg.profile, cfg.p, cfg.entry_bound, rng,
                                          min_exponent=min_exponent)
            _, _, q = gen_psi_polynomial(xi, xi_prime, cfg.p, cfg.entry_bound, rng)
            assert pair.psi == PolynomialOperator(q, pair.xi)
            assert pair.psi_prime == PolynomialOperator(q, pair.xi_prime)
            for xi in (pair.xi, pair.xi_prime):
                psi = IntMatrix._of(operator_rows(PolynomialOperator(q, xi), xi.r))
                assert (xi * psi).rows == (psi * xi).rows


def planted_valuations(pair, p) -> list:
    """Valuations of xi's planted diagonal, read off D = U^-1 xi U, which must be diagonal."""
    D = pair.psi.U_inverse * pair.xi * pair.psi.U
    off = [D.rows[i][j] for i in range(D.r) for j in range(D.r) if i != j]
    assert not any(off)
    return [padic_valuation(D.rows[i][i], p) for i in range(D.r)]


def test_planted_quadruple():
    rng = SplitMix64(92)
    profile = DivisorProfile(n=10, a=(10,) * 5)
    pair = gen_planted_quadruple(profile, 3, 1, 2, rng, 64)
    assert pair is not None
    assert check_xi_condition(pair.xi, profile, 3)
    assert check_xi_condition(pair.xi_prime, profile, 3)
    # trials never form psi, so its commutation with xi is checked here
    psi, psi_prime = (IntMatrix._of(operator_rows(op, 5)) for op in (pair.psi, pair.psi_prime))
    assert (pair.xi * psi).rows == (psi * pair.xi).rows
    assert (pair.xi_prime * psi_prime).rows == (psi_prime * pair.xi_prime).rows
    vals = planted_valuations(pair, 3)
    assert vals.count(1) == 1
    census = {seg.slope: seg.length for seg in newton_polygon(char_poly(pair.xi), 3).segments}
    want = {}
    for v in vals:
        want[Fraction(v)] = want.get(Fraction(v), 0) + 1
    assert census == want


def test_planted_rejection_on_incompatible_profile():
    # nontrivial column constraints demand valuations the planted bound cannot give
    rng = SplitMix64(93)
    profile = DivisorProfile(n=12, a=(2, 1, 0))
    pair = gen_planted_quadruple(profile, 3, 1, 2, rng, max_attempts=8)
    assert pair is None


# --- config parsing -----------------------------------------------------------------

def test_config_validation():
    cfg = config_from_document(base_doc())
    assert cfg.profile.a == (12, 11, 10, 9, 8, 7, 6, 5)
    # max(n + 2 alpha + guard, alpha r) + kappa, and n + 2 alpha + guard = 22 > alpha r = 8
    assert prepare_plan(cfg, "prop").precision == 12 + 2 + 8 + 1

    with pytest.raises(InputError):
        config_from_document(base_doc(trials=0))
    with pytest.raises(InputError):
        config_from_document(base_doc(surprise=1))
    with pytest.raises(InputError):
        config_from_document(base_doc(generator="WILD"))
    with pytest.raises(InputError):
        config_from_document(base_doc(p=4))
    with pytest.raises(InputError):
        config_from_document(base_doc(kappa=0))
    with pytest.raises(InputError):
        config_from_document(base_doc(nprime=13))
    with pytest.raises(InputError):
        config_from_document(base_doc(profile={"kind": "explicit", "n": 3, "a": [1, 2]}))
    with pytest.raises(InputError):
        config_from_document(base_doc(profile={"kind": "hilbert", "d": 1, "h": 1}))
    explicit = config_from_document(
        base_doc(profile={"kind": "explicit", "n": 3, "a": [3, 2, 0]})
    )
    assert explicit.profile.a == (3, 2, 0)


def test_config_refuses_inexact_and_boolean_integers():
    for a in ([16.7, "15", True], [16, 15.0], [16, "15"], [16, True]):
        with pytest.raises(InputError):
            config_from_document(base_doc(profile={"kind": "explicit", "n": 16, "a": a}))
    with pytest.raises(InputError):
        config_from_document(base_doc(profile={"kind": "explicit", "n": True, "a": [1]}))
    with pytest.raises(InputError):
        config_from_document(base_doc(profile={"kind": "hilbert", "d": True, "h": 1, "n": 6}))
    for key in ("alpha", "kappa", "trials", "master_seed", "entry_bound", "nprime"):
        with pytest.raises(InputError):
            config_from_document(base_doc(**{key: True}))
        with pytest.raises(InputError):
            config_from_document(base_doc(**{key: 1.0}))


def test_prepare_plan_kappa_resolution():
    plan = prepare_plan(config_from_document(base_doc()), "prop")
    assert plan.kappa == 1
    assert plan.hypotheses_pass
    assert plan.precision == 23

    plan = prepare_plan(config_from_document(base_doc(kappa=9)), "prop")
    assert not plan.hypotheses_pass

    with pytest.raises(InputError):
        prepare_plan(config_from_document(base_doc()), "constancy")  # nprime missing
    with pytest.raises(InputError):
        prepare_plan(config_from_document(base_doc()), "sideways")


def test_no_prop_plan_passes_its_hypotheses_at_alpha_equal_to_n():
    """At alpha = n no prop plan passes, whatever kappa it asks for, so no trial runs.

    This is why one eigenvector serves both sides of a PLANTED pair. xi' shifts xi's
    diagonal by multiples of p^n and keeps U, so U e_slot stays an eigenvector of xi'; it
    is the slope-alpha one when alpha < n, as an entry of valuation below n keeps it and
    one at n or above stays there, so only the slot has valuation alpha. At alpha = n the
    shift may bring another entry down to n or lift the slot's above it. resolve_kappa
    counts at most n levels, so its kappa is at most n - 2 alpha = -n < 1: it returns
    None, and a plan with no resolved kappa fails for a kappa given in the config too.
    """
    for n in range(1, 20):
        profiles = [{"kind": "explicit", "n": n, "a": [n] * 3},
                    {"kind": "explicit", "n": n, "a": list(range(n, 0, -1))},
                    {"kind": "explicit", "n": n, "a": [n, 0]}]
        profiles += [{"kind": "hilbert", "d": d, "h": h, "n": n, "max_rank": 8}
                     for d in (1, 2, 3) for h in (1, 2)]
        for profile in profiles:
            for kappa in ("auto", 1, n):
                cfg = config_from_document(base_doc(profile=profile, alpha=n, kappa=kappa))
                assert not prepare_plan(cfg, "prop").hypotheses_pass, (profile, kappa)


# --- proposition trials ---------------------------------------------------------------

def test_identical_pair_gives_infinite_margin():
    cfg = config_from_document(base_doc())
    plan = prepare_plan(cfg, "prop")
    rng = SplitMix64(trial_seed(cfg.master_seed, 0))
    for index in range(12):
        xi = gen_xi(cfg.profile, cfg.p, cfg.entry_bound, rng)
        _, _, coeffs = gen_psi_polynomial(xi, xi, cfg.p, cfg.entry_bound, rng)
        psi = PolynomialOperator(coeffs, xi)
        pair = InstancePair(xi=xi, xi_prime=xi, psi=psi, psi_prime=psi,
                            profile=cfg.profile)
        report = _evaluate_proposition_pair(plan, pair, index, 0)
        if report.status == ACCEPTED:
            assert report.margin is INFINITY
            assert report.a == report.a_prime
            return
    raise AssertionError("no simple-slope instance found in 12 draws")


def test_accepted_trial_matches_polynomial_oracle():
    cfg = config_from_document(base_doc())
    plan = prepare_plan(cfg, "prop")
    found = 0
    for index in range(20):
        seed = trial_seed(cfg.master_seed, index)
        rng = SplitMix64(seed)
        pair = _generate_pair(plan, rng)
        report = _evaluate_proposition_pair(plan, pair, index, seed)
        if report.status != ACCEPTED:
            continue
        found += 1
        # a must equal q(lambda) mod p^cap: the polynomial-functoriality oracle
        m = cfg.p**report.margin_cap
        assert report.a == horner_mod(pair.psi.coeffs, report.lam, m)
        assert report.a_prime == horner_mod(pair.psi.coeffs, report.lam_prime, m)
        assert report.margin >= plan.kappa
        if found >= 3:
            break
    assert found >= 3


def test_violation_branch_reports_matrices():
    # deliberately unrelated operators: not a congruent pair, so the margin
    # gate can fire; this exercises the reporting path only. psi = q(xi) with q = X
    cfg = config_from_document(
        base_doc(profile={"kind": "explicit", "n": 4, "a": [4, 4, 4]}, alpha=0, kappa=2)
    )
    plan = prepare_plan(cfg, "prop")
    assert plan.hypotheses_pass
    rng = SplitMix64(4)
    for _ in range(40):
        xi = diagonal([rng.unit(3, 80), 3 * rng.unit(3, 80), 9 * rng.unit(3, 80)])
        xi_prime = diagonal([rng.unit(3, 80), 3 * rng.unit(3, 80), 9 * rng.unit(3, 80)])
        pair = lazy_pair(xi, xi_prime, (0, 1), cfg.profile)
        report = _evaluate_proposition_pair(plan, pair, 0, 0)
        if report.status == VIOLATION:
            assert report.margin < plan.kappa
            assert report.pair is not None
            assert operator_rows(report.pair.psi, 3) == xi.rows
            return
    raise AssertionError("expected a violation from unrelated operators")


# SHA-256 prefixes of the three violation trials below, with psi formed up front
PROP_VIOLATION_DIGEST = "8fd9a8df44186795"
CONSTANCY_VIOLATION_DIGEST = "526fb61ae57c99ce"
PLANTED_VIOLATION_DIGEST = "a6e9986b3e2d480c"


def lazy_pair(xi, xi_prime, coeffs, profile):
    return InstancePair(xi=xi, xi_prime=xi_prime, psi=PolynomialOperator(coeffs, xi),
                        psi_prime=PolynomialOperator(coeffs, xi_prime),
                        profile=profile)


def assert_report_forms_psi(plan, report, coeffs, digest):
    """The VIOLATION report embeds q(xi), q(xi'), and its bytes are those of the
    same trial with psi and psi' formed up front (pinned before psi became lazy)."""
    pair = report.pair
    doc = trial_document(report)
    for name, xi in (("psi", pair.xi), ("psi_prime", pair.xi_prime)):
        assert doc["matrices"][name] == poly_of_matrix_naive(coeffs, xi.rows)
        assert operator_rows(getattr(pair, name), xi.r) == tuple(map(tuple, doc["matrices"][name]))
    text = json_text(doc)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == digest
    assert_the_writer_forms_them_too(plan, report)
    return text


def assert_the_writer_forms_them_too(plan, trial):
    report = ExperimentReport(mode=plan.mode, plan=plan, trials=(trial,))
    assert report_to_json(report) == json.dumps(report_document(report), indent=2,
                                                sort_keys=True) + "\n"


def assert_formed_psi_gives_a(plan, report, formed):
    """The formed psi and psi' give the trial's a and a' through commuting_eigenvalue on
    each side's Smith eigenvector: the values the trial reads without forming them."""
    p, alpha, N, pair = plan.config.p, plan.config.alpha, plan.precision, report.pair
    for A, lam, psi, a in ((pair.xi, report.lam, formed[0], report.a),
                           (pair.xi_prime, report.lam_prime, formed[1], report.a_prime)):
        cp = char_poly(A)
        root = newton.hensel_slope_root(cp, newton_polygon(cp, p), p, alpha, N)
        assert root.value == lam
        F = newton.eigenvector_mod(A, lam, p, N, root.derivative_valuation)
        assert newton.commuting_eigenvalue(psi, F, p, report.margin_cap) == a


def test_polynomial_psi_violation_report_forms_the_matrices():
    cfg = config_from_document(
        base_doc(profile={"kind": "explicit", "n": 4, "a": [4, 4, 4]}, alpha=0, kappa=2)
    )
    plan = prepare_plan(cfg, "prop")
    rng = SplitMix64(41)
    coeffs = (7, -4, 2)
    for _ in range(40):
        U, Ui = random_unimodular(3, rng)
        xi, xi_prime = (
            U * diagonal([rng.unit(3, 80), 3 * rng.unit(3, 80), 9 * rng.unit(3, 80)]) * Ui
            for _ in range(2)
        )
        pair = lazy_pair(xi, xi_prime, coeffs, cfg.profile)
        report = _evaluate_proposition_pair(plan, pair, 0, 0)
        if report.status == VIOLATION:
            break
    else:
        raise AssertionError("expected a violation from unrelated operators")
    assert_report_forms_psi(plan, report, coeffs, PROP_VIOLATION_DIGEST)
    assert_formed_psi_gives_a(plan, report, [IntMatrix(poly_of_matrix_naive(coeffs, A.rows))
                                             for A in (xi, xi_prime)])


def test_polynomial_psi_constancy_violation_report_forms_the_matrices():
    cfg = config_from_document(
        constancy_doc(profile={"kind": "explicit", "n": 2, "a": [2, 2]}, nprime=2, p=2)
    )
    plan = prepare_plan(cfg, "constancy")
    U, Ui = random_unimodular(2, SplitMix64(5))
    coeffs = (3, -2)
    xi = U * diagonal([1, 2]) * Ui
    xi_prime = U * diagonal([2, 6]) * Ui
    report = _evaluate_constancy_pair(plan, lazy_pair(xi, xi_prime, coeffs, cfg.profile), 0, 0)
    assert report.status == VIOLATION
    assert_report_forms_psi(plan, report, coeffs, CONSTANCY_VIOLATION_DIGEST)


def test_planted_violation_report_forms_the_matrices():
    # xi and xi' share U but not their diagonals, so the margin gate can fire; psi and
    # psi' are the lazy U E U^-1 of a planted pair, which carries U e_0 and the slope-0
    # entries as the generator's pairs do
    cfg = config_from_document(
        base_doc(profile={"kind": "explicit", "n": 4, "a": [4, 4, 4]}, alpha=0, kappa=2,
                 generator="PLANTED")
    )
    plan = prepare_plan(cfg, "prop")
    rng = SplitMix64(43)
    for _ in range(40):
        U, Ui = random_unimodular(3, rng)
        ds = [[rng.unit(3, 80), 3 * rng.unit(3, 80), 9 * rng.unit(3, 80)] for _ in range(2)]
        xi, xi_prime = (U * diagonal(d) * Ui for d in ds)
        diagonals = [tuple(rng.randints(-80, 80, 3)) for _ in range(2)]
        pair = InstancePair(xi=xi, xi_prime=xi_prime,
                            psi=ConjugatedDiagonal(U, diagonals[0], Ui),
                            psi_prime=ConjugatedDiagonal(U, diagonals[1], Ui),
                            profile=cfg.profile, eigenvector=tuple(row[0] for row in U.rows),
                            eigenvalues=(ds[0][0], ds[1][0]))
        report = _evaluate_proposition_pair(plan, pair, 0, 0)
        if report.status == VIOLATION:
            break
    else:
        raise AssertionError("expected a violation from unrelated operators")
    formed = [U * diagonal(d) * Ui for d in diagonals]
    doc = trial_document(report)
    assert doc["matrices"]["psi"] == [list(r) for r in formed[0].rows]
    assert doc["matrices"]["psi_prime"] == [list(r) for r in formed[1].rows]
    text = json_text(doc)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest()[:16] == PLANTED_VIOLATION_DIGEST
    assert_the_writer_forms_them_too(plan, report)
    assert_formed_psi_gives_a(plan, report, formed)
    # a forked worker sends a VIOLATION report back pickled
    assert json_text(trial_document(pickle.loads(pickle.dumps(report)))) == text


def test_planted_extraction_matches_diagonal():
    doc = base_doc(
        profile={"kind": "explicit", "n": 16, "a": [16] * 6},
        generator="PLANTED",
        master_seed=99901,
    )
    cfg = config_from_document(doc)
    plan = prepare_plan(cfg, "prop")
    assert plan.kappa == 2
    seed = trial_seed(cfg.master_seed, 0)
    pair = _generate_pair(plan, SplitMix64(seed))
    report = _evaluate_proposition_pair(plan, pair, 0, seed)
    assert report.status == ACCEPTED
    slot = planted_valuations(pair, cfg.p).index(cfg.alpha)
    truth = pair.psi.diagonal[slot]
    assert (report.a - truth) % cfg.p**report.margin_cap == 0
    # the pn-shifted diagonals keep the pair margin at least n
    assert report.margin >= cfg.profile.n


def test_run_experiment_prop_smoke():
    rep = run_experiment(config_from_document(base_doc(trials=20)), mode="prop")
    counts = rep.rejected_by_reason()
    assert rep.accepted + sum(counts.values()) + len(rep.violations) == 20
    assert len(rep.violations) == 0
    assert rep.accepted >= 6
    mm = rep.min_margin()
    assert mm >= rep.plan.kappa


def assert_no_child_process():
    # waitpid(-1) raises ChildProcessError only when this process has no child at all,
    # running or exited and unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_run_experiment_leaves_no_worker_process(monkeypatch):
    # nor the SIGTERM handler it installs while children run
    handler = signal.getsignal(signal.SIGTERM)
    cfg = read_config(CONFIG_DIR / "prop_default.json")
    report = run_experiment(cfg, "prop", jobs=2)
    assert len(report.trials) == cfg.trials
    assert_no_child_process()
    assert signal.getsignal(signal.SIGTERM) is handler
    # at --jobs 2 index 4 is in this process's share and index 5 in the child's
    real = family.run_proposition_trial
    for bad in (4, 5):
        def trial(plan, index, bad=bad):
            if index == bad:
                raise LookupError(f"trial {index} failed")
            return real(plan, index)

        monkeypatch.setattr(family, "run_proposition_trial", trial)
        with pytest.raises(LookupError, match=f"^trial {bad} failed$"):
            run_experiment(cfg, "prop", jobs=2)
        assert_no_child_process()
        assert signal.getsignal(signal.SIGTERM) is handler


def test_no_more_workers_than_trials_are_forked(monkeypatch):
    # W = min(jobs, trials) shares, and this process runs one of them: W - 1 forks
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    cfg = read_config(CONFIG_DIR / "prop_planted.json")._replace(trials=4)
    want = report_to_json(run_experiment(cfg))
    counts = []
    for jobs in (64, 4, 3):
        before = len(forks)
        assert report_to_json(run_experiment(cfg, jobs=jobs)) == want
        counts.append(len(forks) - before)
    assert counts == [3, 3, 2]
    run_experiment(cfg._replace(trials=1), jobs=64)  # one trial: no fork at all
    assert len(forks) == 8


def test_without_fork_jobs_run_in_this_process(monkeypatch):
    cfg = read_config(CONFIG_DIR / "constancy_default.json")._replace(trials=12)
    want = report_to_json(run_experiment(cfg, "constancy"))
    monkeypatch.delattr(os, "fork")
    assert report_to_json(run_experiment(cfg, "constancy", jobs=3)) == want


def test_corrupted_kappa_rejects_everything():
    rep = run_experiment(config_from_document(base_doc(kappa=9, trials=5)), mode="prop")
    assert rep.accepted == 0
    assert rep.rejected_by_reason() == {"hypotheses": 5}


@pytest.mark.parametrize("p,seed", [(2, 901), (5, 902), (7, 903)])
def test_prop_stress_primes(p, seed):
    rep = run_experiment(
        config_from_document(base_doc(p=p, master_seed=seed, trials=15)), mode="prop"
    )
    assert len(rep.violations) == 0
    assert rep.accepted >= 5
    mm = rep.min_margin()
    assert mm >= rep.plan.kappa


# --- negative controls on the sharp config: broken hypotheses must show ---------------

def test_pair_differences_off_the_quotient_give_violations(monkeypatch):
    # Delta_ij divisible by p^(n - a_j) only: xi' keeps xi'(K) in p^n L but acts on L/K
    # unlike xi; the invariants read the same table, so only the verdict can catch it
    def without_quotient_factor(profile, p, min_exponent):
        row = tuple([p ** max(profile.n - aj, min_exponent) for aj in profile.a])
        return (row,) * profile.r

    monkeypatch.setattr("padicslopes.family._congruence_moduli", without_quotient_factor)
    report = run_experiment(read_config(CONFIG_DIR / "prop_sharp.json"))
    assert (report.accepted, len(report.violations)) == (0, 19)


def test_delta_exponent_below_kappa_gives_violations(monkeypatch):
    # every exponent of the Delta table capped at kappa - 1 = 5: xi' no longer induces
    # xi's action on L/K, and the same table passes the invariants
    real = _congruence_moduli

    def below_kappa(profile, p, min_exponent):
        return tuple([tuple([min(m, p ** 5) for m in row])
                      for row in real(profile, p, min_exponent)])

    monkeypatch.setattr("padicslopes.family._congruence_moduli", below_kappa)
    report = run_experiment(read_config(CONFIG_DIR / "prop_sharp.json"))
    assert report.plan.kappa == 6
    assert (report.accepted, len(report.violations), report.rejected_by_reason()) == (
        16, 13, {"not-simple": 31})


@pytest.mark.parametrize("m", [0, 5, 6])
def test_psi_prime_shifted_by_p_to_the_m_gives_violations_below_kappa(monkeypatch, m):
    # psi' = q(xi') + p^m I, q's coefficients ascending: a' moves by exactly p^m, so every
    # simple trial's margin is m below kappa = 6 and at least 6 from there on (the least
    # unshifted margin). _assert_pair_invariants never reads psi: only the verdict can catch it
    real = _generate_pair

    def shifted(plan, rng, min_exponent=0):
        pair = real(plan, rng, min_exponent)
        q = pair.psi.coeffs
        return pair._replace(psi_prime=PolynomialOperator((q[0] + plan.config.p ** m,) + q[1:],
                                                          pair.xi_prime))

    monkeypatch.setattr(family, "_generate_pair", shifted)
    report = run_experiment(read_config(CONFIG_DIR / "prop_sharp.json"))
    margins = [t.margin for t in report.trials if t.status != REJECTED]
    assert (report.plan.kappa, report.rejected_by_reason()) == (6, {"not-simple": 31})
    if m < 6:
        assert (report.accepted, len(report.violations), set(margins)) == (0, 29, {m})
    else:
        assert (report.accepted, len(report.violations), min(margins)) == (29, 0, 6)


def test_kappa_past_the_bound_makes_the_slack_zero_trials_violations():
    plan = prepare_plan(read_config(CONFIG_DIR / "prop_sharp.json"), "prop")
    assert (plan.kappa, plan.precision) == (6, 20)
    plan = plan._replace(kappa=7, precision=21)  # the working precision at kappa 7
    trials = [run_proposition_trial(plan, i) for i in range(plan.config.trials)]
    assert tuple(t.index for t in trials if t.status == VIOLATION) == SHARP_SLACK_ZERO


@pytest.mark.parametrize("name", ["prop_sharp.json", "prop_default.json"])
def test_starved_precision_raises_and_never_violates(name):
    # a plan built by hand with N = 2..5, below the plan's own N: every trial past the census
    # gate has cap < kappa and raises, where residues equal mod p^cap would read as margin
    # INFINITY, an ACCEPTED; the census gate still rejects the others
    report = run_experiment(read_config(CONFIG_DIR / name))
    reached = {t.index for t in report.trials if t.status != REJECTED}
    for N in range(2, 6):
        starved = report.plan._replace(precision=N)
        raised = set()
        for i in range(report.plan.config.trials):
            try:
                t = run_proposition_trial(starved, i)
            except AssertionError as exc:
                assert "below kappa" in str(exc)
                raised.add(i)
            else:
                assert (t.status, t.reason) == (REJECTED, "not-simple"), (N, i)
        assert raised == reached and reached


# the least finite ACCEPTED margin of each shipped prop config and how many trials have it
LEAST_MARGINS = {"prop_default.json": (10, 5), "prop_planted.json": (16, 62),
                 "prop_sharp.json": (6, 12)}


@pytest.mark.parametrize("name", sorted(LEAST_MARGINS))
def test_accepted_margins_stay_at_or_above_n_minus_2_alpha(name):
    # an observed invariant of these generators, not the paper's claim: no finite ACCEPTED
    # margin falls below n - 2 alpha, a stronger check than margin >= kappa
    cfg = read_config(CONFIG_DIR / name)
    report = run_experiment(cfg)
    margins = [t.margin for t in report.trials if t.status == ACCEPTED and t.margin is not INFINITY]
    assert min(margins) >= cfg.profile.n - 2 * cfg.alpha
    assert (min(margins), margins.count(min(margins))) == LEAST_MARGINS[name]


@pytest.mark.parametrize("m,violations,least", [
    (0, 300, Fraction(0)), (1, 91, Fraction(1, 2)), (2, 0, Fraction(1)), (None, 0, Fraction(5, 2)),
    (3, 0, Fraction(4, 3)), (4, 0, Fraction(5, 3)), (5, 0, Fraction(2)),
])
def test_constancy_control_with_plain_congruence_moduli(monkeypatch, m, violations, least):
    # every Delta entry a multiple of p^m alone, in place of p^max(a_i, n - a_j, n') (None):
    # m = 0 and 1 must give VIOLATIONs; at m = 2 the least differing slope is exactly the
    # bound c = 1, which is no violation (the check is slope < c). At every m the least
    # differing slope is sigma of the plain moduli: the lemma's bound is met, not only held
    if m is not None:
        monkeypatch.setattr("padicslopes.family._congruence_moduli",
                            lambda profile, p, min_exponent: ((p ** m,) * profile.r,) * profile.r)
    cfg = read_config(CONFIG_DIR / "constancy_default.json")._replace(trials=300)
    report = run_experiment(cfg, mode="constancy")
    assert (cfg.master_seed, report.plan.constancy_bound) == (424242, 1)
    differing = [s for t in report.trials for s, _, _ in t.mismatched_slopes + t.informational_slopes
                 if s is not INFINITY]
    assert (len(report.violations), min(differing)) == (violations, least)
    if m is not None:
        assert sigma_with_plain_moduli(cfg.profile, m) == least


def regenerated_pairs(report):
    """(trial, pair) for each accepted trial, the pair drawn again from the trial's seed."""
    plan = report.plan
    nprime = plan.config.nprime if plan.mode == "constancy" else 0
    for t in report.trials:
        if t.status == ACCEPTED:
            yield t, _generate_pair(plan, SplitMix64(t.seed), min_exponent=nprime)


def configs_of(mode, names):
    """{id: config} of the shipped configs named and of the VARIANTS rows in mode."""
    out = {name: read_config(CONFIG_DIR / name) for name in names}
    out.update((vid, config_from_document(doc))
               for (m, doc, _), vid in zip(VARIANTS, variant_ids(VARIANTS)) if m == mode)
    return out


CONSTANCY_CONFIGS = configs_of("constancy", ["constancy_default.json"])
PROP_CONFIGS = configs_of("prop", ["prop_default.json", "prop_planted.json", "prop_sharp.json"])


@pytest.mark.parametrize("cfg", CONSTANCY_CONFIGS.values(), ids=CONSTANCY_CONFIGS.keys())
def test_differing_slopes_sit_on_or_above_the_coefficient_bound(cfg):
    # the Newton-polygon lemma: hull vertices of slope below sigma = min_k v(e_k - e'_k) / k
    # lie strictly under the line sigma k, where the two polygons' points agree, so every
    # slope whose multiplicities differ is at least sigma; e_k from Faddeev-LeVerrier
    p = cfg.p
    report = run_experiment(cfg, mode="constancy")
    checked = compared = 0
    for t, pair in regenerated_pairs(report):
        e, e_prime = charpoly_faddeev(pair.xi), charpoly_faddeev(pair.xi_prime)
        bounds = [Fraction(valuation_by_division(x - y, p), k)
                  for k, (x, y) in enumerate(zip(e[1:], e_prime[1:]), 1) if x != y]
        slopes = [s for s, _, _ in t.mismatched_slopes + t.informational_slopes]
        if not bounds:
            assert slopes == []
            continue
        sigma = min(bounds)
        assert all(s >= sigma for s in slopes), (t.index, sigma, slopes)
        checked += len(slopes)
        compared += 1
    assert compared > 0
    # PLANTED shifts each diagonal entry by p^n, above every planted valuation, so no
    # slope differs; the other generator's pairs must give the lemma slopes to check
    assert (checked > 0) == (cfg.generator == "POLYNOMIAL_PSI")
    if cfg.generator == "PLANTED":  # its rows test the census walk on equal censuses only
        assert all(t.census == t.census_prime for t in report.trials)


@pytest.mark.parametrize("cfg", PROP_CONFIGS.values(), ids=PROP_CONFIGS.keys())
def test_eigenvalues_without_the_eigenvector(cfg):
    # a and a' from what psi is, never from eigenvector_mod or commuting_eigenvalue: q(lam)
    # for psi = q(xi), and one of psi's diagonal entries for PLANTED's psi = U E U^-1. So an
    # eigenvector that is consistent but belongs to another eigenvalue fails here
    p = cfg.p
    report = run_experiment(cfg)
    accepted = 0
    for t, pair in regenerated_pairs(report):
        m = p ** t.margin_cap
        pN = p ** report.plan.precision
        for lam, xi in ((t.lam, pair.xi), (t.lam_prime, pair.xi_prime)):
            assert horner_mod(charpoly_faddeev(xi)[::-1], lam, pN) == 0  # the same pair
        if cfg.generator == "POLYNOMIAL_PSI":
            q = pair.psi.coeffs
            assert (t.a - horner_mod(q, t.lam, m)) % m == 0
            assert (t.a_prime - horner_mod(q, t.lam_prime, m)) % m == 0
        else:
            assert t.a % m in {x % m for x in pair.psi.diagonal}
            assert t.a_prime % m in {x % m for x in pair.psi_prime.diagonal}
        accepted += 1
    assert accepted > 0


PLANTED_PROP_CONFIGS = {cid: cfg for cid, cfg in PROP_CONFIGS.items() if cfg.generator == "PLANTED"}


def assert_planted_eigenvectors(report):
    """On each accepted trial, the eigenvector F its pair carries against both sides:
    (xi - lam) F = 0 mod p^(cap + alpha), the precision a mod p^cap needs, and psi
    gives the trial's a on F and on eigenvector_mod's vector alike. Returns the count."""
    cfg, N = report.plan.config, report.plan.precision
    p, accepted = cfg.p, 0
    for t, pair in regenerated_pairs(report):
        F, cap = pair.eigenvector, t.margin_cap
        m = p ** (cap + cfg.alpha)
        for xi, lam, psi, a in ((pair.xi, t.lam, pair.psi, t.a),
                                (pair.xi_prime, t.lam_prime, pair.psi_prime, t.a_prime)):
            assert all(x % m == 0 for x in xi.shift(-lam).apply(F)), t.index
            cp = char_poly(xi)
            root = newton.hensel_slope_root(cp, newton_polygon(cp, p), p, cfg.alpha, N)
            solved = newton.eigenvector_mod(xi, lam, p, N, root.derivative_valuation)
            assert newton.commuting_eigenvalue(psi, F, p, cap) == a, t.index
            assert newton.commuting_eigenvalue(psi, solved, p, cap) == a, t.index
        accepted += 1
    return accepted


@pytest.mark.parametrize("cfg", PLANTED_PROP_CONFIGS.values(), ids=PLANTED_PROP_CONFIGS.keys())
def test_planted_eigenvector_is_the_slope_alpha_one_on_both_sides(cfg):
    assert assert_planted_eigenvectors(run_experiment(cfg)) > 0


def test_the_planted_eigenvector_oracle_catches_a_neighbouring_column(monkeypatch):
    # the control: column slot + 1 of U is an exact eigenvector of psi too, a column of the
    # conjugator, so the trial's U^-1 F check accepts it and the run completes, but with
    # another a, E_(slot+1). The oracle's regenerated pairs come from the patched generator
    # as well
    cfg = PLANTED_PROP_CONFIGS["prop_planted.json"]
    generate = family.gen_planted_quadruple

    def neighbour(*args):
        pair = generate(*args)
        if pair is None:
            return None
        columns = list(zip(*pair.psi.U.rows))
        slot = columns.index(pair.eigenvector)
        return pair._replace(eigenvector=columns[(slot + 1) % len(columns)])

    monkeypatch.setattr(family, "gen_planted_quadruple", neighbour)
    report = run_experiment(cfg)
    assert cfg.profile.r > 1 and report.accepted > 0
    pinned = {name: digest for name, _, digest in PINNED}["prop_planted.json"]
    assert hashlib.sha256(report_to_json(report).encode()).hexdigest()[:16] != pinned
    with pytest.raises(AssertionError):
        assert_planted_eigenvectors(report)


def summed_columns(generate):
    """generate with the pair's eigenvector U e_slot replaced by U e_slot + U e_(slot+1),
    slot + 1 taken mod r: no column of the conjugator, so U^-1 F is no unit vector (at
    rank 1 it is 2 U e_slot)."""
    def summed(*args):
        pair = generate(*args)
        if pair is None:
            return None
        columns = list(zip(*pair.psi.U.rows))
        slot = columns.index(pair.eigenvector)
        return pair._replace(eigenvector=tuple(map(add, pair.eigenvector,
                                                   columns[(slot + 1) % len(columns)])))
    return summed


@pytest.mark.parametrize("cfg", PLANTED_PROP_CONFIGS.values(), ids=PLANTED_PROP_CONFIGS.keys())
def test_a_planted_eigenvector_off_the_conjugator_columns_raises(cfg, monkeypatch):
    # the control of the U^-1 F = e_slot check, which a PLANTED trial makes before it reads
    # a off E: every trial that reaches the eigen step raises on a summed eigenvector
    plan = prepare_plan(cfg, "prop")
    reached = [t.index for t in run_experiment(cfg).trials if t.status == ACCEPTED]
    monkeypatch.setattr(family, "gen_planted_quadruple",
                        summed_columns(family.gen_planted_quadruple))
    for index in reached:
        with pytest.raises(AssertionError, match="not a column of the conjugator"):
            run_proposition_trial(plan, index)
    assert reached


@pytest.mark.parametrize("r", range(1, 9))
def test_conjugated_diagonal_eigenvalue_is_the_diagonal_entry_of_its_column(r):
    # on U e_j, the j-th diagonal entry mod m: what commuting_eigenvalue reads off the
    # applied operator, at every column; a sum of two columns, a unit multiple of one and
    # the zero vector are refused
    rng = SplitMix64(0x45696765 + r)
    U, Ui = random_unimodular(r, rng)
    entries = tuple(rng.randint(-9, 9) << 100 | rng.next_u64() for _ in range(r))
    op, columns = ConjugatedDiagonal(U, entries, Ui), list(zip(*U.rows))
    for j, column in enumerate(columns):
        for p, M in ((3, 1), (5, 40)):
            assert op.eigenvalue(column, p ** M) == entries[j] % p ** M == \
                newton.commuting_eigenvalue(op, column, p, M)
    refused = [tuple(2 * x for x in columns[0]), (0,) * r]
    if r > 1:
        refused.append(tuple(map(add, columns[0], columns[1])))
    for vec in refused:
        with pytest.raises(AssertionError, match="not a column of the conjugator"):
            op.eigenvalue(vec, 3)


@pytest.mark.parametrize("cfg", PLANTED_PROP_CONFIGS.values(), ids=PLANTED_PROP_CONFIGS.keys())
def test_planted_eigenvalues_give_the_lifted_slope_roots(cfg):
    # on both sides of every accepted trial, the Newton lift without the planted root
    # returns the HenselRoot the trial's call with it did: its value is the trial's lam,
    # and its derivative valuation gives the trial's cap
    report = run_experiment(cfg)
    p, N, alpha = cfg.p, report.plan.precision, cfg.alpha
    accepted = 0
    for t, pair in regenerated_pairs(report):
        caps = []
        for xi, d, lam in zip((pair.xi, pair.xi_prime), pair.eigenvalues, (t.lam, t.lam_prime)):
            cp = char_poly(xi)
            poly = newton_polygon(cp, p)
            lifted = newton.hensel_slope_root(cp, poly, p, alpha, N)
            assert newton.hensel_slope_root(cp, poly, p, alpha, N, d) == lifted, t.index
            assert lifted.value == lam, t.index
            caps.append(N - lifted.derivative_valuation - alpha)
        assert min(caps) == t.margin_cap, t.index
        accepted += 1
    assert accepted == report.accepted > 0


def wrong_eigenvalues_raise(cfg, monkeypatch, wrong, match):
    """Runs each accepted trial again with one side's planted eigenvalue d replaced by
    wrong(d, p, alpha), at both sides in turn, and asserts that each run raises
    AssertionError matching match. Returns the number of runs."""
    plan = prepare_plan(cfg, "prop")
    accepted = [t.index for t in run_experiment(cfg).trials if t.status == ACCEPTED]
    generate, runs = family.gen_planted_quadruple, 0
    for side in (0, 1):
        def planted_wrong(*args, side=side):
            pair = generate(*args)
            values = list(pair.eigenvalues)
            values[side] = wrong(values[side], cfg.p, cfg.alpha)
            return pair._replace(eigenvalues=tuple(values))

        with monkeypatch.context() as mp:
            mp.setattr(family, "gen_planted_quadruple", planted_wrong)
            for index in accepted:
                with pytest.raises(AssertionError, match=match):
                    run_proposition_trial(plan, index)
                runs += 1
    return runs


@pytest.mark.parametrize("cfg", PLANTED_PROP_CONFIGS.values(), ids=PLANTED_PROP_CONFIGS.keys())
def test_a_planted_eigenvalue_off_the_seed_digit_raises(cfg, monkeypatch):
    # the control of the seed check: d + p^alpha has another digit above p^alpha (at
    # p = 2, another valuation), and every trial it reaches raises, on either side
    assert wrong_eigenvalues_raise(cfg, monkeypatch, lambda d, p, alpha: d + p ** alpha,
                                   "congruent to the seed") > 0


@pytest.mark.parametrize("cfg", PLANTED_PROP_CONFIGS.values(), ids=PLANTED_PROP_CONFIGS.keys())
def test_a_planted_eigenvalue_off_the_root_raises(cfg, monkeypatch):
    # the control of the residual check: d + p^(alpha + 1) keeps the seed digit, and cp
    # there has valuation content + 1 = N - cap + 1 < N, since every accepted cap is > 1
    assert wrong_eigenvalues_raise(cfg, monkeypatch, lambda d, p, alpha: d + p ** (alpha + 1),
                                   "residual check") > 0


# prop_sharp's and prop_default's shapes at p = 2, 3 and 5, master seeds 1000 to 1004
SEEDED_SHAPES = ("prop_sharp.json", "prop_default.json")
SEEDED_PROP_CONFIGS = {
    f"{name[:-5]}-p{p}-seed{seed}":
        read_config(CONFIG_DIR / name)._replace(p=p, master_seed=seed, trials=100)
    for name in SEEDED_SHAPES for p in (2, 3, 5) for seed in range(1000, 1005)}


@pytest.fixture(scope="module")
def eigen_step_runs():
    """({id: report} of PROP_CONFIGS and SEEDED_PROP_CONFIGS, each at its own precision,
    and for each eigenvector_mod call (A, lam, p, N, dv) the tuple (N, [v_1, ..., v_r], dv,
    vectors): the valuations of the Smith divisors of A - lam I over Z/p^{2N} (2N for a
    zero divisor), dv = v(cp'(lam)), the Hensel lift's derivative_valuation, recomputed
    from A and lam, and the eigenvectors of the Smith forms mod p^(N + dv), p^(2N) and
    p^N, each reduced mod p^N. The trial catches nothing the eigen step raises, so a
    raise fails every test using it."""
    steps, eigenvector_mod = [], family.eigenvector_mod

    def measured(A, lam, p, N, dv):
        dec = smith_normal_form(A.shift(-lam), p, 2 * N)
        cp = char_poly(A)
        root = newton.hensel_slope_root(cp, newton_polygon(cp, p), p, padic_valuation(lam, p), N)
        assert root == (lam, dv)
        F = eigenvector_mod(A, lam, p, N, dv)
        at_2n = tuple(x % p ** N for x in dec.v_inverse_column(A.r - 1))
        steps.append((N, [2 * N if d == 0 else padic_valuation(d, p) for d in dec.divisors], dv,
                      (F, at_2n, eigenvector_mod(A, lam, p, N, 0))))
        return F

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(family, "eigenvector_mod", measured)
        reports = {cid: run_experiment(cfg)
                   for cid, cfg in {**PROP_CONFIGS, **SEEDED_PROP_CONFIGS}.items()}
    return reports, steps


def test_the_eigen_step_never_runs_out_of_precision_at_the_configs_own(eigen_step_runs):
    # the eigen step's reach: 3640 trials at the precision max(n + 2 alpha + guard, alpha r)
    # + kappa their plans resolve, and not one raises. Below it a trial raises:
    # test_starved_precision_raises_and_never_violates does so at N = 2..5
    reports, _ = eigen_step_runs
    assert sum(len(r.trials) for r in reports.values()) == 3640
    for cid, report in reports.items():
        assert set(report.rejected_by_reason()) <= {"not-simple"}, cid
        assert report.accepted > 0, cid


def test_the_derivative_valuation_is_at_most_alpha_r_minus_1(eigen_step_runs):
    """Why the plan's N = max(n + 2 alpha + guard, alpha r) + kappa meets every trial.

    A simple slope-alpha root lam has v(lam - mu) = min(alpha, v(mu)) <= alpha for each of
    the other r - 1 roots mu, none of valuation alpha, so dv = v(cp'(lam)) <= alpha (r - 1)
    and cap = N - alpha - max(dv, dv') >= N - alpha r >= kappa. A trial's cap gives
    max(dv, dv') = N - alpha - cap, so the bound is checked on both sides of every trial
    that reaches the eigen step; equality at alpha >= 1 shows that the bound is tight, and
    where alpha r sets N (the rank-12 row), cap = kappa.
    """
    reports, _ = eigen_step_runs
    slacks, reached = [], 0
    for report in reports.values():
        plan, cfg = report.plan, report.plan.config
        for t in report.trials:
            if t.status == REJECTED:
                continue
            dv = plan.precision - cfg.alpha - t.margin_cap
            assert 0 <= dv <= cfg.alpha * (cfg.profile.r - 1), (cfg, t.index)
            assert t.margin_cap >= plan.kappa
            if cfg.alpha:
                slacks.append(cfg.alpha * (cfg.profile.r - 1) - dv)
            reached += 1
    assert reached > 0 and min(slacks) == 0


RANK12 = next(cfg for cfg in PROP_CONFIGS.values() if cfg.profile.r == 12)


def test_alpha_r_sets_the_precision_and_every_verdict_holds_at_n_plus_40():
    # alpha (r - 2) = 10 > n + guard = 8: n + 2 alpha + guard + kappa = 12 would leave
    # cap < kappa on the trials that reach the eigen step, and alpha r + kappa = 14 gives
    # them a verdict, the one a plan 40 digits deeper gives, read to the trial's cap
    plan = prepare_plan(RANK12, "prop")
    assert (plan.kappa, plan.precision) == (2, 14)
    deep = plan._replace(precision=plan.precision + 40)
    accepted = 0
    for i in range(RANK12.trials):
        t, d = run_proposition_trial(plan, i), run_proposition_trial(deep, i)
        assert (t.status, t.reason) == (d.status, d.reason), i
        if t.status != REJECTED:
            assert t.margin_cap == plan.kappa, i  # the bound dv <= alpha (r - 1) is met
            assert min(t.margin, t.margin_cap) == min(d.margin, t.margin_cap), i
            accepted += t.status == ACCEPTED
    assert accepted == 8


def test_the_eigen_step_cannot_raise_by_the_smith_valuations(eigen_step_runs):
    """Why a trial that reaches the eigen step never raises EigenvectorError or fails its
    witness check, so _evaluate_proposition_pair catches neither.

    lam* is the simple slope-alpha root in Z_p and lam = lam* mod p^N, the Hensel lift's
    limit. dv = v(cp'(lam)); reaching the step means cap >= kappa >= 1, so
    dv <= N - alpha - cap < N. v_1 <= ... <= v_r are the Smith valuations of xi - lam I.
    1. cp'(lam) is the sum of the principal (r-1)-minors of lam I - xi, each divisible by
       d_1 ... d_{r-1}: v_1 + ... + v_{r-1} <= dv, so v_{r-1} < N.
    2. A primitive eigenvector F* of lam* lies in ker(xi - lam) mod p^N. Were v_r < N, p
       would divide every Smith coordinate of F*, which is primitive: so v_r >= N >= 1 and
       EigenvectorError (order < 1) cannot be raised.
    3. As v_{r-1} < N, F* = u F mod p^(N - v_{r-1}) for a unit u, and N - v_{r-1} >= N - dv
       >= cap + alpha. So (xi - lam) F = 0 mod p^cap, and F, a column of V^-1 (invertible
       mod p), has a unit coordinate: PolynomialOperator.eigenvalue's witness check holds,
       and it returns q(lam) = a* mod p^cap, since psi = q(xi) gives psi F* = q(lam*) F*.
    4. HenselError needs a missing or longer slope-alpha segment, which the census gate
       rejects first, or N <= alpha, which the plan's N >= n + 2 alpha + kappa excludes.
    The test checks the two inequalities 1 and 2 rest on at every eigenvector_mod call of
    the corpus, and that both are tight somewhere, so neither holds with room to spare.
    Only POLYNOMIAL_PSI trials call it: a PLANTED pair carries its exact eigenvector (see
    test_planted_eigenvector_is_the_slope_alpha_one_on_both_sides).
    """
    _, steps = eigen_step_runs
    assert len(steps) == 3440
    top_slack = [vals[-1] - N for N, vals, dv, _ in steps]
    minor_slack = [dv - sum(vals[:-1]) for N, vals, dv, _ in steps]
    assert min(top_slack) == min(minor_slack) == 0


def test_the_smith_form_mod_p_to_the_n_plus_dv_gives_the_vector_of_p_to_the_2n(eigen_step_runs):
    """eigenvector_mod works mod p^(N + dv), and on every call of the corpus its vector is
    the one the Smith form mod p^(2N) gives, reduced mod p^N.

    Why: the first r - 1 pivot valuations are at most v_1 + ... + v_(r-1) <= dv (the
    test above), below both moduli, so both runs choose the same pivots, and their
    column operations agree mod p^(M - v_s), at least p^N. The control mod p^N, where
    the last pivots may reach the modulus, gives another vector on some calls, so the
    equality is not one that any modulus gives.
    """
    _, steps = eigen_step_runs
    vectors = [vecs for *_, vecs in steps]
    assert all(at_dv == at_2n for at_dv, at_2n, _ in vectors)
    assert (sum(at_dv != at_n for at_dv, _, at_n in vectors), len(vectors)) == (1633, 3440)


@pytest.mark.parametrize("profile,alpha,accepted,least", [
    ({"kind": "hilbert", "d": 1, "h": 1, "n": 12, "max_rank": 8}, 3, 80, 7),
    ({"kind": "hilbert", "d": 1, "h": 1, "n": 6}, 2, 79, 3),
])
def test_the_bypass_control_finds_no_violation_where_no_kappa_passes(profile, alpha,
                                                                     accepted, least):
    # alpha at or above c, where no kappa passes the hypotheses, run with the check
    # bypassed: kappa = max(n - 2 alpha, 1) and N by the plan's own formula. No accepted
    # margin falls below the floor n - 2 alpha, so the prop verdict did not need alpha < c
    cfg = config_from_document(base_doc(profile=profile, alpha=alpha, trials=200,
                                        master_seed=4242))
    assert resolve_kappa(cfg.profile, alpha) is None
    kappa = max(cfg.profile.n - 2 * alpha, 1)
    plan = prepare_plan(cfg._replace(kappa=kappa), "prop")
    assert not plan.hypotheses_pass and plan.kappa == kappa
    plan = plan._replace(hypotheses_pass=True)
    report = ExperimentReport(mode="prop", plan=plan, trials=tuple(
        run_proposition_trial(plan, i) for i in range(cfg.trials)))
    assert (report.accepted, len(report.violations), report.min_margin()) == (accepted, 0, least)
    assert report.rejected_by_reason() == {"not-simple": 200 - accepted}
    assert least > cfg.profile.n - 2 * alpha


@pytest.mark.parametrize("shape", SEEDED_SHAPES)
def test_lam_and_margin_floor_n_minus_2_alpha_on_the_seeded_corpus(eigen_step_runs, shape):
    # an observed floor of these generators, not the paper's claim: on every accepted
    # trial v(lam - lam') and the margin are at least n - 2 alpha, and both meet it
    reports, _ = eigen_step_runs
    accepted, slacks = 0, {"lam": [], "margin": []}
    for cid, cfg in SEEDED_PROP_CONFIGS.items():
        if not cid.startswith(shape[:-5] + "-"):
            continue
        floor = cfg.profile.n - 2 * cfg.alpha
        for t in reports[cid].trials:
            assert t.status != VIOLATION, (cid, t.index)
            if t.status != ACCEPTED:
                continue
            accepted += 1
            lam = padic_valuation(t.lam - t.lam_prime, cfg.p)
            for key, v in (("lam", lam), ("margin", t.margin)):
                if v is not INFINITY:
                    slacks[key].append(v - floor)
    assert accepted == {"prop_sharp.json": 872, "prop_default.json": 728}[shape]
    assert min(slacks["lam"]) == min(slacks["margin"]) == 0


# --- constancy trials ------------------------------------------------------------------

def constancy_doc(**overrides):
    doc = base_doc(
        profile={"kind": "hilbert", "d": 1, "h": 1, "n": 6},
        alpha=0,
        nprime=5,
        trials=10,
        master_seed=777,
    )
    doc.update(overrides)
    return doc


def test_constancy_identical_pair_accepts():
    cfg = config_from_document(constancy_doc())
    plan = prepare_plan(cfg, "constancy")
    rng = SplitMix64(1)
    xi = gen_xi(cfg.profile, cfg.p, cfg.entry_bound, rng)
    pair = InstancePair(xi=xi, xi_prime=xi, psi=xi, psi_prime=xi,
                        profile=cfg.profile)
    report = _evaluate_constancy_pair(plan, pair, 0, 0)
    assert report.status == ACCEPTED
    assert report.mismatched_slopes == ()
    assert report.informational_slopes == ()


def test_constancy_run_and_bound():
    cfg = config_from_document(constancy_doc(trials=25))
    rep = run_experiment(cfg, mode="constancy")
    assert len(rep.violations) == 0
    assert rep.accepted == 25
    t = rep.trials[0]
    # bound oracle: profile (6,5,4,3,2,1) capped at 5 and re-leveled
    assert t.constancy_bound == Fraction(1)


def test_constancy_above_bound_mismatch_is_informational():
    cfg = config_from_document(
        constancy_doc(profile={"kind": "explicit", "n": 2, "a": [2, 2]}, nprime=1, p=2)
    )
    plan = prepare_plan(cfg, "constancy")
    xi = diagonal([4, 4])
    xi_prime = diagonal([4, 16])  # slopes {2,2} vs {2,4}, all above c = 1/2
    pair = InstancePair(xi=xi, xi_prime=xi_prime, psi=xi, psi_prime=xi,
                        profile=cfg.profile)
    report = _evaluate_constancy_pair(plan, pair, 0, 0)
    assert report.status == ACCEPTED
    assert report.mismatched_slopes == ()
    assert len(report.informational_slopes) == 2


def test_constancy_slopes_in_one_census_only_keep_their_order():
    # census {0: 1, 2: 1, 4: 2} against {2: 1, 3: 1, 4: 1, INFINITY: 1}: a slope only in
    # the first census leads, one only in the second sits in the middle, and the second
    # alone ends in an INFINITY segment; c = 1/4, so only slope 0 is below the bound
    cfg = config_from_document(
        constancy_doc(profile={"kind": "explicit", "n": 2, "a": [2, 2, 2, 2]}, nprime=1, p=2)
    )
    plan = prepare_plan(cfg, "constancy")
    assert plan.constancy_bound == Fraction(1, 4)
    xi = diagonal([1, 4, 16, 16])
    xi_prime = diagonal([4, 8, 16, 0])

    def evaluate(a, b):
        pair = InstancePair(xi=a, xi_prime=b, psi=a, psi_prime=b, profile=cfg.profile)
        return _evaluate_constancy_pair(plan, pair, 0, 0)

    report = evaluate(xi, xi_prime)
    assert report.status == VIOLATION
    assert report.mismatched_slopes == ((Fraction(0), 1, 0),)
    assert report.informational_slopes == (
        (Fraction(3), 0, 1), (Fraction(4), 2, 1), (INFINITY, 0, 1),
    )
    swapped = evaluate(xi_prime, xi)
    assert swapped.mismatched_slopes == ((Fraction(0), 0, 1),)
    assert swapped.informational_slopes == (
        (Fraction(3), 1, 0), (Fraction(4), 1, 2), (INFINITY, 1, 0),
    )


def test_constancy_planted_generator():
    cfg = config_from_document(
        constancy_doc(
            profile={"kind": "explicit", "n": 10, "a": [10] * 5},
            alpha=1,
            nprime=9,
            generator="PLANTED",
            trials=15,
            master_seed=904,
        )
    )
    rep = run_experiment(cfg, mode="constancy")
    assert len(rep.violations) == 0
    assert rep.accepted == 15


def test_constancy_violation_branch():
    # a pair that breaks the congruence hypothesis can disagree below the bound;
    # exercises the violation reporting path
    cfg = config_from_document(
        constancy_doc(profile={"kind": "explicit", "n": 2, "a": [2, 2]}, nprime=2, p=2)
    )
    plan = prepare_plan(cfg, "constancy")
    pair = InstancePair(
        xi=diagonal([1, 2]),
        xi_prime=diagonal([2, 2]),
        psi=IntMatrix.identity(2),
        psi_prime=IntMatrix.identity(2),
        profile=cfg.profile,
    )
    report = _evaluate_constancy_pair(plan, pair, 0, 0)
    assert report.status == VIOLATION
    assert (Fraction(0), 1, 0) in report.mismatched_slopes
    assert report.pair is not None


def test_multiplicity_differences_match_the_dict_oracle_on_shipped_trials():
    configs = [read_config(CONFIG_DIR / "constancy_default.json")]
    configs += [config_from_document(doc) for mode, doc, _ in VARIANTS if mode == "constancy"]
    differing = 0
    for cfg in configs:
        for t in run_experiment(cfg, mode="constancy").trials:
            want = multiplicity_differences_by_dict(t.census, t.census_prime)
            assert _multiplicity_differences(t.census, t.census_prime) == want
            # the report splits the same triples at the bound, in the same order
            assert list(t.mismatched_slopes + t.informational_slopes) == want
            differing += bool(want)
    assert differing > 0  # the oracle is not compared on equal censuses alone


def test_a_census_that_is_its_partner_is_not_walked():
    # the shortcut gives what the walk gives over an equal census of fresh segments
    report = run_experiment(read_config(CONFIG_DIR / "constancy_default.json"), mode="constancy")
    for census in {id(c): c for t in report.trials for c in (t.census, t.census_prime)}.values():
        copy = tuple(SlopeSegment(seg.slope, seg.length) for seg in census)
        assert copy == census and all(a is not b for a, b in zip(copy, census))
        assert _multiplicity_differences(census, census) == []
        assert _multiplicity_differences(census, copy) == []


def test_equal_point_sets_give_the_two_censuses_one_object():
    # from a cold cache, 39 of constancy_default's 100 trials read xi and xi' off one
    # polygon; 51 have equal censuses, the rest with different points off the hull
    newton._hull.cache_clear()
    report = run_experiment(read_config(CONFIG_DIR / "constancy_default.json"), mode="constancy")
    assert sum(t.census is t.census_prime for t in report.trials) == 39
    assert sum(t.census == t.census_prime for t in report.trials) == 51


# --- determinism -------------------------------------------------------------------------

def test_reports_are_byte_identical():
    cfg = config_from_document(base_doc(trials=8))
    one = report_to_json(run_experiment(cfg, mode="prop"))
    two = report_to_json(run_experiment(cfg, mode="prop"))
    assert one == two
    with_jobs = report_to_json(run_experiment(cfg, mode="prop", jobs=2))
    assert one == with_jobs


def test_report_document_shape():
    cfg = config_from_document(base_doc(trials=4))
    doc = json.loads(report_to_json(run_experiment(cfg, mode="prop")))
    assert set(doc) == {"mode", "config", "resolved", "summary", "trials"}
    assert doc["summary"]["trials"] == 4
    assert doc["config"]["profile"] == base_doc()["profile"]
    statuses = {t["status"] for t in doc["trials"]}
    assert statuses <= {"ACCEPTED", "REJECTED", "VIOLATION"}
