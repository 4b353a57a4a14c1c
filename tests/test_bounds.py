import json
import math
import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest

import padicslopes.bounds as bounds
from padicslopes import cli
from padicslopes.bounds import (
    boundary_functions,
    c1_closed,
    c_exact,
    hilbert_profile,
    kappa_closed,
    n_threshold,
    resolve_kappa,
)
from padicslopes.family import config_from_document, prepare_plan
from padicslopes.lattice import DivisorProfile

from oracles import c_at_level, hypotheses_pass, resolve_kappa_by_search

BASE_CONFIG = config_from_document({"p": 3, "profile": {"kind": "explicit", "n": 1, "a": [1]},
                                    "alpha": 0, "trials": 1, "master_seed": 0})


def prop_plan(profile, alpha, kappa="auto"):
    return prepare_plan(replace(BASE_CONFIG, profile=profile, alpha=alpha, kappa=kappa), "prop")


def test_boundary_functions_examples():
    bf = boundary_functions(DivisorProfile(n=3, a=(3, 3, 2, 2, 1, 1)))
    assert bf.b == (0, 0, 1, 1, 2, 2)
    assert bf.B == (0, 0, 1, 2, 4, 6)
    assert bf.M == 2
    assert bf.T == (2, 2, 2, 3, 4, 6)

    bf = boundary_functions(DivisorProfile(n=4, a=(4, 4, 4)))
    assert bf.b == (0, 0, 0)
    assert bf.T == (2, 2, 2)

    bf = boundary_functions(DivisorProfile(n=2, a=(0,)))
    assert bf.b == (2,)
    assert bf.M == 1
    assert bf.T == (1,)


def test_smallest_m_with_2m_at_least_n():
    for n in range(1, 30):
        M = boundary_functions(DivisorProfile(n=n, a=(n,))).M
        assert 2 * M >= n
        assert 2 * (M - 1) < n


def test_c_exact_examples():
    c = c_exact(DivisorProfile(n=3, a=(3, 3, 2, 2, 1, 1)))
    # enumeration oracle: T(i)/i = 2, 1, 2/3, 3/4, 4/5, 1
    bf = boundary_functions(DivisorProfile(n=3, a=(3, 3, 2, 2, 1, 1)))
    ratios = [Fraction(t, i + 1) for i, t in enumerate(bf.T)]
    assert min(ratios) == Fraction(2, 3)
    assert c.value == Fraction(2, 3)
    assert c.argmin == 3

    c = c_exact(DivisorProfile(n=2, a=(2, 2)))
    assert c.value == Fraction(1, 2)
    assert c.argmin == 2

    c = c_exact(DivisorProfile(n=2, a=(0,)))
    assert c.value == 1
    assert c.argmin == 1


def test_c_exact_never_exceeds_level():
    # T(1) = M <= n, so the cap can only tie, never bind
    for n in (1, 2, 5, 9):
        for a in ((n,), (n, max(n - 1, 0)), (0,) * 3):
            prof = DivisorProfile(n=n, a=a)
            c = c_exact(prof)
            assert c.value <= n


def test_hilbert_profile_examples():
    assert hilbert_profile(1, 2, 3).a == (3, 3, 2, 2, 1, 1)
    assert hilbert_profile(1, 1, 1).a == (1,)
    assert hilbert_profile(2, 1, 2).a == (2, 1, 1, 1)
    with pytest.raises(ValueError):
        hilbert_profile(0, 1, 1)


def test_hilbert_params():
    assert hilbert_profile(1, 2, 3).a == (3, 3, 2, 2, 1, 1)
    with pytest.raises(ValueError):
        hilbert_profile(1, 0, 3)
    assert hilbert_profile(10**6, 3, 1).a == (1, 1, 1)  # n = 1: rank h for any d
    # only the first max_rank exponents are formed, here of 2^40
    assert hilbert_profile(40, 1, 2, max_rank=4).a == (2, 1, 1, 1)
    assert hilbert_profile(1, 2, 3, max_rank=10).a == (3, 3, 2, 2, 1, 1)
    # a rank h * n^d past sys.maxsize is refused before any list is built
    for d, h, n in ((63, 1, 2), (64, 1, 2), (100, 1, 2), (10**18, 1, 3), (1, sys.maxsize, 2)):
        with pytest.raises(ValueError, match="rank"):
            hilbert_profile(d, h, n)


def test_hilbert_profile_b_increments():
    for d in (1, 2):
        for h in (1, 2):
            for n in (1, 3, 5):
                prof = hilbert_profile(d, h, n)
                assert prof.r == n**d * h
                b = boundary_functions(prof).b
                for r in range(n):
                    lo, hi = r**d * h, (r + 1) ** d * h
                    assert all(b[x] == r for x in range(lo, hi))


def test_c1_closed_examples():
    assert abs(c1_closed(1, 1) - math.sqrt(2)) < 1e-12
    assert abs(c1_closed(2, 1) - 0.961500) < 1e-6
    assert abs(c1_closed(1, 4) - 1.060660) < 1e-6
    # formula re-evaluation at higher precision
    for d in (1, 2, 3):
        for h in (1, 2, 4):
            ex = d / (d + 1)
            want = (1.0 / (d + 1)) ** ex * (h ** -ex + 1.0)
            assert abs(c1_closed(d, h) - want) <= 1e-12 * want


def test_kappa_closed_examples():
    assert kappa_closed(100, 0, 1, 1).value == 13
    assert kappa_closed(1, 5, 1, 1).value == -15
    # monotone: nonincreasing in alpha once 3*alpha grows
    assert kappa_closed(100, 1, 1, 1).value <= kappa_closed(100, 0, 1, 1).value


def test_kappa_closed_monotonicity():
    for d in (1, 2):
        for h in (1, 2):
            values = [kappa_closed(n, 0, d, h).value for n in range(1, 60)]
            assert values == sorted(values)
            for n in (5, 20, 47):
                per_alpha = [kappa_closed(n, a, d, h).value for a in range(5)]
                assert per_alpha == sorted(per_alpha, reverse=True)


def test_kappa_closed_boundary_flag():
    # c1(1,1) sqrt(8) - 1 = 3 exactly: the floor sits on an integer boundary
    kc = kappa_closed(8, 0, 1, 1)
    assert kc.near_boundary
    assert kc.value in (2, 3)
    assert not kappa_closed(100, 0, 1, 1).near_boundary


def test_n_threshold_examples():
    # (14/sqrt(2))^2 = 98 exactly; smallest strictly greater integer is 99
    assert n_threshold(13, 0, 1, 1) == 99
    assert n_threshold(0, 0, 1, 1) == 1
    with pytest.raises(ValueError):
        n_threshold(-1, 0, 1, 1)


def test_n_threshold_kappa_consistency():
    for d in (1, 2, 3):
        for h in (1, 2, 4):
            for alpha in (0, 1, 2):
                for kappa in range(0, 11):
                    n = n_threshold(kappa, alpha, d, h)
                    assert kappa_closed(n, alpha, d, h).value >= kappa


def test_where_the_closed_kappa_exceeds_the_exact_one():
    # Whether the closed form promises a lower bound on the exact kappa is not settled
    # here (see README, "Closed form and exact kappa"); this pins where it does not give
    # one, so that any change to either side shows. Grid: rank h n^d at most 3 * 10^5.
    closed_positive, disagree = 0, []
    for d in (1, 2, 3):
        for h in (1, 2, 4):
            for n in range(4, 41):
                if h * n ** d > 3 * 10 ** 5:
                    continue
                profile = hilbert_profile(d, h, n)
                for alpha in range(4):
                    closed = kappa_closed(n, alpha, d, h).value
                    if closed < 1:
                        continue
                    closed_positive += 1
                    exact = resolve_kappa(profile, alpha)
                    if exact is None or exact < closed:
                        disagree.append((d, h, n, alpha, closed, exact))
    assert closed_positive == 259
    assert disagree == ([(1, 4, n, 1, 1, None) for n in range(23, 29)]
                        + [(1, 4, n, 1, 2, 1) for n in range(32, 38)])


def test_proposition_hypotheses():
    prof = DivisorProfile(n=6, a=(6, 5, 4, 3, 2, 1))
    assert prop_plan(prof, 0, 3).hypotheses_pass  # slope 0 is below any positive c
    assert resolve_kappa(prof, 0) == 6  # so every kappa <= n passes
    assert not prop_plan(prof, 2, 5).hypotheses_pass  # kappa > n - 2 alpha = 2

    prof = DivisorProfile(n=3, a=(3, 3, 2, 2, 1, 1))
    assert c_exact(prof, 3).value == Fraction(2, 3)  # alpha 1 fails at the top level
    assert not prop_plan(prof, 1, 1).hypotheses_pass
    assert resolve_kappa(prof, 1) is None


def test_proposition_hypotheses_reassert_range():
    prof = DivisorProfile(n=8, a=(8, 7, 6, 5))
    for alpha in (0, 1):
        for kappa in range(1, 11):
            if prop_plan(prof, alpha, kappa).hypotheses_pass:
                assert kappa <= prof.n - 2 * alpha


def test_resolve_kappa():
    prof = DivisorProfile(n=12, a=hilbert_profile(1, 1, 12).a[:8])
    assert resolve_kappa(prof, 1) == 1
    assert resolve_kappa(DivisorProfile(n=16, a=(16,) * 6), 1) == 2
    assert resolve_kappa(prof, 5) is None
    # the resolved kappa passes and kappa + 1 does not
    k = resolve_kappa(prof, 1)
    assert hypotheses_pass(prof, 1, k)
    assert not hypotheses_pass(prof, 1, k + 1)


def kappa_corpus():
    """(profile, alpha): the Hilbert profiles with d in {1, 2, 3}, h in {1, 2, 4},
    n <= 12 and rank at most 500 at every alpha from 0 to n, then 400 seeded
    explicit profiles with n <= 16 and r <= 10."""
    for d in (1, 2, 3):
        for h in (1, 2, 4):
            for n in range(1, 13):
                if h * n ** d <= 500:
                    profile = hilbert_profile(d, h, n)
                    for alpha in range(n + 1):
                        yield profile, alpha
    rng = random.Random(20261018)
    for _ in range(400):
        n = rng.randint(1, 16)
        a = sorted((rng.randint(0, n) for _ in range(rng.randint(1, 10))), reverse=True)
        # c <= M = ceil(n/2), so a larger alpha never passes
        yield DivisorProfile(n=n, a=tuple(a)), rng.randint(0, (n + 1) // 2)


def test_resolve_kappa_equals_the_search_over_every_kappa():
    resolved = [(resolve_kappa(prof, alpha), resolve_kappa_by_search(prof, alpha))
                for prof, alpha in kappa_corpus()]
    assert len(resolved) == 1009
    assert [got for got, _ in resolved] == [want for _, want in resolved]
    # the corpus reaches both verdicts and a spread of kappas
    kappas = {want for _, want in resolved}
    assert None in kappas and len(kappas) > 8


def test_plan_verdict_equals_the_hypotheses_for_every_kappa():
    for prof, alpha in kappa_corpus():
        passing = []
        for kappa in range(1, prof.n + 3):
            plan = prop_plan(prof, alpha, kappa)
            passed = hypotheses_pass(prof, alpha, kappa)
            assert (plan.kappa, plan.hypotheses_pass) == (kappa, passed), (prof, alpha, kappa)
            if passed:
                passing.append(kappa)
        auto = prop_plan(prof, alpha)
        assert (auto.kappa, auto.hypotheses_pass) == (max(passing, default=None), bool(passing))


def corpus_profiles():
    return list(dict.fromkeys(prof for prof, _ in kappa_corpus()))


def test_c_exact_at_every_level_equals_the_oracle():
    checked = 0
    for prof in corpus_profiles():
        for nprime in range(1, prof.n + 1):
            assert c_exact(prof, nprime).value == c_at_level(prof, nprime), (prof, nprime)
            checked += 1
    assert checked > 2000
    with pytest.raises(ValueError):
        c_exact(DivisorProfile(n=3, a=(3, 1)), 0)
    with pytest.raises(ValueError):
        c_exact(DivisorProfile(n=3, a=(3, 1)), 4)


def test_resolve_kappa_scans_each_level_at_most_once(monkeypatch):
    levels = []
    real = bounds.c_exact

    def counted(profile, nprime=None):
        levels.append(nprime)
        return real(profile, nprime)

    prof = hilbert_profile(1, 1, 40)
    expected = resolve_kappa_by_search(prof, 2)
    monkeypatch.setattr(bounds, "c_exact", counted)
    assert resolve_kappa(prof, 2) == expected
    # one downward scan from n that stops at the first failing level
    assert 0 < len(levels) <= prof.n
    assert levels == list(range(prof.n, prof.n - len(levels), -1))


def test_bounds_command_computes_each_level_once(monkeypatch, capsys):
    levels = []
    real = bounds.c_exact

    def counted(profile, nprime=None):
        levels.append(nprime)
        return real(profile, nprime)

    monkeypatch.setattr(bounds, "c_exact", counted)
    assert cli.main(["bounds", "--d", "2", "--h", "1", "--n", "120", "--alpha", "1"]) == 0
    hyp = json.loads(capsys.readouterr().out)["hypotheses"]
    # kappa 5: the top 2 alpha + kappa = 7 levels pass and level 113 fails; the report
    # (its c_exact block and every check) reads the same scan
    assert (hyp["kappa"], [ch["nprime"] for ch in hyp["checks"]]) == (5, list(range(114, 121)))
    assert levels == list(range(120, 112, -1))


def test_profile_mod_re_leveling():
    # c at level n' equals c of the profile clipped at n' and re-leveled at n'
    for prof in corpus_profiles():
        for nprime in range(1, prof.n + 1):
            fresh = DivisorProfile(n=nprime, a=tuple(min(x, nprime) for x in prof.a))
            assert c_exact(prof, nprime) == c_exact(fresh), (prof, nprime)
    assert c_exact(DivisorProfile(n=6, a=(6, 5, 4, 3, 2, 1)), 5) == c_exact(
        DivisorProfile(n=5, a=(5, 5, 4, 3, 2, 1)))
