"""The constancy bound c against sigma, the slope below which the pair hypotheses force
the polygons of xi and xi' to agree.

Let e_k be the coefficient of X^(r-k) in char_poly(xi). The pair hypotheses force
v(e'_k - e_k) >= B_k (oracles.coefficient_bounds), and then the polygons agree on every
slope below sigma = min_k B_k / k. Since B_k >= T(k), the k-th term of c, c <= sigma:
no differing slope lies below c, so an honest constancy trial cannot be a VIOLATION.
"""

import random
from fractions import Fraction
from itertools import accumulate, combinations
from pathlib import Path

from padicslopes.bounds import hilbert_profile
from padicslopes.family import _generate_pair, prepare_plan, read_config
from padicslopes.lattice import DivisorProfile
from padicslopes.newton import char_poly, newton_polygon
from padicslopes.padics import INFINITY
from padicslopes.rng import SplitMix64, trial_seed

from oracles import (
    c_at_level, coefficient_bounds, multiplicity_differences_by_dict, sigma, valuation_by_division,
)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def least_term_ratio(profile, nprime: int) -> Fraction:
    """min_k T(k)/k, T(k) = ceil(n'/2) + sum_{i<k} (n' - min(a_i, n')): c without its
    cap at n'."""
    terms = accumulate((nprime - min(a, nprime) for a in profile.a[:-1]),
                       initial=(nprime + 1) // 2)
    return min(Fraction(t, k) for k, t in enumerate(terms, 1))


def assert_c_below_sigma(profile, nprime: int) -> None:
    c, ratio = c_at_level(profile, nprime), least_term_ratio(profile, nprime)
    assert c <= ratio <= sigma(profile, nprime), (profile, nprime)


def test_the_bounds_by_their_definition_at_small_ranks():
    # every k columns and every choice of the Delta column j0 among them
    rng = random.Random(0x5167)
    for _ in range(300):
        r, n = rng.randint(1, 6), rng.randint(1, 9)
        profile = DivisorProfile(n, sorted((rng.randint(0, n) for _ in range(r)), reverse=True))
        for nprime in range(1, n + 1):
            floor = max(min(profile.a), nprime)
            want = [min(max(floor, n - profile.a[j0])
                        + sum(n - profile.a[j] for j in cols if j != j0)
                        for cols in combinations(range(r), k) for j0 in cols)
                    for k in range(1, r + 1)]
            assert coefficient_bounds(profile, nprime) == want


def test_constancy_default_bounds():
    cfg = read_config(CONFIG_DIR / "constancy_default.json")
    assert coefficient_bounds(cfg.profile, cfg.nprime) == [5, 5, 6, 8, 11, 15]
    assert (c_at_level(cfg.profile, cfg.nprime), sigma(cfg.profile, cfg.nprime)) == (1, 2)


def test_c_is_at_most_sigma_on_a_slice_of_the_compare_c_grid():
    # d in {1, 2, 3}, h in {1, 2, 4}, n <= 12, max_rank in {none, 6, 8, 12}, rank <= 400,
    # every level n'
    points = 0
    for d in (1, 2, 3):
        for h in (1, 2, 4):
            for n in range(1, 13):
                for max_rank in (None, 6, 8, 12):
                    profile = hilbert_profile(d, h, n, max_rank)
                    if profile.r > 400:
                        continue
                    for nprime in range(1, n + 1):
                        assert_c_below_sigma(profile, nprime)
                        points += 1
    assert points > 1500


def test_c_is_at_most_sigma_on_random_explicit_profiles():
    rng = random.Random(0x5349)
    for _ in range(3000):
        n, r = rng.randint(1, 20), rng.randint(1, 10)
        profile = DivisorProfile(n, sorted((rng.randint(0, n) for _ in range(r)), reverse=True))
        for nprime in range(1, n + 1):
            assert_c_below_sigma(profile, nprime)


def test_the_least_observed_coefficient_valuations_are_the_bounds():
    # over the shipped constancy_default trials, min v(e'_k - e_k) is B_k at every k, and
    # the least differing slope is 4: the chain c <= sigma <= least slope reads 1 <= 2 <= 4
    cfg = read_config(CONFIG_DIR / "constancy_default.json")
    plan = prepare_plan(cfg, "constancy")
    least = [INFINITY] * cfg.profile.r
    differing = []
    for index in range(cfg.trials):
        pair = _generate_pair(plan, SplitMix64(trial_seed(cfg.master_seed, index)),
                              min_exponent=cfg.nprime)
        cp, cp_prime = char_poly(pair.xi), char_poly(pair.xi_prime)
        for k in range(1, cfg.profile.r + 1):
            if cp_prime.coeffs[k] != cp.coeffs[k]:
                v = valuation_by_division(cp_prime.coeffs[k] - cp.coeffs[k], cfg.p)
                least[k - 1] = min(least[k - 1], v)
        slopes = [s for s, _, _ in multiplicity_differences_by_dict(
            newton_polygon(cp, cfg.p).segments, newton_polygon(cp_prime, cfg.p).segments)
            if s is not INFINITY]
        if slopes:
            differing.append(min(slopes))
    assert least == coefficient_bounds(cfg.profile, cfg.nprime)
    assert (len(differing), min(differing)) == (49, 4)
    assert c_at_level(cfg.profile, cfg.nprime) <= sigma(cfg.profile, cfg.nprime) <= min(differing)
