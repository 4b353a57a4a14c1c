import copy
import pickle

import pytest

from padicslopes.padics import (
    INFINITY,
    _require_prime,
    is_prime,
    padic_valuation,
)
from padicslopes.family import ACCEPTED, TrialReport
from padicslopes.newton import CharPoly, newton_polygon
from padicslopes.rng import SplitMix64

from oracles import valuation_by_division


def test_valuation_examples():
    assert padic_valuation(12, 2) == 2
    assert padic_valuation(0, 5) is INFINITY
    # oracle: repeated exact division
    assert valuation_by_division(-2187, 3) == 7
    assert padic_valuation(-2187, 3) == 7


def test_valuation_matches_division_oracle():
    rng = SplitMix64(101)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 11))
        x = rng.randint(-10**9, 10**9)
        assert padic_valuation(x, p) == (
            INFINITY if x == 0 else valuation_by_division(x, p)
        )
    # +-c p^v with c a unit of up to 300 bits: at and past v = 64, p^64 is divided out
    for p in (2, 3, 5, 7):
        for v in (0, 63, 64, 65, 128, 200):
            for bits in (1, 2, 64, 65, 300):
                c = 0
                for _ in range(5):
                    c = c << 64 | rng.next_u64()
                c >>= 320 - bits
                if c % p == 0:
                    c += 1  # now 1 mod p, a unit
                x = rng.choice((1, -1)) * c * p**v
                assert padic_valuation(x, p) == valuation_by_division(x, p) == v


def test_valuation_is_additive():
    rng = SplitMix64(7)
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        x = rng.randint(1, 10**6) * rng.choice((1, -1))
        y = rng.randint(1, 10**6) * rng.choice((1, -1))
        assert padic_valuation(x * y, p) == padic_valuation(x, p) + padic_valuation(y, p)


def test_infinity_ordering():
    assert INFINITY > 10**100
    assert not INFINITY < 0
    assert INFINITY == INFINITY
    assert INFINITY != 5


def test_pickle_at_every_protocol_gives_the_one_infinity():
    # a forked worker's trials come back pickled; every `is INFINITY` test reads them
    segment = newton_polygon(CharPoly((1, -3, 0, 0)), 3).segments[-1]
    assert segment.slope is INFINITY
    trial = TrialReport(index=0, seed=1, status=ACCEPTED, census=(segment,), margin=INFINITY)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(INFINITY, protocol)) is INFINITY
        assert pickle.loads(pickle.dumps(segment, protocol)) is segment
        again = pickle.loads(pickle.dumps(trial, protocol))
        assert again == trial and again.margin is INFINITY and again.census[0] is segment
    assert copy.copy(INFINITY) is INFINITY and copy.deepcopy(trial).margin is INFINITY


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(3) and is_prime(97)
    assert not is_prime(1) and not is_prime(0) and not is_prime(-7)
    assert not is_prime(561)  # Carmichael
    assert is_prime(2**61 - 1)
    assert not is_prime(2**61 + 1)


def test_prime_check_is_cached_but_never_for_a_refusal():
    assert padic_valuation(9, 3) == 2
    hits = _require_prime.cache_info().hits
    for bad in (3.0, True, 4, -3):
        for _ in range(2):  # a refusal is not cached: it raises again
            with pytest.raises(ValueError):
                padic_valuation(9, bad)
    assert padic_valuation(9, 3) == 2
    assert _require_prime.cache_info().hits == hits + 1
