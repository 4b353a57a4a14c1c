"""The library surface that perfbench/layers.py reads.

The benchmark's tracer wraps functions by name and its readers take the
transforms and operators of the library's results, so deleting a member that
only the benchmark reads fails here, in the tests, and not only in a traced
benchmark run.
"""

import importlib.util
import re
from pathlib import Path

import pytest

from padicslopes.family import gen_congruent_pair, gen_psi_polynomial, gen_xi
from padicslopes.lattice import DivisorProfile, IntMatrix, smith_normal_form
from padicslopes.newton import char_poly
from padicslopes.rng import SplitMix64

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_layers", Path(__file__).resolve().parent.parent / "perfbench" / "layers.py")
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_tracer_finds_every_function_it_wraps():
    with layers.Tracer():  # entering looks up each SPANS name and IntMatrix.__post_init__
        pass


def test_the_construction_counter_counts_each_checked_matrix_once():
    a = IntMatrix([[1, 2], [3, 4]])
    with layers.Tracer() as tracer:  # it replaces IntMatrix.__post_init__ on the class
        built = [IntMatrix([[1, 2], [3, 4]]), IntMatrix(((5, -6), (7, 8)))]
        assert tracer.counts[layers.CONSTRUCTED] == 2
        derived = [a * built[0], built[1].shift(3), a - built[0], IntMatrix._of(((1,),))]
        assert a.apply((1, -1)) == (-1, -1)
        assert tracer.counts[layers.CONSTRUCTED] == 2
        with pytest.raises(ValueError, match="square"):
            IntMatrix([[1, 2]])  # counted, then refused by the check it wraps
        assert tracer.counts[layers.CONSTRUCTED] == 3
    assert [m.rows for m in built] == [((1, 2), (3, 4)), ((5, -6), (7, 8))]
    assert [m.rows for m in derived] == [((7, 10), (15, 22)), ((8, -6), (7, 11)),
                                         ((0, 0), (0, 0)), ((1,),)]


def test_each_smith_transform_is_formed_once():
    for args in ((), (3, 4)):
        dec = smith_normal_form(IntMatrix([[2, 4, 1], [6, 9, 3], [0, 3, 27]]), *args)
        for name in ("U", "V", "u_inverse", "v_inverse"):
            assert getattr(dec, name) is getattr(dec, name), name


def test_result_bits_readers_take_one_trial():
    rng = SplitMix64(0xBE7C)
    p, bound = 3, 2
    profile = DivisorProfile(n=4, a=(4, 3, 2, 0))
    xi = gen_xi(profile, p, bound, rng)
    xi_prime = gen_congruent_pair(xi, profile, p, bound, rng)
    results = {
        "newton.char_poly": char_poly(xi),
        "lattice.smith_normal_form": smith_normal_form(xi.shift(-1), p, 8),
        "family.gen_psi_polynomial": gen_psi_polynomial(xi, xi_prime, p, bound, rng),
    }
    assert results.keys() == layers.RESULT_BITS.keys()
    for name, read in layers.RESULT_BITS.items():
        assert read(results[name]) > 0, name


def test_rank_sweep_reports_every_rank():
    sweep = layers.rank_sweep()
    units = layers.per_layer_units()
    assert sweep.keys() == {name for name in units if re.search(r"\.r\d+\.", name)}
    assert all(value > 0 for value in sweep.values())
