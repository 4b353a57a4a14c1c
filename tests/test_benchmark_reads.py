"""The library surface that perfbench/layers.py reads.

The benchmark's tracer wraps functions by name and its readers take the
transforms and operators of the library's results, so deleting a member that
only the benchmark reads fails here, in the tests, and not only in a traced
benchmark run.
"""

import importlib.util
import re
from pathlib import Path

from padicslopes.family import gen_congruent_pair, gen_psi_polynomial, gen_xi
from padicslopes.lattice import DivisorProfile, smith_normal_form
from padicslopes.newton import char_poly
from padicslopes.rng import SplitMix64

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_layers", Path(__file__).resolve().parent.parent / "perfbench" / "layers.py")
layers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(layers)


def test_tracer_finds_every_function_it_wraps():
    with layers.Tracer():  # entering looks up each SPANS name and IntMatrix.__post_init__
        pass


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
