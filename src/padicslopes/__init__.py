"""Exact-arithmetic Newton-polygon machinery for slopes of p-adic operators,
with randomized verification of slope local-constancy and commuting-operator
eigenvalue congruences on lattice quotients.

The API lives in the submodules: padics, lattice, newton, bounds, family, cli."""

__version__ = "0.1.0"
