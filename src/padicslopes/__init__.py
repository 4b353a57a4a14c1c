"""Exact-arithmetic Newton-polygon machinery for slopes of p-adic operators,
with randomized verification of slope local-constancy and commuting-operator
eigenvalue congruences on lattice quotients."""

from .padics import (
    INFINITY,
    congruent_mod_power,
    is_prime,
    padic_valuation,
    unit_part,
)
from .lattice import (
    DivisorProfile,
    IntMatrix,
    KernelGenerator,
    SmithDecomposition,
    check_xi_condition,
    kernel_mod,
    profile_mod,
    quotient_profile,
    smith_normal_form,
)
from .newton import (
    CharPoly,
    ConsistencyError,
    EigenvectorError,
    HenselError,
    HenselRoot,
    NewtonPolygon,
    SlopeSegment,
    char_poly,
    commuting_eigenvalue,
    eigenvector_mod,
    hensel_slope_root,
    newton_polygon,
    slope_census,
    slope_multiplicity,
)
from .bounds import (
    BoundaryFunctions,
    CBound,
    HilbertParams,
    HypothesisReport,
    boundary_functions,
    c1_closed,
    c_exact,
    hilbert_profile,
    kappa_closed,
    n_threshold,
    proposition_hypotheses,
    resolve_kappa,
)
from .family import (
    ExperimentConfig,
    ExperimentReport,
    InstancePair,
    TrialReport,
    config_from_document,
    gen_congruent_pair,
    gen_psi_polynomial,
    gen_xi,
    run_experiment,
)

__version__ = "0.1.0"
