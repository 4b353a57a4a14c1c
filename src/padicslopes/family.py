"""Randomized instance generation and the theorem-verification experiments.

Instances follow the adapted-basis convention: K = sum_j p^{a_j} Z e_j is
diagonal, so the structural condition xi(K) in p^n L is the per-column
divisibility check, and a congruent partner xi' = xi + Delta (with
Delta_{ij} divisible by p^{max(a_i, n - a_j)}) induces the same endomorphism
of L/K while preserving the structural condition.

Per-trial seeds come from trial_seed(master_seed, index) (SplitMix64, see
rng.py), so a config determines every report byte; trials are independent
and may run in parallel without changing the output.
"""

from __future__ import annotations

import os
import sys
from collections import namedtuple
from functools import lru_cache
from itertools import chain, cycle
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import add, mod, mul, sub

from .bounds import c_exact, resolve_kappa, hilbert_profile
from .lattice import (
    DivisorProfile, InputError, IntMatrix, _check_rank, _column_scales, _int_json, _items_text,
    _json, check_xi_condition, json_text, random_unimodular, read_json,
)
from .newton import (
    _horner_mod,
    char_poly,
    eigenvector_mod,
    hensel_slope_root,
    newton_polygon,
    slope_multiplicity,
    slope_to_string,
)
from .padics import _MR_DETERMINISTIC_BOUND, INFINITY, is_prime, padic_valuation
from .rng import SplitMix64, trial_seed

POLYNOMIAL_PSI = "POLYNOMIAL_PSI"
PLANTED = "PLANTED"
_GENERATORS = (POLYNOMIAL_PSI, PLANTED)

# planted eigenvalue valuations are drawn from [0, _PLANTED_VAL_BOUND]
_PLANTED_VAL_BOUND = 6

ACCEPTED = "ACCEPTED"
REJECTED = "REJECTED"
VIOLATION = "VIOLATION"


class ExperimentConfig(namedtuple("ExperimentConfig", "p profile alpha kappa trials master_seed "
                                   "generator max_attempts entry_bound precision_guard nprime "
                                   "profile_doc")):
    """A checked config, as config_from_document builds it. kappa is a positive int or
    "auto", nprime an int or None, profile a DivisorProfile and profile_doc the profile
    document as it was given."""

    __slots__ = ()


# what a config document may hold, and what a report echoes: profile as it was given
_CONFIG_FIELDS = set(ExperimentConfig._fields) - {"profile_doc"}
_PROFILE_FIELDS_HILBERT = {"kind", "d", "h", "n", "max_rank"}
_PROFILE_FIELDS_EXPLICIT = {"kind", "n", "a"}


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InputError(msg)


def profile_from_document(doc) -> DivisorProfile:
    _require(isinstance(doc, dict), "profile must be an object")
    kind = doc.get("kind")
    if kind == "hilbert":
        unknown = set(doc) - _PROFILE_FIELDS_HILBERT
        _require(not unknown, f"unknown profile fields: {sorted(unknown)}")
        for key in ("d", "h", "n"):
            _require(type(doc.get(key)) is int and doc[key] >= 1,
                     f"profile.{key} must be a positive integer")
        max_rank = doc.get("max_rank")
        _require(max_rank is None or (type(max_rank) is int and 1 <= max_rank <= sys.maxsize),
                 f"profile.max_rank must be an integer with 1 <= max_rank <= {sys.maxsize}")
        return hilbert_profile(doc["d"], doc["h"], doc["n"], max_rank)
    if kind == "explicit":
        unknown = set(doc) - _PROFILE_FIELDS_EXPLICIT
        _require(not unknown, f"unknown profile fields: {sorted(unknown)}")
        _require(type(doc.get("n")) is int, "profile.n must be an integer")
        _require(isinstance(doc.get("a"), list) and doc["a"], "profile.a must be a nonempty list")
        try:
            return DivisorProfile(n=doc["n"], a=tuple(doc["a"]))
        except (TypeError, ValueError) as exc:
            raise InputError(str(exc)) from exc
    raise InputError(f"profile.kind must be 'hilbert' or 'explicit', got {kind!r}")


def config_from_document(doc) -> ExperimentConfig:
    _require(isinstance(doc, dict), "config must be an object")
    unknown = set(doc) - _CONFIG_FIELDS
    _require(not unknown, f"unknown config fields: {sorted(unknown)}")
    for key in ("p", "profile", "alpha", "trials", "master_seed"):
        _require(key in doc, f"missing config field: {key}")
    p = doc["p"]
    # is_prime refuses p at or above its deterministic bound
    _require(type(p) is int and p < _MR_DETERMINISTIC_BOUND and is_prime(p),
             f"p must be a prime below {_MR_DETERMINISTIC_BOUND}, got {p!r}")
    profile = profile_from_document(doc["profile"])
    alpha = doc["alpha"]
    # alpha <= n is all a trial can use; a larger one only makes PLANTED form p^alpha
    _require(type(alpha) is int and 0 <= alpha <= profile.n,
             f"alpha must be an integer with 0 <= alpha <= n = {profile.n}")
    kappa = doc.get("kappa", "auto")
    _require(kappa == "auto" or (type(kappa) is int and kappa >= 1),
             "kappa must be 'auto' or a positive integer")
    trials = doc["trials"]
    _require(type(trials) is int and 1 <= trials <= sys.maxsize,
             f"trials must be an integer with 1 <= trials <= {sys.maxsize}")
    master_seed = doc["master_seed"]
    _require(type(master_seed) is int, "master_seed must be an integer")
    generator = doc.get("generator", POLYNOMIAL_PSI)
    _require(generator in _GENERATORS, f"generator must be one of {_GENERATORS}")
    max_attempts = doc.get("max_attempts", 64)
    _require(type(max_attempts) is int and max_attempts >= 1,
             "max_attempts must be a positive integer")
    entry_bound = doc.get("entry_bound", 2)
    # draws come from [-p^entry_bound, p^entry_bound], at most 64 bits wide
    _require(type(entry_bound) is int and 0 <= entry_bound < 64 and p ** entry_bound < 1 << 63,
             "entry_bound must be a nonnegative integer with p^entry_bound < 2^63")
    precision_guard = doc.get("precision_guard", 8)
    for name, e in (("precision_guard", precision_guard), ("profile.n", profile.n)):
        _require(type(e) is int and 0 <= e < 16384 and p ** e < 1 << 16384,
                 f"{name} must be a nonnegative integer with p^{name} < 2^16384")
    nprime = doc.get("nprime")
    if nprime is not None:
        _require(type(nprime) is int and 1 <= nprime <= profile.n,
                 f"nprime must satisfy 1 <= nprime <= {profile.n}")
    return ExperimentConfig(
        p=p, profile=profile, alpha=alpha, kappa=kappa, trials=trials,
        master_seed=master_seed & ((1 << 64) - 1), generator=generator,
        max_attempts=max_attempts, entry_bound=entry_bound,
        precision_guard=precision_guard, nprime=nprime,
        profile_doc=dict(doc["profile"]),
    )


def read_config(path) -> ExperimentConfig:
    return config_from_document(read_json(path))


# --- generators ----------------------------------------------------------------

def gen_xi(profile: DivisorProfile, p: int, entry_bound: int, rng: SplitMix64) -> IntMatrix:
    """Random operator with xi(K) in p^n L by construction: column j is p^{n-a_j} times
    a uniform draw from [-p^entry_bound, p^entry_bound]."""
    bound = p ** entry_bound
    r = profile.r
    draws = rng.randints(-bound, bound, r * r)  # row-major, as r * r randint calls
    return IntMatrix._of(tuple(zip(*[map(mul, cycle(_column_scales(profile, p)), draws)] * r)))


def gen_congruent_pair(
    xi: IntMatrix,
    profile: DivisorProfile,
    p: int,
    entry_bound: int,
    rng: SplitMix64,
    min_exponent: int = 0,
) -> IntMatrix:
    """xi + Delta with Delta_{ij} divisible by p^{max(a_i, n - a_j, min_exponent)}.

    The max(a_i, .) part makes Delta map L into K (same induced endomorphism
    of L/K); the max(., n - a_j) part preserves xi(K) in p^n L; min_exponent
    adds the entrywise p^{n'} congruence the constancy experiment needs.
    """
    _check_rank(xi, profile)
    bound = p ** entry_bound
    r = profile.r
    draws = rng.randints(-bound, bound, r * r)  # row-major, as r * r randint calls
    moduli = chain.from_iterable(_congruence_moduli(profile, p, min_exponent))
    entries = map(add, chain.from_iterable(xi.rows), map(mul, moduli, draws))
    return IntMatrix._of(tuple(zip(*[entries] * r)))


@lru_cache(maxsize=32)
def _congruence_moduli(profile: DivisorProfile, p: int, min_exponent: int) -> tuple:
    """The r x r table of p^max(a_i, n - a_j, min_exponent), which divides Delta_ij."""
    return tuple([tuple([p ** max(ai, profile.n - aj, min_exponent) for aj in profile.a])
                  for ai in profile.a])


def operator_rows(op, r: int) -> tuple:
    """The rows of the r x r operator op: op.apply on the unit vectors gives its columns.
    Trials never form psi; a VIOLATION report and gen_psi_polynomial do, here."""
    return tuple(zip(*map(op.apply, IntMatrix.identity(r).rows)))


class PolynomialOperator(namedtuple("PolynomialOperator", "coeffs A")):
    """q(A), applied by Horner on vectors from acc = c_last vec, acc <- A acc + c_k vec:
    len(coeffs) - 1 matrix-vector products."""

    __slots__ = ()

    def apply(self, vec) -> tuple:
        acc = tuple([self.coeffs[-1] * x for x in vec]) if self.coeffs else (0,) * len(vec)
        for c in reversed(self.coeffs[:-1]):
            acc = tuple([y + c * x for y, x in zip(self.A.apply(acc), vec)])
        return acc

    def eigenvalue(self, vec, lam: int, m: int) -> int:
        """q(lam) mod m, coeffs read ascending as apply reads them, where vec has a unit
        coordinate mod m, a power of p (gcd(*vec, m) = 1), and A vec = lam vec mod m, so
        q(A) vec = q(lam) vec; else AssertionError. One product checks the eigenvector, a
        witness: q(A) is not applied."""
        if gcd(*vec, m) != 1 or any((y - lam * x) % m for y, x in zip(self.A.apply(vec), vec)):
            raise AssertionError("the witness is not a unit eigenvector of A for lam mod m")
        return _horner_mod(self.coeffs[::-1], lam, m)


def gen_psi_polynomial(
    xi: IntMatrix, xi_prime: IntMatrix, p: int, entry_bound: int, rng: SplitMix64
) -> tuple:
    """One shared integer polynomial q of degree < r, formed at both operators.

    Commutation is automatic, and the quotient endomorphisms agree because
    those of xi and xi' do. Trials draw q the same way but never form q(xi).
    """
    bound = p ** entry_bound
    coeffs = tuple(rng.randints(-bound, bound, xi.r))
    psi, psi_prime = (IntMatrix._of(operator_rows(PolynomialOperator(coeffs, A), xi.r))
                      for A in (xi, xi_prime))
    return psi, psi_prime, coeffs


def _conjugated(U: IntMatrix, diagonal, Ui: IntMatrix) -> IntMatrix:
    """U diag(diagonal) Ui as one product: U with column j scaled by diagonal[j], times Ui."""
    return IntMatrix._of(tuple([tuple(map(mul, row, diagonal)) for row in U.rows])) * Ui


class ConjugatedDiagonal(namedtuple("ConjugatedDiagonal", "U diagonal U_inverse")):
    """U diag(diagonal) U^-1, applied as U (diagonal * (U^-1 vec)): two matrix-vector
    products and a scaling."""

    __slots__ = ()

    def apply(self, vec) -> tuple:
        return self.U.apply(tuple(map(mul, self.diagonal, self.U_inverse.apply(vec))))

    def eigenvalue(self, vec, m: int) -> int:
        """E_k mod m, where U^-1 vec = e_k exactly, so U E U^-1 vec = E_k vec; else AssertionError."""
        w = self.U_inverse.apply(vec)
        if w.count(0) != len(w) - 1 or 1 not in w:
            raise AssertionError("the eigenvector is not a column of the conjugator")
        return self.diagonal[w.index(1)] % m


class InstancePair(namedtuple("InstancePair", "xi xi_prime psi psi_prime profile eigenvector "
                               "eigenvalues", defaults=(None, None))):
    """xi, xi' and commuting psi, psi', never formed by a trial, which reads a by
    psi.eigenvalue: ConjugatedDiagonal U E U^-1 for PLANTED, read off E, and
    PolynomialOperator q(xi) for POLYNOMIAL_PSI, read as q(lam) with the eigenvector as
    witness; a VIOLATION report forms both by operator_rows. Where the generator knows
    them (PLANTED), eigenvector is the slope-alpha eigenvector of both xi and xi', exact
    and primitive (U e_slot), and eigenvalues the exact slope-alpha eigenvalues (d_slot,
    d'_slot) of xi and xi', which a prop trial checks in place of lifting them. None
    makes a prop trial solve for them: eigenvector_mod mod p^cap for the witness, a unit
    kernel vector mod p^cap and no more, and the Hensel lift of the slope root."""

    __slots__ = ()


def gen_planted_quadruple(
    profile: DivisorProfile,
    p: int,
    alpha: int,
    entry_bound: int,
    rng: SplitMix64,
    max_attempts: int,
) -> InstancePair | None:
    """Conjugated commuting diagonals with exactly one slope-alpha eigenvalue.

    xi = U D U^{-1}, psi = U E U^{-1} share the conjugator, and the primed
    side shifts both diagonals by multiples of p^n, which realizes the pair
    constraints for every profile. xi and xi' are formed by one product each
    (see _conjugated); psi and psi' are ConjugatedDiagonal operators, formed only
    if a violation report writes them. Attempts whose xi fails the structural
    check are rejected; None means the attempt budget ran out. xi' - xi =
    p^n U diag(e) U^-1 is divisible by p^n, so xi' passes whenever xi does.

    The pair's eigenvector U e_slot is primitive (U is unimodular), exact for xi, xi',
    psi and psi', and the slope-alpha one on both sides when alpha < n: the p^n shift
    keeps the slot at valuation alpha and moves no other entry to it. So the slot's
    entries d_slot of D and d'_slot of D' are the exact slope-alpha eigenvalues of xi
    and xi', the pair's eigenvalues. At alpha = n no plan passes its hypotheses
    (kappa <= n - 2 alpha < 1), so no trial reads either.
    """
    r = profile.r
    n = profile.n
    bound = p ** entry_bound
    val_choices = [v for v in range(_PLANTED_VAL_BOUND + 1) if v != alpha]
    for _ in range(max_attempts):
        U, Ui = random_unimodular(r, rng)
        slot = rng.randint(0, r - 1)
        vals = [val_choices[i] for i in rng.randints(0, len(val_choices) - 1, r)]
        vals[slot] = alpha
        diag = [p ** v * u for v, u in zip(vals, rng.units(p, bound, r))]
        xi = _conjugated(U, diag, Ui)
        if not check_xi_condition(xi, profile, p):
            continue
        psi_diag = tuple(rng.randints(-bound, bound, r))
        pn = p ** n
        diag_prime = [x + pn * d for x, d in zip(diag, rng.randints(-bound, bound, r))]
        psi_diag_prime = tuple([x + pn * d for x, d in zip(psi_diag, rng.randints(-bound, bound, r))])
        xi_prime = _conjugated(U, diag_prime, Ui)
        return InstancePair(
            xi=xi, xi_prime=xi_prime, psi=ConjugatedDiagonal(U, psi_diag, Ui),
            psi_prime=ConjugatedDiagonal(U, psi_diag_prime, Ui),
            profile=profile, eigenvector=tuple([row[slot] for row in U.rows]),
            eigenvalues=(diag[slot], diag_prime[slot]),
        )
    return None


def _assert_pair_invariants(pair: InstancePair, p: int, min_exponent: int = 0) -> None:
    profile = pair.profile
    if not check_xi_condition(pair.xi, profile, p):
        raise AssertionError("xi violates the structural condition")
    pair.xi._check_dim(pair.xi_prime)
    # p^{n - a_j} | Delta_ij gives xi'(K) in p^n L; p^{a_i} | Delta_ij, the same action on L/K
    xs, ys, table = pair.xi.rows, pair.xi_prime.rows, _congruence_moduli(profile, p, min_exponent)
    deltas = map(sub, chain.from_iterable(xs), chain.from_iterable(ys))
    if any(map(mod, deltas, chain.from_iterable(table))):  # a failing pair is read again by rows
        i, j, m = next((i, j, m) for i, (moduli, row, row_prime) in enumerate(zip(table, xs, ys))
                       for j, (x, y, m) in enumerate(zip(row, row_prime, moduli)) if (x - y) % m)
        raise AssertionError(f"pair difference at ({i},{j}) misses p^{padic_valuation(m, p)}")
    # psi is q(xi), or U E U^-1 beside xi = U D U^-1: it commutes with xi by construction


# --- trials ---------------------------------------------------------------------

class TrialReport(namedtuple("TrialReport", "index seed status reason alpha kappa census "
                             "census_prime lam lam_prime a a_prime margin margin_cap "
                             "constancy_bound mismatched_slopes informational_slopes pair",
                             defaults=(None,) * 15)):  # None after status
    """One trial's outcome: index, seed and status, then the fields the trial reached,
    None where it did not. margin is an int or INFINITY, constancy_bound a Fraction,
    census and census_prime tuples of SlopeSegment, pair an InstancePair (set only on
    a VIOLATION). The field index hides tuple.index."""

    __slots__ = ()


class ExperimentPlan(namedtuple("ExperimentPlan", "config mode kappa hypotheses_pass precision "
                                "constancy_bound", defaults=(None,))):
    """Config plus the per-experiment resolutions shared by every trial.

    A prop plan resolves kappa, the hypotheses and the working precision N = max(n +
    2 alpha + guard, alpha r) + kappa: a simple slope-alpha root has dv = v(cp'(lam)) <=
    alpha (r - 1), so cap = N - alpha - max(dv, dv') >= kappa on every trial. A
    constancy plan resolves the bound c(L/(K + p^{n'} L)), a Fraction, below which
    the slope multiplicities of xi and xi' must agree (None in a prop plan).
    """

    __slots__ = ()


def prepare_plan(config: ExperimentConfig, mode: str) -> ExperimentPlan:
    if mode not in ("prop", "constancy"):
        raise InputError(f"mode must be 'prop' or 'constancy', got {mode!r}")
    if mode == "constancy":
        _require(config.nprime is not None, "constancy mode needs the config field nprime")
        bound = c_exact(config.profile, config.nprime).value
        return ExperimentPlan(config=config, mode=mode, kappa=None,
                              hypotheses_pass=True, precision=None, constancy_bound=bound)
    resolved = resolve_kappa(config.profile, config.alpha)
    kappa = resolved if config.kappa == "auto" else config.kappa
    ok = resolved is not None and kappa <= resolved
    precision = None if kappa is None else kappa + max(
        config.profile.n + 2 * config.alpha + config.precision_guard, config.alpha * config.profile.r)
    return ExperimentPlan(config=config, mode=mode, kappa=kappa,
                          hypotheses_pass=ok, precision=precision)


def _generate_pair(plan: ExperimentPlan, rng: SplitMix64,
                   min_exponent: int = 0) -> InstancePair | None:
    cfg = plan.config
    if cfg.generator == PLANTED:  # its p^n shift meets min_exponent, since nprime <= n
        return gen_planted_quadruple(cfg.profile, cfg.p, cfg.alpha, cfg.entry_bound, rng,
                                     cfg.max_attempts)
    xi = gen_xi(cfg.profile, cfg.p, cfg.entry_bound, rng)
    xi_prime = gen_congruent_pair(xi, cfg.profile, cfg.p, cfg.entry_bound, rng,
                                  min_exponent=min_exponent)
    bound = cfg.p ** cfg.entry_bound
    coeffs = tuple(rng.randints(-bound, bound, xi.r))
    return InstancePair(xi=xi, xi_prime=xi_prime, psi=PolynomialOperator(coeffs, xi),
                        psi_prime=PolynomialOperator(coeffs, xi_prime),
                        profile=cfg.profile)


def run_proposition_trial(plan: ExperimentPlan, index: int) -> TrialReport:
    cfg = plan.config
    seed = trial_seed(cfg.master_seed, index)
    if not plan.hypotheses_pass:
        return TrialReport(index=index, seed=seed, status=REJECTED, reason="hypotheses",
                           alpha=cfg.alpha, kappa=plan.kappa)
    rng = SplitMix64(seed)
    pair = _generate_pair(plan, rng)
    if pair is None:
        return TrialReport(index=index, seed=seed, status=REJECTED, reason="no-instance",
                           alpha=cfg.alpha, kappa=plan.kappa)
    _assert_pair_invariants(pair, cfg.p)
    return _evaluate_proposition_pair(plan, pair, index, seed)


def _evaluate_proposition_pair(plan: ExperimentPlan, pair: InstancePair,
                               index: int, seed: int) -> TrialReport:
    """Census gate, slope roots (checked where the pair knows them, else lifted),
    eigenvalue extraction, margin verdict."""
    cfg = plan.config
    kappa = plan.kappa
    N = plan.precision
    cp = char_poly(pair.xi)
    cp_prime = char_poly(pair.xi_prime)
    poly, poly_prime = newton_polygon(cp, cfg.p), newton_polygon(cp_prime, cfg.p)
    # the fields every outcome shares; each TrialReport is built once from them
    shared = dict(index=index, seed=seed, alpha=cfg.alpha, kappa=kappa,
                  census=poly.segments, census_prime=poly_prime.segments)
    if slope_multiplicity(poly, cfg.alpha) != 1 or slope_multiplicity(poly_prime, cfg.alpha) != 1:
        return TrialReport(status=REJECTED, reason="not-simple", **shared)

    exact, exact_prime = pair.eigenvalues or (None, None)  # None: lift them
    root = hensel_slope_root(cp, poly, cfg.p, cfg.alpha, N, exact)
    root_prime = hensel_slope_root(cp_prime, poly_prime, cfg.p, cfg.alpha, N, exact_prime)
    cap = N - cfg.alpha - max(root.derivative_valuation, root_prime.derivative_valuation)
    if cap < kappa:  # the plan's N rules this out; only a plan built by hand gets here
        raise AssertionError(f"working precision {N} leaves cap {cap} below kappa {kappa}")
    m = cfg.p ** cap
    if pair.eigenvector is None:  # a* = q(lam*), behind a unit kernel vector mod p^cap as a
        # witness: xi - lam I has v_r >= N >= cap, so its Smith form mod p^cap gives one
        vec = eigenvector_mod(pair.xi, root.value, cfg.p, cap)
        vec_prime = eigenvector_mod(pair.xi_prime, root_prime.value, cfg.p, cap)
        a = pair.psi.eigenvalue(vec, root.value, m)
        a_prime = pair.psi_prime.eigenvalue(vec_prime, root_prime.value, m)
    else:  # U e_slot is exact on both sides: a* is the slot's entry of E, and of E'
        a, a_prime = (psi.eigenvalue(pair.eigenvector, m) for psi in (pair.psi, pair.psi_prime))

    margin = padic_valuation(a - a_prime, cfg.p)
    violated = margin < kappa
    return TrialReport(
        status=VIOLATION if violated else ACCEPTED,
        lam=root.value,
        lam_prime=root_prime.value,
        a=a,
        a_prime=a_prime,
        margin=margin,
        margin_cap=cap,
        pair=pair if violated else None,
        **shared,
    )


def run_constancy_trial(plan: ExperimentPlan, index: int) -> TrialReport:
    cfg = plan.config
    seed = trial_seed(cfg.master_seed, index)
    rng = SplitMix64(seed)
    pair = _generate_pair(plan, rng, min_exponent=cfg.nprime)
    if pair is None:
        return TrialReport(index=index, seed=seed, status=REJECTED, reason="no-instance",
                           alpha=cfg.alpha)
    _assert_pair_invariants(pair, cfg.p, min_exponent=cfg.nprime)
    return _evaluate_constancy_pair(plan, pair, index, seed)


def _evaluate_constancy_pair(plan: ExperimentPlan, pair: InstancePair,
                             index: int, seed: int) -> TrialReport:
    """Compare slope multiplicities below the exact constancy bound."""
    cfg = plan.config
    bound = plan.constancy_bound
    census = newton_polygon(char_poly(pair.xi), cfg.p).segments
    census_prime = newton_polygon(char_poly(pair.xi_prime), cfg.p).segments
    mismatched = []
    informational = []
    for slope, m, mp in _multiplicity_differences(census, census_prime):
        if slope < bound:
            mismatched.append((slope, m, mp))
        else:
            informational.append((slope, m, mp))
    violated = bool(mismatched)
    return TrialReport(
        index=index, seed=seed,
        status=VIOLATION if violated else ACCEPTED,
        census=census, census_prime=census_prime,
        constancy_bound=bound,
        mismatched_slopes=tuple(mismatched),
        informational_slopes=tuple(informational),
        pair=pair if violated else None,
    )


def _multiplicity_differences(census, census_prime):
    """(slope, m, m') for every slope whose multiplicities m in census and m' in
    census_prime differ (0 where a census lacks it), in increasing slope order.

    A polygon's segments have strictly increasing slopes, INFINITY last, so the
    two are walked together and no slope is hashed; a segment that is its
    partner (polygons share one per (rise, run)) is skipped before any compare,
    and a census that is its partner (equal point sets share one polygon) is
    not walked at all.
    """
    if census is census_prime:
        return []
    out = []
    i = j = 0
    while i < len(census) or j < len(census_prime):
        seg = census[i] if i < len(census) else None
        seg_prime = census_prime[j] if j < len(census_prime) else None
        if seg is seg_prime:
            i += 1
            j += 1
        elif seg_prime is None or (seg is not None and seg.slope < seg_prime.slope):
            out.append((seg.slope, seg.length, 0))
            i += 1
        elif seg is None or seg_prime.slope < seg.slope:
            out.append((seg_prime.slope, 0, seg_prime.length))
            j += 1
        else:
            if seg.length != seg_prime.length:
                out.append((seg.slope, seg.length, seg_prime.length))
            i += 1
            j += 1
    return out


# --- experiment driver ------------------------------------------------------------

class ExperimentReport(namedtuple("ExperimentReport", "mode plan trials")):
    """The plan and its mode, with every TrialReport in index order."""

    __slots__ = ()

    @property
    def accepted(self) -> int:
        return sum(1 for t in self.trials if t.status == ACCEPTED)

    @property
    def violations(self) -> tuple:
        return tuple(t for t in self.trials if t.status == VIOLATION)

    def rejected_by_reason(self) -> dict:
        out = {}
        for t in self.trials:
            if t.status == REJECTED:
                out[t.reason] = out.get(t.reason, 0) + 1
        return dict(sorted(out.items()))

    def min_margin(self):
        # INFINITY sorts above every int; constancy trials carry None
        return min((t.margin for t in self.trials
                    if t.status == ACCEPTED and t.margin is not None), default=None)


def run_experiment(config: ExperimentConfig, mode: str = "prop", jobs: int = 1) -> ExperimentReport:
    """Run all trials; the report is a pure function of (config, mode). They run in
    W = min(jobs, trials) shares by _forked_trials, one share where os.fork is missing,
    and come back in index order, so parallelism cannot change an output byte."""
    plan = prepare_plan(config, mode)
    run = run_proposition_trial if mode == "prop" else run_constancy_trial
    workers = min(jobs, config.trials) if hasattr(os, "fork") else 1
    return ExperimentReport(mode=mode, plan=plan,
                            trials=tuple(_forked_trials(run, plan, config.trials, workers)))


def _forked_trials(run, plan: ExperimentPlan, trials: int, workers: int) -> list:
    """The trials in index order, run as W = workers shares: share w holds the indices
    i = w (mod W), so slow and fast trials spread evenly. This process runs share 0, and
    W - 1 forked children pickle one share w > 0 each to a pipe; W = 1 forks nothing and
    loads neither pickle nor signal. While children run, SIGTERM raises SystemExit(143).
    On any raise, Ctrl-C and SIGTERM too, every child is SIGKILLed; then all are reaped."""
    results, pipes, pids, parent = [None] * trials, [], [], os.getpid()
    if workers > 1:  # importing pickle alone takes about 15 ms
        import pickle
        import signal
        import traceback
        try:
            previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        except ValueError as exc:  # signal.signal works in the main thread alone
            raise RuntimeError("run_experiment with jobs > 1 must be called from the main "
                               "thread") from exc
    try:
        for w in range(1, workers):
            fd, write_fd = os.pipe()
            pipes.append(open(fd, "rb"))
            with open(write_fd, "wb") as writer:  # the parent's copy closes after the fork
                if (pid := os.fork()) == 0:
                    try:  # no reader left here: with the parent gone, the write fails on EPIPE
                        for reader in pipes:
                            reader.close()
                        try:  # orphaned (the parent SIGKILLed), it ends before its next trial
                            payload = [run(plan, i) if os.getppid() == parent else os._exit(1)
                                       for i in range(w, trials, workers)], None
                        except Exception as exc:
                            payload = None, (exc, traceback.format_exc())
                        pickle.dump(payload, writer, pickle.HIGHEST_PROTOCOL)
                        writer.flush()
                        os._exit(0)
                    finally:  # the payload was not written whole
                        os._exit(1)
                pids.append(pid)
        results[::workers] = [run(plan, i) for i in range(0, trials, workers)]
        payloads = [reader.read() for reader in pipes]
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        if workers > 1:
            signal.signal(signal.SIGTERM, previous)
        for reader in pipes:
            reader.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    for w, payload, status in zip(range(1, workers), payloads, statuses):
        if status:  # a RuntimeError, not an OSError: a crashed worker is no bad input
            raise RuntimeError(f"worker {w} ended without its trials, wait status {status}")
        share, error = pickle.loads(payload)
        if error:  # what the trial raised, from the child's traceback
            raise error[0] from RuntimeError(f"worker {w} raised:\n{error[1]}")
        results[w::workers] = share
    return results


# --- report serialization -----------------------------------------------------------

def _margin_json(margin):
    if margin is INFINITY:
        return "inf"
    return margin


# a trial sits in the report's "trials" list: its fields at six spaces, the rows of a
# census at eight, a row's items at ten
_TRIAL = "\n    "
_FIELD = _TRIAL + "  "
_ROW = _FIELD + "  "
_ITEM = _ROW + "  "


def _census_text(census, memo: dict) -> str:
    """A census's [slope, length] rows. Each census tuple's text, and each segment's
    row within it, is written once per memo, which is keyed by id and holds the object,
    so no id is reused while it lives."""
    if census is None:
        return "null"
    hit = memo.get(id(census))
    if hit is None:
        rows = []
        for seg in census:
            row = memo.get(id(seg))
            if row is None:
                row = memo[id(seg)] = (_json((slope_to_string(seg.slope), seg.length), _ROW), seg)
            rows.append(row[0])
        hit = memo[id(census)] = (_items_text(rows, _ROW), census)
    return hit[0]


def _triples_text(triples) -> str:
    return _items_text([_items_text((encode_basestring_ascii(slope_to_string(s)), _int_json(m),
                                     _int_json(mp)), _ITEM) for s, m, mp in triples], _ROW)


def _trial_text(t: TrialReport, memo: dict) -> str:
    """The trial as json_text writes it inside the report: its present fields in sorted
    key order, census rows from memo (see _census_text). A key's closing quote sorts
    below every character of a key, so the fields' texts sort as their keys do."""
    fields = ['"census": ' + _census_text(t.census, memo),
              '"census_prime": ' + _census_text(t.census_prime, memo),
              '"index": ' + _int_json(t.index),
              '"reason": ' + ("null" if t.reason is None else encode_basestring_ascii(t.reason)),
              '"seed": ' + _int_json(t.seed),
              '"status": ' + encode_basestring_ascii(t.status)]
    if t.alpha is not None:
        fields.append('"alpha": ' + _int_json(t.alpha))
    if t.kappa is not None:
        fields.append('"kappa": ' + _int_json(t.kappa))
    if t.lam is not None:
        fields += ['"lam": ' + _int_json(t.lam), '"lam_prime": ' + _int_json(t.lam_prime),
                   '"a": ' + _int_json(t.a), '"a_prime": ' + _int_json(t.a_prime),
                   '"margin": ' + _json(_margin_json(t.margin), _FIELD),
                   '"margin_cap": ' + _int_json(t.margin_cap)]
    if t.constancy_bound is not None:
        bound = encode_basestring_ascii(slope_to_string(t.constancy_bound))
        fields += ['"constancy_bound": ' + bound,
                   '"mismatched_slopes": ' + _triples_text(t.mismatched_slopes),
                   '"informational_slopes": ' + _triples_text(t.informational_slopes)]
    if t.pair is not None:
        fields.append('"matrices": ' + _json(
            {name: operator_rows(getattr(t.pair, name), t.pair.profile.r)
             for name in ("xi", "xi_prime", "psi", "psi_prime")}, _FIELD))
    fields.sort()
    return _items_text(fields, _FIELD, "{}")


def report_to_json(report: ExperimentReport) -> str:
    """The report as json_text would write its document, plus a newline. The header goes
    through json_text; "trials", its last key in sorted order, is written by _trial_text
    after it, with one census memo for the whole call."""
    plan = report.plan
    cfg = plan.config
    header = json_text({
        "mode": report.mode,
        "config": {**{k: getattr(cfg, k) for k in _CONFIG_FIELDS}, "profile": cfg.profile_doc},
        "resolved": {
            "kappa": plan.kappa,
            "hypotheses_pass": plan.hypotheses_pass,
            "precision": plan.precision,
            "profile_rank": cfg.profile.r,
            "profile_level": cfg.profile.n,
        },
        "summary": {
            "trials": cfg.trials,
            "accepted": report.accepted,
            "rejected": report.rejected_by_reason(),
            "violations": len(report.violations),
            "min_margin": _margin_json(report.min_margin()),
        },
    })
    memo = {}
    trials = _items_text([_trial_text(t, memo) for t in report.trials], _TRIAL)
    return header[:-len("\n}\n")] + ',\n  "trials": ' + trials + "\n}\n"
