"""Per-layer spans and counts, recorded from outside the library.

`Tracer` wraps the public calls into each layer by rebinding the function
objects in every `padicslopes` module that holds them: `family` imports
`char_poly`, `eigenvector_mod`, ... by name and `newton` imports
`smith_normal_form` by name, so the wrapper has to replace
`padicslopes.family.char_poly` and `padicslopes.newton.smith_normal_form`
as well as the defining module's binding. Leaving the `with` block puts
every original back. Spans carry name, start, end, parent and the trial index as the
request id; they are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

TRIAL = "trial"

# (defining module, function, span name)
SPANS = (
    ("family", "run_proposition_trial", TRIAL),
    ("family", "run_constancy_trial", TRIAL),
    ("family", "gen_xi", "family.gen_xi"),
    ("family", "gen_congruent_pair", "family.gen_congruent_pair"),
    ("family", "gen_psi_polynomial", "family.gen_psi_polynomial"),
    ("family", "gen_planted_quadruple", "family.gen_planted_quadruple"),
    ("family", "_assert_pair_invariants", "family.invariants"),
    ("family", "report_to_json", "family.report_to_json"),
    ("newton", "char_poly", "newton.char_poly"),
    ("newton", "newton_polygon", "newton.newton_polygon"),
    ("newton", "hensel_slope_root", "newton.hensel_slope_root"),
    ("newton", "eigenvector_mod", "newton.eigenvector_mod"),
    ("newton", "commuting_eigenvalue", "newton.commuting_eigenvalue"),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form"),
    ("lattice", "check_xi_condition", "lattice.check_xi_condition"),
    ("bounds", "c_exact", "bounds.c_exact"),
    ("bounds", "resolve_kappa", "bounds.resolve_kappa"),
)
LAYER_SPANS = tuple(dict.fromkeys(name for _, _, name in SPANS if name != TRIAL))

# counted only: a span per call would cost more than the call
VALUATIONS = "padics.padic_valuation.calls"
CONSTRUCTED = "lattice.IntMatrix.constructed"


def max_bits(matrices) -> int:
    return max((abs(x).bit_length() for m in matrices for row in m.rows for x in row), default=0)


# largest entry bit-length of a layer's result
RESULT_BITS = {
    "newton.char_poly": lambda cp: max(abs(c).bit_length() for c in cp.coeffs),
    "lattice.smith_normal_form": lambda d: max_bits((d.U, d.V, d.u_inverse, d.v_inverse)),
    "family.gen_psi_polynomial": lambda out: max_bits(out[:2]),
}
BITS_METRICS = tuple(f"{name}.max_bits" for name in RESULT_BITS)


def _modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "padicslopes" or name.startswith("padicslopes."))]


class Tracer:
    """Installs span and counter wrappers on enter and restores the originals on exit."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1, trial index or None]
        self.counts = Counter()
        self.bits = defaultdict(int)
        self._stack = []
        self._trial = None
        self._saved = []         # (owner, attribute, original)

    def __enter__(self):
        from padicslopes import lattice
        modules = _modules()
        for modname, fn, name in SPANS:
            self._rebind(modules, modname, fn, lambda orig, name=name: self._span(name, orig))
        self._rebind(modules, "padics", "padic_valuation", self._count_valuations)
        init = lattice.IntMatrix.__post_init__
        counts = self.counts

        def post_init(matrix):
            counts[CONSTRUCTED] += 1
            init(matrix)

        self._saved.append((lattice.IntMatrix, "__post_init__", init))
        lattice.IntMatrix.__post_init__ = post_init
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _rebind(self, modules, modname, fn, make):
        original = getattr(sys.modules[f"padicslopes.{modname}"], fn)
        wrapper = make(original)
        wrapper.__wrapped__ = original
        for module in modules:
            if module.__dict__.get(fn) is original:
                self._saved.append((module, fn, original))
                setattr(module, fn, wrapper)

    def _count_valuations(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[VALUATIONS] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        bits = RESULT_BITS.get(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if name == TRIAL:
                tracer._trial = args[1]
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer._trial]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
                if name == TRIAL:
                    tracer._trial = None
            if bits is not None:
                tracer.bits[name] = max(tracer.bits[name], bits(result))
            if name == "family.gen_planted_quadruple" and result is not None:
                tracer.counts["family.gen_planted_quadruple.instances"] += 1
            return result
        return wrapper

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "trial"],
                       "spans": self.spans}, fh)


REJECT_REASONS = ("not-simple", "no-instance", "precision", "hypotheses")
WASTED = ("not-simple", "no-instance")   # trials whose char_poly work the census gate discards

# rank sweep over truncated hilbert(d=2, h=1, n=12) operators: (rank, matrices)
SWEEP = ((6, 8), (8, 8), (12, 4), (16, 2), (24, 1))
SWEEP_SEED = 0x5EED
# Smith forms are taken of xi - lam I with lam a unit residue mod 3^32, the size of
# the eigenvalue eigenvector_mod subtracts at working precision 32 (rank 16,
# alpha 0, kappa 12, guard 8): that shift, not xi itself, makes the entries grow.
SWEEP_PRECISION = 32


def per_layer_units() -> dict:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {"trial.ms": "ms/trial", "trial.other_ms": "ms/trial"}
    for name in LAYER_SPANS:
        units[f"{name}.ms"] = "ms/trial"
        units[f"{name}.self_ms"] = "ms/trial"
        units[f"{name}.calls"] = "1/trial"
    units.update(dict.fromkeys(BITS_METRICS, "bits"))
    units["family.gen_planted_quadruple.attempts_per_instance"] = "ratio"
    units["family.report_to_json.bytes"] = "bytes/trial"
    units[CONSTRUCTED] = "1/trial"
    units[VALUATIONS] = "1/trial"
    units["family.trials.accepted_ratio"] = "ratio"
    units.update({f"family.trials.rejected.{r}": "ratio" for r in REJECT_REASONS})
    units["family.trials.wasted_share"] = "ratio"
    units["family.pool.efficiency"] = "ratio"
    units["trace.overhead"] = "ratio"
    units["trace.accounted_share"] = "ratio"
    units["cli.interpreter_start.ms"] = "ms"
    units["cli.import.ms"] = "ms"
    for r, _ in SWEEP:
        for layer in ("newton.char_poly", "lattice.smith_normal_form"):
            units[f"{layer}.r{r}.ms"] = "ms"
            units[f"{layer}.r{r}.max_bits"] = "bits"
    return units


def layer_metrics(tracer: Tracer, traced, untraced) -> dict:
    """Per-trial layer times and counts of the traced pass, outcome shares, and
    the wasted-work share of the untraced pass over the same trials."""
    trials = len(traced.results)
    own = tracer.self_times()
    total, self_ms, calls = defaultdict(float), defaultdict(float), Counter()
    per_trial_self = defaultdict(float)
    attempts = 0
    for (name, start, end, parent, trial), s in zip(tracer.spans, own):
        total[name] += end - start
        self_ms[name] += s
        calls[name] += 1
        if trial is not None:
            per_trial_self[trial] += s
        if name == "lattice.check_xi_condition" and parent >= 0 \
                and tracer.spans[parent][0] == "family.gen_planted_quadruple":
            attempts += 1
    out = {"trial.ms": total[TRIAL] * 1e3 / trials,
           "trial.other_ms": self_ms[TRIAL] * 1e3 / trials}
    for name in LAYER_SPANS:
        out[f"{name}.ms"] = total[name] * 1e3 / trials
        out[f"{name}.self_ms"] = self_ms[name] * 1e3 / trials
        out[f"{name}.calls"] = calls[name] / trials
    for name in RESULT_BITS:
        out[f"{name}.max_bits"] = tracer.bits[name]
    instances = tracer.counts["family.gen_planted_quadruple.instances"]
    out["family.gen_planted_quadruple.attempts_per_instance"] = attempts / instances if instances else 0
    out["family.report_to_json.bytes"] = len(traced.text.encode("utf-8")) / trials
    out[CONSTRUCTED] = tracer.counts[CONSTRUCTED] / trials
    out[VALUATIONS] = tracer.counts[VALUATIONS] / trials
    outcomes = Counter(t.reason or t.status for t in traced.results)
    out["family.trials.accepted_ratio"] = outcomes["ACCEPTED"] / trials
    for reason in REJECT_REASONS:
        out[f"family.trials.rejected.{reason}"] = outcomes[reason] / trials
    wasted = sum(lat for lat, t in zip(untraced.latencies, untraced.results) if t.reason in WASTED)
    out["family.trials.wasted_share"] = wasted / sum(untraced.latencies)
    out["trace.accounted_share"] = sum(per_trial_self.values()) / sum(traced.latencies)
    return out


def rank_sweep() -> dict:
    """char_poly and Smith-form cost and operand growth by rank, on a fixed corpus."""
    from padicslopes.bounds import hilbert_profile
    from padicslopes.family import gen_xi
    from padicslopes.lattice import DivisorProfile, IntMatrix, smith_normal_form
    from padicslopes.newton import char_poly
    from padicslopes.rng import SplitMix64

    full = hilbert_profile(2, 1, 12)
    out = {}
    for r, count in SWEEP:
        profile = DivisorProfile(n=full.n, a=full.a[:r])
        rng = SplitMix64(SWEEP_SEED + r)
        cp_s = snf_s = 0.0
        cp_bits = snf_bits = 0
        for _ in range(count):
            xi = gen_xi(profile, 3, 2, rng)
            shifted = xi - IntMatrix.identity(r).scale(rng.unit(3, 3 ** SWEEP_PRECISION))
            t0 = time.perf_counter()
            cp = char_poly(xi)
            t1 = time.perf_counter()
            dec = smith_normal_form(shifted)
            t2 = time.perf_counter()
            cp_s += t1 - t0
            snf_s += t2 - t1
            cp_bits = max(cp_bits, RESULT_BITS["newton.char_poly"](cp))
            snf_bits = max(snf_bits, RESULT_BITS["lattice.smith_normal_form"](dec))
        out[f"newton.char_poly.r{r}.ms"] = cp_s * 1e3 / count
        out[f"newton.char_poly.r{r}.max_bits"] = cp_bits
        out[f"lattice.smith_normal_form.r{r}.ms"] = snf_s * 1e3 / count
        out[f"lattice.smith_normal_form.r{r}.max_bits"] = snf_bits
    return out
