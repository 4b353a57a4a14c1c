"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
"""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from padicslopes.bounds import (
    c_exact,
    hilbert_profile,
    kappa_closed,
    n_threshold,
)
from padicslopes.family import (
    config_from_document,
    read_config,
    report_to_json,
    run_experiment,
)
from padicslopes.lattice import IntMatrix, random_unimodular, smith_normal_form
from padicslopes.newton import CharPoly, char_poly, hensel_slope_root, newton_polygon
from padicslopes.padics import padic_valuation
from padicslopes.rng import SplitMix64

from oracles import det_fraction, diagonal, horner_mod, poly_mul

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def report_line(criterion, name, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion} ({name}): {status} - {detail} [{elapsed:.1f}s / {budget}s]")
    assert ok, f"criterion {criterion} failed: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"


def test_criterion_1_polygon_spectrum_oracle():
    start = time.monotonic()
    rng = SplitMix64(0xACCE9701)
    failures = 0
    for _ in range(200):
        p = rng.choice((2, 3, 5, 7))
        r = rng.randint(1, 6)
        vals = [rng.randint(0, 6) for _ in range(r)]
        diag = [p**v * rng.unit(p, max(9, p**2)) for v in vals]
        U, Ui = random_unimodular(r, rng)
        A = U * diagonal(diag) * Ui
        got = {}
        for seg in newton_polygon(char_poly(A), p).segments:
            got[seg.slope] = got.get(seg.slope, 0) + seg.length
        want = {}
        for v in vals:
            want[Fraction(v)] = want.get(Fraction(v), 0) + 1
        if got != want:
            failures += 1
    elapsed = time.monotonic() - start
    report_line(1, "polygon-spectrum oracle", failures == 0,
                f"200 planted instances, {failures} mismatches", elapsed, 30)


def test_criterion_2_snf_suite():
    start = time.monotonic()
    rng = SplitMix64(0xACCE9702)
    failures = 0
    for _ in range(500):
        r = rng.randint(1, 8)
        A = IntMatrix(
            [[rng.randint(-(10**6), 10**6) for _ in range(r)] for _ in range(r)]
        )
        dec = smith_normal_form(A)
        ok = (dec.U * dec.D * dec.V).rows == A.rows
        d = dec.divisors
        ok = ok and all(x >= 0 for x in d)
        for x, y in zip(d, d[1:]):
            ok = ok and (y == 0 if x == 0 else y % x == 0)
        ok = ok and abs(det_fraction(dec.D)) == abs(det_fraction(A))
        ok = ok and abs(det_fraction(dec.U)) == 1 and abs(det_fraction(dec.V)) == 1
        if not ok:
            failures += 1
    elapsed = time.monotonic() - start
    report_line(2, "SNF suite", failures == 0,
                f"500 matrices, {failures} contract failures", elapsed, 30)


def test_criterion_3_proposition_congruence():
    start = time.monotonic()
    problems = []
    details = []
    for name in ("prop_default.json", "prop_planted.json"):
        config = read_config(CONFIG_DIR / name)
        report = run_experiment(config, mode="prop")
        kappa = report.plan.kappa
        accepted = report.accepted
        # zero violations on prop_planted.json hold by construction: psi' shifts psi's
        # diagonal by multiples of p^n, so v(a - a') >= min(n, cap) >= kappa, as kappa < n
        # at alpha = 1. That run checks the machinery, not the proposition
        if report.violations:
            problems.append(f"{name}: {len(report.violations)} violations")
        if accepted < 0.3 * config.trials:
            problems.append(f"{name}: only {accepted}/{config.trials} accepted")
        for t in report.trials:
            if t.status == "ACCEPTED":
                if not t.margin >= kappa:
                    problems.append(f"{name} trial {t.index}: margin {t.margin} < {kappa}")
        details.append(f"{name}: {accepted}/{config.trials} accepted, kappa={kappa}, "
                       f"min_margin={report.min_margin()}")
    # the shipped default config must drive the CLI to exit 0
    proc = subprocess.run(
        [sys.executable, "-m", "padicslopes.cli", "verify-prop",
         "--config", str(CONFIG_DIR / "prop_default.json")],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        problems.append(f"CLI exit code {proc.returncode}")
    elapsed = time.monotonic() - start
    report_line(3, "Proposition 4.1 congruence", not problems,
                "; ".join(details) + ("; " + "; ".join(problems) if problems else ""),
                elapsed, 300)


def test_criterion_4_local_constancy():
    start = time.monotonic()
    settings = [
        ({"kind": "hilbert", "d": 1, "h": 1, "n": 6}, 6, 515001),
        ({"kind": "hilbert", "d": 1, "h": 1, "n": 6}, 5, 515002),
        ({"kind": "hilbert", "d": 1, "h": 2, "n": 4}, 3, 515003),
    ]
    problems = []
    details = []
    for profile_doc, nprime, seed in settings:
        config = config_from_document({
            "p": 3,
            "profile": profile_doc,
            "alpha": 0,
            "trials": 100,
            "master_seed": seed,
            "generator": "POLYNOMIAL_PSI",
            "nprime": nprime,
        })
        report = run_experiment(config, mode="constancy")
        if report.violations:
            problems.append(f"(n={profile_doc['n']}, n'={nprime}): "
                            f"{len(report.violations)} violations")
        if report.accepted != config.trials:
            problems.append(f"(n={profile_doc['n']}, n'={nprime}): "
                            f"{report.accepted}/{config.trials} accepted")
        bound = report.trials[0].constancy_bound
        details.append(f"n={profile_doc['n']},n'={nprime}: 100 pairs, bound={bound}")
    elapsed = time.monotonic() - start
    report_line(4, "local constancy", not problems,
                "; ".join(details) + ("; " + "; ".join(problems) if problems else ""),
                elapsed, 300)


def test_criterion_5_bounds_grid():
    start = time.monotonic()
    problems = []
    boundary_exempt = 0
    checked = 0
    for d in (1, 2, 3):
        for h in (1, 2, 4):
            for n in range(4, 33):
                profile = hilbert_profile(d, h, n)
                b = [n - a for a in profile.a]
                # (i) B-increments are exactly r on (r^d h, (r+1)^d h]
                for r in range(n):
                    lo, hi = r**d * h, (r + 1) ** d * h
                    if any(b[x] != r for x in range(lo, hi)):
                        problems.append(f"(i) at d={d},h={h},n={n},r={r}")
                        break
                # (ii) exact c never exceeds the level
                if c_exact(profile).value > n:
                    problems.append(f"(ii) at d={d},h={h},n={n}")
                for alpha in (0, 1, 2):
                    kc = kappa_closed(n, alpha, d, h)
                    # (iii) monotone in n at fixed alpha
                    if n > 4 and kc.value < kappa_closed(n - 1, alpha, d, h).value:
                        problems.append(f"(iii,n) at d={d},h={h},n={n},a={alpha}")
                    # (iii) nonincreasing in alpha
                    if alpha and kc.value > kappa_closed(n, alpha - 1, d, h).value:
                        problems.append(f"(iii,alpha) at d={d},h={h},n={n},a={alpha}")
                    # (iv) closed-form self-consistency; at flagged exact
                    # boundaries the strict form is unattainable (n equals the
                    # threshold bound itself) and the flag licenses the +-1
                    if kc.value >= 1:
                        checked += 1
                        thr = n_threshold(kc.value, alpha, d, h)
                        if kc.near_boundary:
                            boundary_exempt += 1
                            if not n >= thr - 1:
                                problems.append(f"(iv,flagged) at d={d},h={h},n={n},a={alpha}")
                        elif not n > thr - 1:
                            problems.append(f"(iv) at d={d},h={h},n={n},a={alpha}")
    elapsed = time.monotonic() - start
    report_line(
        5, "bounds consistency grid", not problems,
        f"261 grid points; {checked} threshold checks, "
        f"{boundary_exempt} exact-boundary points at the flagged +-1"
        + ("; " + "; ".join(problems[:5]) if problems else ""),
        elapsed, 60,
    )


def test_criterion_6_hensel_suite():
    start = time.monotonic()
    rng = SplitMix64(0xACCE9706)
    failures = 0
    for _ in range(100):
        p = rng.choice((2, 3, 5, 7))
        alpha = rng.randint(0, 4)
        u = rng.unit(p, 9)
        f = [1, -(p**alpha) * u]
        betas = []
        for _ in range(rng.randint(0, 4)):
            beta = rng.randint(0, 6)
            while beta == alpha:
                beta = rng.randint(0, 6)
            betas.append(beta)
            f = poly_mul(f, [1, -(p**beta) * rng.unit(p, 9)])
        e = sum(min(alpha, b) for b in betas)
        N = e + alpha + 8
        cp = CharPoly(tuple(f))
        root = hensel_slope_root(cp, newton_polygon(cp, p), p, alpha, N)
        ok = (
            root.derivative_valuation == e
            and (root.value - p**alpha * u) % p ** (N - e) == 0
            and horner_mod(cp.coeffs[::-1], root.value, p**N) == 0
            and padic_valuation(root.value, p) == alpha
        )
        if not ok:
            failures += 1
    elapsed = time.monotonic() - start
    report_line(6, "Hensel suite", failures == 0,
                f"100 planted polynomials, {failures} failures", elapsed, 30)


def test_criterion_7_determinism():
    start = time.monotonic()
    problems = []
    runs = [
        ("prop_default.json", "prop"),
        ("prop_planted.json", "prop"),
        ("constancy_default.json", "constancy"),
    ]
    for name, mode in runs:
        config = read_config(CONFIG_DIR / name)
        first = report_to_json(run_experiment(config, mode=mode))
        second = report_to_json(run_experiment(config, mode=mode))
        parallel = report_to_json(run_experiment(config, mode=mode, jobs=4))
        if first != second:
            problems.append(f"{name}: rerun differs")
        if first != parallel:
            problems.append(f"{name}: --jobs changes bytes")
    # end to end through the CLI as well
    cmd = [sys.executable, "-m", "padicslopes.cli", "verify-constancy",
           "--config", str(CONFIG_DIR / "constancy_default.json")]
    out1 = subprocess.run(cmd, capture_output=True, text=True)
    out2 = subprocess.run(cmd + ["--jobs", "3"], capture_output=True, text=True)
    if out1.stdout != out2.stdout:
        problems.append("CLI --jobs changes bytes")
    elapsed = time.monotonic() - start
    report_line(7, "determinism", not problems,
                "3 configs x {serial, rerun, jobs} byte-identical"
                + ("; " + "; ".join(problems) if problems else ""),
                elapsed, 120)
