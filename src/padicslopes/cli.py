"""Command-line driver.

Subcommands: polygon, snf, profile, bounds, verify-prop, verify-constancy,
compare-c. Machine-readable JSON goes to stdout (or --output); exit codes
are 0 for success, 1 for a verification run that found violations, 2 for
refused input (any lattice.InputError: a bad file, argument or config), a file
that cannot be read or written (OSError), or an input too large for memory
(MemoryError), 3 for an internal error (any other exception, such as a failed
invariant or a crashed worker; its traceback goes to stderr), 143 for SIGTERM
at --jobs > 1.

Exact quantities (valuations, slopes, c) are serialized as integers or
"num/den" strings; only the floating-point closed forms are decimal.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from fractions import Fraction
from itertools import islice

from .bounds import (
    c1_closed,
    c_exact,
    hilbert_profile,
    kappa_closed,
    level_bounds,
    lower_boundary,
    n_threshold,
    resolve_kappa,
)
from .family import read_config, report_to_json, run_experiment
from .lattice import (
    InputError, json_text, matrix_from_document, quotient_profile, read_json, smith_normal_form,
)
from .newton import char_poly, newton_polygon, polygon_to_document, slope_to_string
from .padics import is_prime


def _load_matrix(path):
    doc = read_json(path)
    try:
        return matrix_from_document(doc)
    except ValueError as exc:
        raise InputError(f"bad matrix file {path}: {exc}") from exc


def _emit(doc, output) -> None:
    _write(json_text(doc), output)


def _write(text: str, output) -> None:
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _prime_arg(value: str) -> int:
    try:
        p = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
    if not is_prime(p):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
    return p


def _int_at_least(low: int):
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {value!r}")
        if n < low:
            raise argparse.ArgumentTypeError(f"must be {'positive' if low else 'nonnegative'}: {n}")
        return n
    return parse


_positive_int, _nonnegative_int = _int_at_least(1), _int_at_least(0)


def _int_list(value: str) -> list:
    parts = [s.strip() for s in value.split(",") if s.strip()]
    if not parts:
        raise argparse.ArgumentTypeError("list must be nonempty")
    try:
        out = [int(s) for s in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated integer list: {value!r}")
    if any(x < 1 for x in out):
        raise argparse.ArgumentTypeError("list entries must be positive")
    return out


def _kappa_arg(value: str):
    return "auto" if value == "auto" else _positive_int(value)


def cmd_polygon(args) -> int:
    A = _load_matrix(args.input)
    cp = char_poly(A)
    poly = newton_polygon(cp, args.prime)
    _emit({"prime": args.prime, "char_poly": cp.coeffs, "polygon": polygon_to_document(poly)},
          args.output)
    return 0


def cmd_snf(args) -> int:
    dec = smith_normal_form(_load_matrix(args.input))
    _emit({"U": dec.U.rows, "D": dec.D.rows, "V": dec.V.rows, "divisors": dec.divisors},
          args.output)
    return 0


def cmd_profile(args) -> int:
    profile = quotient_profile(_load_matrix(args.input), args.prime, args.level)
    _emit({"n": profile.n, "a": profile.a, "sigma": profile.sigma_counts()}, args.output)
    return 0


def _kappa_closed_block(kc, exact) -> dict:
    """The report's closed-form kappa beside exact, the resolved kappa (or None). It is
    backed when the exact check passes at least that kappa; a value below 1 claims
    nothing, so backed is then None."""
    backed = None if kc.value < 1 else exact is not None and exact >= kc.value
    return {"value": kc.value, "near_boundary": kc.near_boundary,
            "exact_kappa": exact, "backed": backed}


def cmd_bounds(args) -> int:
    profile = hilbert_profile(args.d, args.h, args.n)
    T = lower_boundary(profile)
    try:
        kc = kappa_closed(args.n, args.alpha, args.d, args.h)
    except OverflowError as exc:  # 3 alpha past the float range
        raise InputError(f"alpha is too large for the closed-form kappa: {exc}") from exc
    exact = resolve_kappa(profile, args.alpha)
    if args.kappa == "auto":
        resolved = exact
        # show why even kappa = 1 fails when nothing resolves
        kappa_used = resolved if resolved is not None else 1
    else:
        resolved = kappa_used = args.kappa
    # the hypotheses: kappa <= n - 2 alpha, and alpha < c at the top 2 alpha + kappa levels
    in_range = kappa_used <= args.n - 2 * args.alpha
    levels = list(islice(level_bounds(profile), 2 * args.alpha + kappa_used if in_range else 1))
    checks = [{"nprime": args.n - k, "c": slope_to_string(c.value), "ok": args.alpha < c.value}
              for k, c in enumerate(levels)][::-1] if in_range else []
    passed = in_range and all(ch["ok"] for ch in checks)
    c = levels[0]
    hyp = {
        "kappa": kappa_used,
        "auto_resolved": resolved,
        "kappa_in_range": in_range,
        "checks": checks,
        "passed": passed,
        "failure_reason": None if passed else "c-bound" if in_range else "kappa-range",
    }
    _emit(
        {
            "inputs": {"d": args.d, "h": args.h, "n": args.n, "alpha": args.alpha},
            "profile": {"rank": profile.r, "sigma": profile.sigma_counts()},
            "M": T[0],
            "T_table": [
                {"i": i, "T": t, "ratio": slope_to_string(Fraction(t, i))}
                for i, t in enumerate(T, 1)
            ],
            "c_exact": {
                "value": slope_to_string(c.value),
                "argmin": c.argmin,
                "capped": False,  # T(1) = M <= n: the cap n never binds
            },
            "c1": c1_closed(args.d, args.h),
            "kappa_closed": _kappa_closed_block(kc, exact),
            "n_threshold": n_threshold(kc.value, args.alpha, args.d, args.h)
            if kc.value >= 0
            else None,
            "hypotheses": hyp,
        },
        args.output,
    )
    return 0


def cmd_verify(args) -> int:
    report = run_experiment(read_config(args.config), mode=args.mode, jobs=args.jobs)
    _write(report_to_json(report), args.output)
    if report.accepted == 0:
        rejected = sum(report.rejected_by_reason().values())
        print(f"warning: 0 accepted trials ({rejected} rejected)", file=sys.stderr)
    return 1 if report.violations else 0


def cmd_compare_c(args) -> int:
    rows = []
    for d in args.d_list:
        for h in args.h_list:
            for n in range(1, args.n_max + 1):
                exact = c_exact(hilbert_profile(d, h, n)).value
                closed = c1_closed(d, h) * n ** (1.0 / (d + 1)) - 1.0
                rows.append(
                    {
                        "d": d,
                        "h": h,
                        "n": n,
                        "c_exact": slope_to_string(exact),
                        "closed_form": closed,
                        "difference": closed - float(exact),
                        "closed_exceeds_exact": closed > float(exact),
                    }
                )
    _emit({"rows": rows}, args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padic-slopes",
        description="Exact Newton-polygon slope machinery and randomized theorem verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("polygon", help="Newton polygon of an integer matrix")
    sp.add_argument("--prime", type=_prime_arg, required=True)
    sp.add_argument("--input", required=True, help="matrix file (JSON with 'rows')")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_polygon)

    sp = sub.add_parser("snf", help="Smith normal form with transforms")
    sp.add_argument("--input", required=True)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_snf)

    sp = sub.add_parser("profile", help="elementary-divisor profile of a sublattice")
    sp.add_argument("--prime", type=_prime_arg, required=True)
    sp.add_argument("--level", type=_positive_int, required=True)
    sp.add_argument("--input", required=True, help="generator matrix of K")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_profile)

    sp = sub.add_parser("bounds", help="boundary functions, c, and closed forms")
    sp.add_argument("--d", type=_positive_int, required=True)
    sp.add_argument("--h", type=_positive_int, required=True)
    sp.add_argument("--n", type=_positive_int, required=True)
    sp.add_argument("--alpha", type=_nonnegative_int, required=True)
    sp.add_argument("--kappa", type=_kappa_arg, default="auto")
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_bounds)

    for mode in ("prop", "constancy"):
        sp = sub.add_parser(
            f"verify-{mode}",
            help=f"run the {'eigenvalue-congruence' if mode == 'prop' else 'local-constancy'} experiment",
        )
        sp.add_argument("--config", required=True)
        sp.add_argument("--jobs", type=_positive_int, default=1)
        sp.add_argument("--output")
        sp.set_defaults(func=cmd_verify, mode=mode)

    sp = sub.add_parser("compare-c", help="exact c versus the closed-form bound")
    sp.add_argument("--d-list", type=_int_list, required=True)
    sp.add_argument("--h-list", type=_int_list, required=True)
    sp.add_argument("--n-max", type=_positive_int, required=True)
    sp.add_argument("--output")
    sp.set_defaults(func=cmd_compare_c)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # an input too large to hold, not a bug
        print("error: the input does not fit in memory; make it smaller", file=sys.stderr)
        return 2
    except Exception:  # a bug, not bad input: keep exit 1 for "violations found"
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
