"""Command-line interface: convergence runs, the basis stress check, and
problem validation.

Exit codes: 0 success, 2 validation failure or malformed command line,
3 assembly/solver failure, 4 rate assertion failure (with --assert-rates).
"""
from __future__ import annotations

import argparse
import sys

from .assembly import AssemblyError, SolverError
from .experiments import N_MAX, basis_stress_test, emit, n_sequence, run_convergence
from .geometry import GeometryError
from .ife_space import UnisolvenceError
from .problems import ValidationError, get_example, validate

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_SOLVER = 3
EXIT_RATES = 4


def _number(kind, ok, what: str):
    """An argparse type: kind(text), a usage error unless ok(value)."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {what}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


_mesh_n = _number(int, lambda n: 1 <= n <= N_MAX and not n & (n - 1),
                 f"a power of two up to {N_MAX}")
_positive = _number(float, lambda x: x > 0.0, "positive")
_fraction = _number(float, lambda x: 0.0 < x < 1.0, "in (0, 1)")
_count = _number(int, lambda n: n >= 1, "at least 1")
_ratio = _number(float, lambda x: 1.0 <= x < float("inf"), "a finite number of at least 1")
_apex_angle = _number(float, lambda x: 25.0 < x < 180.0, "in (25, 180) degrees")


def _cmd_run(args) -> int:
    prob = get_example(args.example, args.beta_plus, args.beta_minus)
    try:
        table = run_convergence(prob, args.method, args.element,
                                n_sequence(args.nmin, args.nmax),
                                rtol=args.rtol, eta=args.eta)
    except ValidationError as err:
        print(err, file=sys.stderr)
        return EXIT_VALIDATION
    except (AssemblyError, SolverError, GeometryError, UnisolvenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER
    text = emit(table, args.format)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    if args.assert_rates:
        l2r, h1r = table.final_rates()
        if l2r is None or h1r is None:
            print("error: need at least two refinement levels to assert rates",
                  file=sys.stderr)
            return EXIT_RATES
        if l2r < args.l2_rate_min or h1r < args.h1_rate_min:
            print(f"rate assertion failed: L2 {l2r:.3f} (min {args.l2_rate_min}), "
                  f"H1 {h1r:.3f} (min {args.h1_rate_min})", file=sys.stderr)
            return EXIT_RATES
    return EXIT_OK


def _cmd_basis_check(args) -> int:
    rep = basis_stress_test(seed=args.seed, count=args.count,
                            ratio_range=(1.0 / args.ratio_max, args.ratio_max),
                            max_angle_deg=args.max_angle)
    sys.stdout.write(rep.to_text() + "\n")
    return EXIT_OK if rep.ok else EXIT_VALIDATION


def _cmd_validate(args) -> int:
    prob = get_example(args.example, args.beta_plus, args.beta_minus)
    try:
        rep = validate(prob)
    except ValidationError as err:
        print(err.report.summary(), file=sys.stderr)
        return EXIT_VALIDATION
    sys.stdout.write(rep.summary() + "\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="ife-lab",
                                description="unfitted-mesh immersed finite "
                                            "element solvers and studies")
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="convergence study for a built-in example")
    run.add_argument("--example", required=True, choices=["ex1", "ex2", "ex3", "ex4"])
    run.add_argument("--method", default="new", choices=["plain", "new", "ppifem"])
    run.add_argument("--element", default="cr", choices=["cr", "rq1"])
    run.add_argument("--beta-plus", type=_positive, default=10.0,
                     help="plus-side coefficient (ex1 only)")
    run.add_argument("--beta-minus", type=_positive, default=1000.0,
                     help="minus-side coefficient (ex1 only)")
    run.add_argument("--nmin", type=_mesh_n, default=8)
    run.add_argument("--nmax", type=_mesh_n, default=64)
    run.add_argument("--rtol", type=_fraction, default=1e-12)
    run.add_argument("--eta", type=_positive, default=None,
                     help="penalty strength for ppifem (default: coefficient-based)")
    run.add_argument("--format", default="csv", choices=["csv", "text"])
    run.add_argument("--out", default=None, help="write the table to this path")
    run.add_argument("--assert-rates", action="store_true")
    run.add_argument("--l2-rate-min", type=float, default=1.85)
    run.add_argument("--h1-rate-min", type=float, default=0.9)
    run.set_defaults(func=_cmd_run)

    bc = sub.add_parser("basis-check", help="randomized unisolvence stress test")
    bc.add_argument("--seed", type=int, default=1)
    bc.add_argument("--count", type=_count, default=1000)
    bc.add_argument("--ratio-max", type=_ratio, default=1e3)
    bc.add_argument("--max-angle", type=_apex_angle, default=175.0)
    bc.set_defaults(func=_cmd_basis_check)

    val = sub.add_parser("validate", help="certify a built-in problem spec")
    val.add_argument("--example", required=True, choices=["ex1", "ex2", "ex3", "ex4"])
    val.add_argument("--beta-plus", type=_positive, default=10.0)
    val.add_argument("--beta-minus", type=_positive, default=1000.0)
    val.set_defaults(func=_cmd_validate)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run" and args.nmin > args.nmax:
        parser.error(f"argument --nmax: {args.nmax} is below --nmin {args.nmin}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
