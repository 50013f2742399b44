#!/usr/bin/env python3
"""Interpolation-error refinement study for both element families."""
import argparse
import sys

from ifelab.experiments import N_MAX, emit, interpolation_convergence, n_sequence
from ifelab.problems import get_example

NMIN = 8  # the coarsest mesh of the study


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--example", default="ex1",
                    choices=["ex1", "ex2", "ex3", "ex4"])
    ap.add_argument("--beta-plus", type=float, default=10.0)
    ap.add_argument("--beta-minus", type=float, default=1000.0)
    ap.add_argument("--nmax", type=int, default=128,
                    help=f"finest mesh, from {NMIN} to {N_MAX}")
    args = ap.parse_args(argv)
    if not NMIN <= args.nmax <= N_MAX:
        ap.error(f"--nmax must be in {NMIN} to {N_MAX}")
    prob = get_example(args.example, args.beta_plus, args.beta_minus)
    Ns = n_sequence(NMIN, args.nmax)
    for kind in ("cr", "rq1"):
        print(emit(interpolation_convergence(prob, kind, Ns), "text"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
