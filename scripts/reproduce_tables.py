#!/usr/bin/env python3
"""Regenerate the reference convergence tables as CSV files.

Runs the four built-in examples with the penalty-free and the lifted
parameter-free schemes (plus the penalty variant for the variable-coefficient
case) and writes one CSV per (example, method) into the output directory.
At the defaults this takes a few minutes on a laptop; shrink --nmax for a
quick pass.
"""
import argparse
import pathlib
import sys
import time

from ifelab.experiments import N_MAX, emit, n_sequence, run_convergence
from ifelab.problems import get_example

LEAST_NMAX = 16  # figure4's refinement starts at N=16


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results", help="output directory")
    ap.add_argument("--nmax", type=int, default=256,
                    help=f"finest mesh, from {LEAST_NMAX} to {N_MAX}")
    ap.add_argument("--rtol", type=float, default=1e-12)
    args = ap.parse_args(argv)
    if not LEAST_NMAX <= args.nmax <= N_MAX:
        ap.error(f"--nmax must be in {LEAST_NMAX} to {N_MAX}")
    outdir = pathlib.Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)

    jobs = [
        ("table1", "ex1", dict(beta_p=10.0, beta_m=1000.0), ["plain", "new"],
         n_sequence(8, args.nmax)),
        ("table2", "ex1", dict(beta_p=1000.0, beta_m=10.0), ["plain", "new"],
         n_sequence(8, args.nmax)),
        ("table3", "ex3", {}, ["plain", "new"], n_sequence(8, min(32, args.nmax))),
        ("figure4", "ex2", {}, ["plain", "new", "ppifem"],
         n_sequence(16, min(128, args.nmax))),
        ("table5", "ex4", {}, ["plain", "new"], n_sequence(8, args.nmax)),
    ]
    t0 = time.time()
    for label, example, kw, methods, Ns in jobs:
        prob = get_example(example, kw.get("beta_p", 10.0), kw.get("beta_m", 1000.0))
        for method in methods:
            table = run_convergence(prob, method, "cr", Ns, rtol=args.rtol)
            path = outdir / f"{label}_{method}.csv"
            path.write_text(emit(table, "csv"))
            print(f"== {label} / {method} -> {path}")
            print(emit(table, "text"))
    print(f"done in {time.time() - t0:.0f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
