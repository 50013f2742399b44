#!/usr/bin/env python3
"""Phase benchmark: time the public pipeline calls from outside.

    python scripts/bench.py --label baseline          # writes BENCH_baseline.json
    python scripts/bench.py --nmax 64 --runs 1 --out /tmp/BENCH_smoke.json

Each case runs in a fresh process. It does one small warm-up pass, so that
whatever the phases import on first use stays out of the timings, and then
--runs timed passes. A pass calls _build_mesh, build_layout, build_context,
build_jump_correction (ex4 only), assemble, solve_spd and error_norms in
turn, as run_convergence does. Per case the file holds the median and
quartiles of each phase and of their sum, the peak RSS of the case's
process, the DOF count, nnz and both errors. The ``import`` case starts one
process per run that imports ifelab and validates ex1, ex2 and ex4, as
perfbench/setup_probe.py does, and reports its wall time and peak RSS.

ifelab is imported from the src/ next to this script, so a copy of an older
commit benchmarks that commit. BLAS is pinned to one thread, as in perfbench.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402
import scipy  # noqa: E402

from ifelab.assembly import (  # noqa: E402
    assemble,
    build_context,
    build_jump_correction,
    solve_spd,
)
from ifelab.cutting import build_layout  # noqa: E402
from ifelab.experiments import _build_mesh, error_norms  # noqa: E402
from ifelab.problems import get_example  # noqa: E402

CASES = [("ex1", "new", "cr"), ("ex4", "new", "rq1")]
CASE_NS = (64, 128, 256, 512)
EXTRA = [("ex1", "ppifem", "rq1", 512)]
PHASES = ("mesh", "layout", "context", "correction", "assemble", "solve", "norms")
IMPORT_PROBLEMS = ("ex1", "ex2", "ex4")
IMPORT_SCRIPT = (f"import sys; sys.path.insert(0, {str(SRC)!r}); import ifelab\n"
                 f"for name in {IMPORT_PROBLEMS!r}:\n"
                 "    ifelab.validate(ifelab.get_example(name))\n")
ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")


def summary(values):
    """Median, quartiles and the values themselves."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def one_pass(prob, method, kind, N):
    """Seconds per phase of one pipeline pass, and the pass's sizes and errors."""
    clock = [time.perf_counter()]

    def tick():
        clock.append(time.perf_counter())

    mesh = _build_mesh(kind, N, prob.domain)
    tick()
    layout = build_layout(mesh, prob.levelset)
    tick()
    ctx = build_context(prob, mesh, kind, layout=layout)
    tick()
    correction = None if prob.homogeneous_jumps else build_jump_correction(ctx)
    tick()
    system = assemble(ctx, method, correction=correction)
    tick()
    x_free, _ = solve_spd(system)
    tick()
    l2, h1 = error_norms(ctx, system.expand(x_free), correction)
    tick()
    seconds = [b - a for a, b in zip(clock, clock[1:])]
    return seconds, {"dofs": int(mesh.n_edges), "nnz": int(system.matrix.nnz),
                     "l2": l2, "h1": h1}


def run_case(spec, runs):
    """Child process: warm up, time the passes, print one JSON object."""
    example, method, kind, N = spec.split("/")
    prob = get_example(example)
    one_pass(prob, method, kind, 8)
    times = []
    for _ in range(runs):
        seconds, sizes = one_pass(prob, method, kind, int(N))
        times.append(seconds)
    print(json.dumps({"times": times, **sizes}))


def child(cmd):
    """Run cmd to the end; its stdout, wall seconds and peak RSS in MB."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=ENV, stdout=subprocess.PIPE, text=True) as proc:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        raise subprocess.CalledProcessError(proc.returncode, cmd)
    return out, wall, usage.ru_maxrss / 1024.0


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": 1}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", default="local", help="names BENCH_<label>.json")
    ap.add_argument("--out", default=None, help="write here instead of the repository root")
    ap.add_argument("--runs", type=int, default=5, help="timed runs per case")
    ap.add_argument("--nmax", type=int, default=512)
    ap.add_argument("--case", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    if args.case:
        run_case(args.case, args.runs)
        return 0

    walls, rss = [], []
    for _ in range(args.runs):
        _, wall, peak = child([sys.executable, "-c", IMPORT_SCRIPT])
        walls.append(wall)
        rss.append(peak)
    cases = [{"case": "import", "problems": list(IMPORT_PROBLEMS),
              "wall_s": summary(walls), "peak_rss_mb": max(rss)}]
    print(f"import: median {cases[0]['wall_s']['median']:.3f} s", file=sys.stderr)

    specs = [c + (N,) for c in CASES for N in CASE_NS] + EXTRA
    for example, method, kind, N in specs:
        if N > args.nmax:
            continue
        name = f"{example}/{method}/{kind}"
        out, _, peak = child([sys.executable, str(Path(__file__).resolve()),
                              "--case", f"{name}/{N}", "--runs", str(args.runs)])
        res = json.loads(out)
        per_phase = list(zip(*res.pop("times")))
        phases = {p: summary(list(t)) for p, t in zip(PHASES, per_phase)}
        phases["total"] = summary([sum(t) for t in zip(*per_phase)])
        cases.append({"case": name, "N": N, **res, "peak_rss_mb": peak, "phases": phases})
        print(f"{name} N={N}: total median {phases['total']['median']:.3f} s, "
              f"peak RSS {peak:.0f} MB", file=sys.stderr)

    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    doc = {"label": args.label, "command": f"scripts/bench.py --label {args.label} "
           f"--runs {args.runs} --nmax {args.nmax}", "runs": args.runs,
           "machine": machine(), "cases": cases}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
