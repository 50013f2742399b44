#!/usr/bin/env python3
"""Phase benchmark: time the public pipeline calls from outside.

    python scripts/bench.py --label baseline          # writes BENCH_baseline.json
    python scripts/bench.py --nmax 64 --runs 1 --out /tmp/BENCH_smoke.json
    python scripts/bench.py --against HEAD~1 --nmin 256 --runs 5 --label split

Each case runs in a fresh process. It does one small warm-up pass, so that
whatever the phases import on first use stays out of the timings, and then
--runs timed passes. A pass calls _build_mesh, build_layout, build_context,
build_jump_correction (ex4 only), assemble, solve_spd and error_norms in
turn, as run_convergence does. Per case the file holds the median and
quartiles of each phase and of their sum, the peak RSS of the case's
process, the DOF count, nnz and both errors. The ``import`` case starts one
process per run that imports ifelab and validates ex1, ex2 and ex4, as
perfbench/setup_probe.py does, and reports its wall time and peak RSS.

The cases run at every N of CASE_NS from --nmin to --nmax; an --nmax below
--nmin runs them at that N alone. Both must lie in 1 to N_MAX, the finest
mesh of a convergence row.

--against REV compares the working tree with the commit REV, extracted by
git archive into a temporary directory. Each case alternates one process per
side, REV's own ``scripts/bench.py --case`` and this one's, in the order
A B B A ... over --runs pairs, so drift of the host during the comparison
falls on both sides alike. The file holds, per case and phase, both sides'
medians and quartiles, the per-pair differences (tree minus REV) and the
number of pairs each side won, the peak RSS of every process, and each
side's DOFs, nnz and errors. Two verdicts per case read them: whether the
DOFs and nnz are exactly equal (``same_sizes``), and the largest relative
gap of the L2 and H1 errors of any process, either side, from those of REV's
first (``error_gap``, 0 when all are equal bit for bit), which also ends the
case's line on stderr. ``same`` is
both at once, sizes and errors equal bit for bit; --require-same exits 1
unless every case is the same.

Before the first timed process, each side's src/ is compiled to bytecode
(compileall), so that no process of either side times the compilation of
ifelab, also when PYTHONDONTWRITEBYTECODE keeps imports from writing it.

ifelab is imported from the src/ next to this script, so a copy of an older
commit benchmarks that commit. BLAS is pinned to one thread, as in perfbench.
"""
import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
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
from ifelab.experiments import N_MAX, _build_mesh, error_norms  # noqa: E402
from ifelab.problems import get_example  # noqa: E402

CASES = [("ex1", "new", "cr"), ("ex4", "new", "rq1")]
CASE_NS = (64, 128, 256, 512)
EXTRA = [("ex1", "ppifem", "rq1", 512)]
PHASES = ("mesh", "layout", "context", "correction", "assemble", "solve", "norms")
IMPORT_PROBLEMS = ("ex1", "ex2", "ex4")
SIZES = ("dofs", "nnz")
ERRORS = ("l2", "h1")


def import_script(src):
    return (f"import sys; sys.path.insert(0, {str(src)!r}); import ifelab\n"
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


def case_specs(nmin, nmax):
    """(example, method, kind, N) of every case from nmin to nmax."""
    sizes = [N for N in CASE_NS if nmin <= N <= nmax] or [nmax]
    return [c + (N,) for c in CASES for N in sizes] + [e for e in EXTRA if nmin <= e[3] <= nmax]


def compile_src(src):
    """Write the bytecode of every module under src, whatever
    PYTHONDONTWRITEBYTECODE says."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src)], env=ENV, check=True)


def run_import(src):
    """Wall seconds and peak RSS of one import-and-validate process."""
    _, wall, peak = child([sys.executable, "-c", import_script(src)])
    return wall, peak


def run_spec(script, spec, runs):
    """One case process of a bench.py: its parsed output and peak RSS."""
    out, _, peak = child([sys.executable, str(script), "--case", spec, "--runs", str(runs)])
    return json.loads(out), peak


def compare(rev_values, tree_values):
    """Both sides' summaries of paired samples, the per-pair differences
    (tree minus rev) and the pairs each side won (the lower value wins)."""
    diffs = [t - r for r, t in zip(rev_values, tree_values)]
    return {"rev": summary(rev_values), "tree": summary(tree_values), "diff": summary(diffs),
            "tree_wins": sum(d < 0 for d in diffs), "rev_wins": sum(d > 0 for d in diffs)}


def error_gap(results):
    """Largest relative gap |a - b| / max(|a|, |b|) of the L2 and H1 errors
    between results[0] and any other result; 0 when all are equal."""
    first = results[0]
    return max((abs(r[k] - first[k]) / max(abs(r[k]), abs(first[k]))
                for r in results[1:] for k in ERRORS if r[k] != first[k]), default=0.0)


def against(args):
    """Alternate one process per side and case; see the module docstring."""
    with tempfile.TemporaryDirectory(prefix="ifelab-bench-") as tmp:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                              f"{args.against}^{{commit}}"], check=True,
                             stdout=subprocess.PIPE, text=True).stdout.strip()
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", sha],
                                 check=True, stdout=subprocess.PIPE).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        sides = {"rev": Path(tmp), "tree": ROOT}
        for side in sides.values():
            compile_src(side / "src")

        def alternate(measure):
            """measure(side) per side over the pairs, order A B B A ..."""
            got = {"rev": [], "tree": []}
            for i in range(args.runs):
                for side in (("rev", "tree") if i % 2 == 0 else ("tree", "rev")):
                    got[side].append(measure(side))
            return got

        imports = alternate(lambda side: run_import(sides[side] / "src"))
        cases = [{"case": "import", "problems": list(IMPORT_PROBLEMS),
                  "wall_s": compare(*([w for w, _ in imports[k]] for k in ("rev", "tree"))),
                  "peak_rss_mb": compare(*([m for _, m in imports[k]] for k in ("rev", "tree")))}]
        same = True
        for example, method, kind, N in case_specs(args.nmin, args.nmax):
            spec = f"{example}/{method}/{kind}/{N}"
            got = alternate(lambda side: run_spec(sides[side] / "scripts" / "bench.py", spec, 1))
            times = {k: [res["times"][0] for res, _ in got[k]] for k in got}
            phases = {p: compare(*([t[i] for t in times[k]] for k in ("rev", "tree")))
                      for i, p in enumerate(PHASES)}
            phases["total"] = compare(*([sum(t) for t in times[k]] for k in ("rev", "tree")))
            results = {k: [{s: res[s] for s in SIZES + ERRORS} for res, _ in got[k]] for k in got}
            every = results["rev"] + results["tree"]
            same_sizes = all(r[s] == every[0][s] for r in every for s in SIZES)
            gap = error_gap(every)
            agree = same_sizes and gap == 0.0
            same &= agree
            cases.append({"case": f"{example}/{method}/{kind}", "N": N, "same": agree,
                          "same_sizes": same_sizes, "error_gap": gap,
                          "sizes": {k: results[k][0] for k in got},
                          "peak_rss_mb": compare(*([m for _, m in got[k]] for k in ("rev", "tree"))),
                          "phases": phases})
            tot = phases["total"]
            print(f"{spec}: total {tot['rev']['median']:.3f} -> {tot['tree']['median']:.3f} s "
                  f"(tree faster in {tot['tree_wins']}/{args.runs}), "
                  f"{'same' if same_sizes else 'DIFFERENT'} DOFs and nnz, "
                  f"largest error gap {gap:.1e}", file=sys.stderr)
    doc = {"label": args.label, "command": " ".join(["scripts/bench.py", *sys.argv[1:]]),
           "against": args.against, "rev_commit": sha, "runs": args.runs,
           "machine": machine(), "cases": cases}
    return doc, same


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
    ap.add_argument("--nmin", type=int, default=64)
    ap.add_argument("--nmax", type=int, default=512)
    ap.add_argument("--against", metavar="REV", default=None,
                    help="compare the working tree with commit REV, process by process")
    ap.add_argument("--require-same", action="store_true",
                    help="with --against, exit 1 unless both sides report the same "
                         "DOFs and nnz and the same errors bit for bit")
    ap.add_argument("--case", default=None, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.runs < 1:
        ap.error("--runs must be at least 1")
    for name in ("nmin", "nmax"):
        if not 1 <= getattr(args, name) <= N_MAX:
            ap.error(f"--{name} must be in 1 to {N_MAX}")
    if args.case:
        run_case(args.case, args.runs)
        return 0
    out = Path(args.out) if args.out else ROOT / f"BENCH_{args.label}.json"
    if args.against:
        doc, same = against(args)
        out.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {out}", file=sys.stderr)
        return 1 if args.require_same and not same else 0

    compile_src(SRC)
    walls, rss = [], []
    for _ in range(args.runs):
        wall, peak = run_import(SRC)
        walls.append(wall)
        rss.append(peak)
    cases = [{"case": "import", "problems": list(IMPORT_PROBLEMS),
              "wall_s": summary(walls), "peak_rss_mb": max(rss)}]
    print(f"import: median {cases[0]['wall_s']['median']:.3f} s", file=sys.stderr)

    for example, method, kind, N in case_specs(args.nmin, args.nmax):
        name = f"{example}/{method}/{kind}"
        res, peak = run_spec(Path(__file__).resolve(), f"{name}/{N}", args.runs)
        per_phase = list(zip(*res.pop("times")))
        phases = {p: summary(list(t)) for p, t in zip(PHASES, per_phase)}
        phases["total"] = summary([sum(t) for t in zip(*per_phase)])
        cases.append({"case": name, "N": N, **res, "peak_rss_mb": peak, "phases": phases})
        print(f"{name} N={N}: total median {phases['total']['median']:.3f} s, "
              f"peak RSS {peak:.0f} MB", file=sys.stderr)

    doc = {"label": args.label, "command": f"scripts/bench.py --label {args.label} "
           f"--runs {args.runs} --nmax {args.nmax}", "runs": args.runs,
           "machine": machine(), "cases": cases}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
