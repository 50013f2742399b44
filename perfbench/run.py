"""ifelab benchmark: run one workload for one seed and print its metrics.

    python3 perfbench/run.py --workload solve_bound --seed 0 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 55

Run it from the repository root or anywhere else; it imports ifelab from the
``src`` directory next to ``perfbench``. The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` replays the pipeline under
spans, reports the per-layer metrics and writes the spans to
``.perfbench_out/``. Medians, quartiles and sample counts go to stderr.
The exit code is 1 when a correctness gate fails. ``--smoke`` shrinks every
workload to a few seconds of work.
"""
import os

# BLAS threading moves the solve time (N=128: 0.54 s on one thread, 0.76 to
# 1.63 s with the default two) and even the CG iteration count (2424 against
# 2425 at N=256), so the runner pins it before numpy loads. ifelab itself
# does not.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "ifelab" / "__init__.py").is_file():
    sys.exit(f"perfbench: ifelab sources not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from ifelab import run_convergence, validate  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = ROOT / ".perfbench_out"
LAYER_SPANS = {
    "mesh.build_s": "mesh.build",
    "cutting.layout_s": "cutting.layout",
    "assembly.context_s": "assembly.context",
    "assembly.correction_s": "assembly.correction",
    "assembly.assemble_s": "assembly.assemble",
    "assembly.lifting_blocks_s": "assembly.lifting_blocks",
    "assembly.rhs_s": "assembly.rhs",
    "assembly.solve_s": "assembly.solve",
    "experiments.norms_s": "experiments.norms",
}
ROW_COUNTS = {
    "mesh.edges": "edges",
    "cutting.cut_elements": "cut_elements",
    "cutting.interface_edges": "interface_edges",
    "assembly.nnz": "nnz",
    "assembly.cg_iters": "iters",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spread(name, values, unit):
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    log(f"  {name:<12} median {statistics.median(values):.6g} {unit}"
        f"  [q1 {q1:.6g}, q3 {q3:.6g}]  n={len(values)}")


def setup_seconds(prepared):
    """Wall time of a fresh process that imports ifelab and validates each
    problem the workload uses."""
    problems = sorted({(s.example, s.beta) for s, _, _ in prepared}, key=str)
    cmd = [sys.executable, str(HERE / "setup_probe.py"), json.dumps(problems)]
    t0 = time.perf_counter()
    subprocess.run(cmd, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def prepare(workload, seed, smoke):
    """(study, problem, exact solution norms at the finest N) per study."""
    prepared = []
    for s in wl.studies(workload, seed, smoke):
        log(f"  study {s.label} N={list(s.Ns)}")
        prob = s.problem()
        prepared.append((s, prob, wl.solution_norms(s, prob)))
    return prepared


def warm_up(prepared):
    """One tiny row per study: ifelab validates a problem on its first study
    and caches that by name, so this keeps validation out of the timed
    passes (setup_s measures it)."""
    for s, prob, _ in prepared:
        run_convergence(prob, s.method, s.kind, [min(s.Ns[0], 16)])


def timed_passes(seconds, one_pass):
    """Run passes back to back while the next one is expected to end within
    the budget; always at least one."""
    results, took = [], []
    t0 = time.perf_counter()
    while True:
        t = time.perf_counter()
        results.append(one_pass(len(results)))
        took.append(time.perf_counter() - t)
        if time.perf_counter() - t0 + statistics.median(took) > seconds:
            return results


def measure(workload, seed, seconds, smoke):
    """End-to-end metrics of untraced passes."""
    prepared = prepare(workload, seed, smoke)
    setup = [setup_seconds(prepared) for _ in range(SETUP_REPEATS)]
    warm_up(prepared)
    passes = timed_passes(seconds, lambda k: wl.run_studies(prepared))
    rel = []          # finest-row errors relative to the solution norms, per study
    for (s, _, norms), table in zip(prepared, passes[0].tables):
        if table is not None:
            last = table.rows[-1]
            rel.append((last.l2 / norms[0], last.h1 / norms[1]))
            log(f"  {s.label} N={last.N}: L2 {last.l2:.6e} (relative "
                f"{rel[-1][0]:.4e}), energy {last.h1:.6e} (relative "
                f"{rel[-1][1]:.4e}), rates {last.l2_rate:.3f}/{last.h1_rate:.3f}")

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    walls = [p.seconds for p in passes]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "1"),
        "l2_rel_err": (statistics.geometric_mean(r[0] for r in rel) if rel else 0.0, "1"),
        "h1_rel_err": (statistics.geometric_mean(r[1] for r in rel) if rel else 0.0, "1"),
    }
    spread("wall_s", walls, "s")
    spread("setup_s", setup, "s")
    return failed == 0, attempted, failed, metrics


def measure_traced(workload, seed, seconds, smoke):
    """Per-layer metrics: untraced and traced passes alternate, and each
    traced row must reproduce its untraced twin exactly. Each traced pass
    ends with a basis stress probe, a failed report failing all its cases."""
    prepared = prepare(workload, seed, smoke)
    count = wl.SMOKE_STRESS_COUNT if smoke else wl.STRESS_COUNT
    tracer = tracing.Tracer()
    wrapped = []
    for s, prob, _ in prepared:
        w = tracing.counted(prob, tracer)
        with tracer.span("problems.validate"):
            validate(w)
        wrapped.append((s, w))
    warm_up(prepared)

    traced = []       # (first span index, end index, rows) per traced pass
    agreement = []    # worst closed-form vs dense gap per stress probe
    replica_ok = True
    extra_attempted = extra_failed = 0

    def one_round(k):
        nonlocal replica_ok, extra_attempted, extra_failed
        first = len(tracer.spans)
        plain = wl.run_studies(prepared)
        rows = [tracing.traced_study(tracer, s, w) for s, w in wrapped]
        for s, table, trows in zip(prepared, plain.tables, rows):
            got = [(r["l2"], r["h1"], r["iters"]) for r in trows]
            want = ([] if table is None
                    else [(r.l2, r.h1, r.iters) for r in table.rows])
            if got != want:
                replica_ok = False
                log(f"replica mismatch on {s[0].label}: traced {got} vs {want}")
        flat = [r for trows in rows for r in trows]
        extra_attempted += len(flat)
        extra_failed += sum(not wl.residual_ok(r) for r in flat)
        if k == 0:
            for r in flat:
                if r["rel_residual"] > 10 * wl.RTOL:
                    log(f"  finding: N={r['N']} true residual {r['rel_residual']:.3e}"
                        f" exceeds 10 x rtol; rounding floor {r['residual_floor']:.3e}")
        rep = tracing.traced_stress(tracer, wl.stress_seed(seed, k), count)
        agreement.append(rep.worst_agreement)
        extra_attempted += count
        extra_failed += 0 if rep.ok else count
        traced.append((first, len(tracer.spans), flat))
        return plain

    rounds = timed_passes(seconds, one_round)
    plain_walls = [p.seconds for p in rounds]
    attempted = sum(p.attempted for p in rounds) + extra_attempted
    failed = sum(p.failed for p in rounds) + extra_failed
    if not replica_ok:
        return False, attempted, failed + 1, {}, tracer.spans

    tracing.self_times(tracer.spans)
    per_pass = []
    for first, end, flat in traced:
        spans = tracer.spans[first:end]
        sums = {}
        for sp in spans:
            sums[sp["name"]] = sums.get(sp["name"], 0.0) + (sp["end"] - sp["start"])
        row_spans = [sp for sp in spans if sp["name"] == "experiments.row"]
        cases = sums.get("ife_space.closed_form", 0.0) + sums.get("ife_space.dense", 0.0)
        per_pass.append({
            **{m: sums.get(name, 0.0) for m, name in LAYER_SPANS.items()},
            **{m: sum(r[key] for r in flat) for m, key in ROW_COUNTS.items()},
            "assembly.rel_residual": max((r["rel_residual"] for r in flat), default=0.0),
            "assembly.residual_floor": max((r["residual_floor"] for r in flat), default=0.0),
            "problems.calls": sum(sp["calls"] for sp in row_spans),
            "problems.points": sum(sp["points"] for sp in row_spans),
            "problems.callback_s": sum(sp["callback_s"] for sp in row_spans),
            "experiments.stress_checks_s":
                sums["experiments.stress"] - cases,
            "replica_s": sums["experiments.row"],
        })

    def median_of(key):
        return statistics.median(p[key] for p in per_pass)

    def case_us(name, q):
        d = [sp["end"] - sp["start"] for sp in tracer.spans if sp["name"] == name]
        return float(np.percentile(d, q)) * 1e6 if d else 0.0

    metrics = {}
    for key, unit in [*((m, "s") for m in LAYER_SPANS),
                      *((m, "count") for m in ROW_COUNTS),
                      ("assembly.rel_residual", "1"), ("assembly.residual_floor", "1"),
                      ("problems.calls", "count"), ("problems.points", "count"),
                      ("problems.callback_s", "s"), ("experiments.stress_checks_s", "s")]:
        metrics[key] = (median_of(key), unit)
    metrics["problems.validate_s"] = (sum((sp["end"] - sp["start"] for sp in tracer.spans
                                           if sp["name"] == "problems.validate"), 0.0), "s")
    for name in ("closed_form", "dense"):
        for q in (50, 99):
            metrics[f"ife_space.{name}_us_p{q}"] = (case_us(f"ife_space.{name}", q), "us")
    metrics["ife_space.worst_agreement"] = (statistics.median(agreement), "1")
    metrics["trace.overhead_s"] = (median_of("replica_s") - statistics.median(plain_walls), "s")

    first, end, _ = traced[0]
    replica = tracing.replica_spans(tracer.spans, first, end)
    total = sum(sp["self_s"] for sp in replica)
    log(f"  replica check passed on {len(traced)} traced pass(es); self time per "
        f"layer in the first, as a share of its {total:.4f} s:")
    by_name = tracing.self_time_totals(replica, key=lambda sp: sp["name"])
    for layer, t in sorted(tracing.self_time_totals(replica).items(), key=lambda kv: -kv[1]):
        parts = ", ".join(f"{name} {v:.4f} s" for name, v in sorted(by_name.items())
                          if name.split(".")[0] == layer)
        log(f"    {layer:<12} {t:10.4f} s  {100 * t / total:5.1f}%   ({parts})")
    return failed == 0, attempted, failed, metrics, tracer.spans


def write_spans(workload, seed, spans):
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracing.self_times(spans)
    path.write_text(json.dumps({"workload": workload, "seed": seed, "spans": spans,
                                "self_s_by_layer": tracing.self_time_totals(spans)}))
    log(f"  spans written to {path}")


def run_all(args):
    """Each workload in its own process, so peak RSS stays its own."""
    ok = True
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in wl.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            ok = False
            continue
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    combined["correct"] &= ok
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes: N <= 64 and 20 cases per stress probe")
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}")
    if args.trace:
        correct, attempted, failed, metrics, spans = measure_traced(
            args.workload, args.seed, args.seconds, args.smoke)
        write_spans(args.workload, args.seed, spans)
    else:
        correct, attempted, failed, metrics = measure(
            args.workload, args.seed, args.seconds, args.smoke)
    out = {"correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
