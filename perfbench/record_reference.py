"""Record the default-seed errors that the benchmark's accuracy gates check.

    python3 perfbench/record_reference.py

Runs every study of the mesh workloads at the default seed and rewrites
reference.json: each row's L2 and energy errors, and each finest row's
errors relative to the exact solution's norms. Run it only when a change is
meant to alter the computed errors, and say so with the change.
"""
import os

# the same pinning as run.py: the recorded errors must come from the
# program the benchmark runs
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from ifelab import run_convergence  # noqa: E402

import workloads as wl  # noqa: E402


def main():
    out = {"rel_tol": 1e-6, "rel_err_slack": 0.1, "errors": {}, "relative_errors": {}}
    for workload in ("solve_bound", "interface_bound"):
        for study in wl.studies(workload, wl.DEFAULT_SEED):
            prob = study.problem()
            table = run_convergence(prob, study.method, study.kind, list(study.Ns),
                                    rtol=wl.RTOL)
            out["errors"][study.label] = {str(r.N): [r.l2, r.h1] for r in table.rows}
            n2, nh = wl.solution_norms(study, prob)
            last = table.rows[-1]
            out["relative_errors"][wl.relative_key(study)] = [last.l2 / n2, last.h1 / nh]
            print(study.label, out["errors"][study.label], flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
