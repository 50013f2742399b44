"""The benchmark workloads, their seeded inputs and their correctness gates.

Every function here calls only ifelab's public API. A workload is a list of
convergence studies that one process runs back to back: a closed loop with
a single client. The basis stress test is a probe of the traced run.
"""
from __future__ import annotations

import functools
import json
import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from ifelab import (
    CR,
    build_context,
    build_uniform_rect,
    build_uniform_tri,
    error_norms,
    get_example,
    run_convergence,
)

WORKLOADS = ("solve_bound", "interface_bound")
DEFAULT_SEED = 0
STRESS_COUNT = 1000           # cases per traced basis_stress_test probe (about 2.3 s)
SMOKE_STRESS_COUNT = 20

# the CLI's --assert-rates defaults, applied to the finest row of every study
L2_RATE_MIN = 1.85
H1_RATE_MIN = 0.9
RTOL = 1e-12                  # solver tolerance, as run_convergence's default


@functools.cache
def reference():
    """Errors recorded at the default seed, keyed by study label and N."""
    return json.loads(Path(__file__).with_name("reference.json").read_text())


@dataclass(frozen=True)
class Study:
    example: str
    method: str
    kind: str
    Ns: Tuple[int, ...]
    beta: Optional[Tuple[float, float]] = None   # ex1 coefficient pair

    @property
    def label(self) -> str:
        ex = self.example if self.beta is None else \
            f"{self.example}({self.beta[0]:.6g},{self.beta[1]:.6g})"
        return f"{ex}/{self.method}/{self.kind}"

    def problem(self):
        if self.beta is None:
            return get_example(self.example)
        return get_example(self.example, *self.beta)


def ex1_pair(seed: int) -> Tuple[float, float]:
    """ex1 coefficient pair for a seed: the paper's (10, 1000) at the default
    seed, otherwise (s, 100*s) with log10(s) uniform on [1, 2].

    The contrast and its orientation stay the paper's because they set the
    work and the error: at N=128 Jacobi-CG takes 1013 iterations at contrast
    10 and 1711 at contrast 1000, and swapping the pair moves the relative
    energy error from 0.037 to 0.054. Scaling both coefficients changes
    neither: (1, 100), (10, 1000) and (100, 10000) take 1219, 1216 and 1216
    iterations.
    """
    if seed == DEFAULT_SEED:
        return (10.0, 1000.0)
    s = float(10.0 ** (1.0 + np.random.default_rng(seed).random()))
    return (s, 100.0 * s)


def studies(workload: str, seed: int, smoke: bool = False):
    """The convergence studies of a workload.

    solve_bound stops at N=256: one N=512 row takes about 47 s, and the
    benchmark runs each workload many times.
    """
    if workload == "solve_bound":
        return [Study("ex1", "new", "cr", (8, 16) if smoke else (128, 256),
                      ex1_pair(seed))]
    if workload == "interface_bound":
        small = (8, 16)
        return [Study("ex4", "new", "cr", small if smoke else (8, 16, 32, 64)),
                Study("ex4", "new", "rq1", small if smoke else (8, 16, 32, 64)),
                Study("ex2", "ppifem", "cr", (32, 64) if smoke else (16, 32, 64))]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def stress_seed(seed: int, k: int) -> int:
    """Seed of the k-th basis stress probe of a traced run, so that each
    probe draws fresh triangles and the run's medians do not hang on one
    draw."""
    return seed * 1000 + k


def solution_norms(study: Study, prob):
    """L2 and energy norms of the exact solution on the finest mesh of a
    study, by error_norms' own quadrature. The accuracy gate compares errors
    relative to these, because the energy error scales with the
    coefficients' size."""
    N = study.Ns[-1]
    mesh = (build_uniform_tri(N, prob.domain) if study.kind == CR
            else build_uniform_rect(N, prob.domain))
    return error_norms(build_context(prob, mesh, study.kind), np.zeros(mesh.n_edges))


def relative_key(study: Study) -> str:
    return f"{study.example}/{study.method}/{study.kind}/N={study.Ns[-1]}"


def check_rows(study: Study, norms, rows) -> int:
    """Number of rows of one finished study that fail a correctness gate:
    the finest row's rates, its errors relative to the solution norms
    against those recorded at the default seed, and every row's errors
    against the recorded ones when the study's inputs were recorded."""
    ref = reference()
    bad = set()
    last = rows[-1]
    if len(rows) > 1 and (last.l2_rate is None or last.l2_rate < L2_RATE_MIN
                          or last.h1_rate is None or last.h1_rate < H1_RATE_MIN):
        bad.add(last.N)
    rel = ref["relative_errors"].get(relative_key(study))
    limit = 1.0 + ref["rel_err_slack"]
    if rel is not None and (last.l2 / norms[0] > limit * rel[0]
                            or last.h1 / norms[1] > limit * rel[1]):
        bad.add(last.N)
    recorded = ref["errors"].get(study.label, {})
    for r in rows:
        want = recorded.get(str(r.N))
        if want is not None and not (math.isclose(r.l2, want[0], rel_tol=ref["rel_tol"])
                                     and math.isclose(r.h1, want[1], rel_tol=ref["rel_tol"])):
            bad.add(r.N)
    return len(bad)


def residual_ok(row) -> bool:
    """Gate on a traced row's true residual ||b - Ax|| / ||b||: at most 10
    times the solver tolerance plus the rounding floor of evaluating it,
    eps * || |A| |x| || / ||b||. No float64 solver can certify a residual
    below that floor, which at N=256 is 3.9 times rtol."""
    return row["rel_residual"] <= 10.0 * (RTOL + row["residual_floor"])


@dataclass
class PassResult:
    seconds: float
    attempted: int
    failed: int
    tables: list                 # ConvergenceTable per study, None where it raised


def run_studies(prepared) -> PassResult:
    """One untraced pass of a mesh workload: run_convergence per study of
    the (study, problem, solution norms) triples."""
    attempted = failed = 0
    tables = []
    t0 = time.perf_counter()
    for study, prob, _ in prepared:
        attempted += len(study.Ns)
        try:
            tables.append(run_convergence(prob, study.method, study.kind,
                                          list(study.Ns), rtol=RTOL))
        except Exception as err:  # an operation that raised counts as failed
            print(f"error: {study.label}: {err!r}", file=sys.stderr)
            tables.append(None)
            failed += len(study.Ns)
    seconds = time.perf_counter() - t0
    for (study, _, norms), table in zip(prepared, tables):
        if table is not None:
            failed += check_rows(study, norms, table.rows)
    return PassResult(seconds, attempted, failed, tables)

