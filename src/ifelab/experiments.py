"""Error norms, convergence studies, the basis stress harness and table output."""
from __future__ import annotations

import io
import time
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .assembly import Context, build_context, solve
from .geometry import cut_from_chord
from .ife_space import (
    CR,
    _dof_rows,
    evaluate,
    ife_local_basis_cr_sm,
    ife_local_basis_direct,
    interpolate_ife,
    sm_geometry_checks,
)
from .mesh import build_uniform_rect, build_uniform_tri
from .problems import ProblemSpec, validate

CSV_HEADER = "N,h,dofs,L2_err,L2_rate,H1_err,H1_rate,cg_iters,seconds"

# specs that passed validate(), keyed by identity: dataclasses.replace makes
# a new spec under the same name, and that one must be validated too
_validated: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def _ensure_validated(prob: ProblemSpec):
    """Problems must pass their consistency oracles before any study."""
    if _validated.get(id(prob)) is not prob:
        validate(prob)
        _validated[id(prob)] = prob


def _squared_errors(wts, beta, ue, due, uh, duh):
    """Weighted squared L2 and energy errors of (uh, duh) against (ue, due).
    The two gradient components are added explicitly: the same sum as
    .sum(-1), without a reduction over an axis of length 2."""
    dd = (due - duh) ** 2
    return (float(np.sum(wts * (ue - uh) ** 2)),
            float(np.sum(wts * beta * (dd[..., 0] + dd[..., 1]))))


def error_norms(ctx: Context, dofs: np.ndarray, correction: Optional[np.ndarray] = None):
    """(L2, broken H1) distance between the exact solution and a DOF vector.

    Both are sums over the quadrature points of every element. On an uncut
    element the sum splits exactly at the element's projections of u and
    grad u, orthogonal in the same weighted sums (see ifelab.assembly):
    sum w (u - u_h)^2 = sum w (u - Pi u)^2 + (p - c)^T M (p - c), and alike
    for the energy with the weights w beta. Only the quadratic forms depend
    on the DOFs c. The residual sums and the projections come from the
    context's uncut pass, which build_context started and the load vector
    shares, so on a large mesh that work runs while the assembly and the
    factorization do; ctx.uncut() joins it.

    Cut elements compare branch against branch, point by point: on each
    chord side the discrete piece is measured against the same-side branch
    of the exact solution (extended smoothly across the chord/interface
    mismatch strip), each side's fields called once on its pieces' points.
    With nonzero solution jumps the cross-branch pointwise difference is
    O(|[u]|) on an O(h^3)-area strip and would otherwise pollute the L2
    error at order h^1.5, hiding the method's second-order convergence.
    """
    mesh = ctx.mesh
    prob = ctx.prob
    l2, h1 = ctx.uncut()[1]
    for cl in ctx.classes:
        c = dofs[mesh.elem_edges[cl.ids]]
        e = cl.p - c
        l2 += float(np.sum((e @ cl.mass) * e))
        k = cl.d.shape[1]
        e = cl.d - (c[:, :k] - c[:, k:])
        h1 += float(np.einsum("eij,ei,ej->", cl.G, e, e))
    tab = ctx.cut_table
    c = dofs[mesh.elem_edges[tab.ids]][tab.owner]
    uh = np.einsum("qm,qm->q", c, tab.vals)
    duh = np.einsum("qm,qmd->qd", c, tab.grads)
    if correction is not None:
        vJ, gJ = evaluate(correction[tab.owner, tab.piece], tab.pts,
                          tab.centers[tab.owner], mesh.kappa)
        uh, duh = uh + vJ, duh + gJ
    ue, due = np.empty(len(tab.pts)), np.empty(tab.pts.shape)
    for m, fields in ((tab.piece == 0, prob.fields_plus), (tab.piece == 1, prob.fields_minus)):
        if m.any():
            _, ue[m], due[m] = fields(tab.pts[m])
    dl2, dh1 = _squared_errors(tab.wts, tab.beta, ue, due, uh, duh)
    return float(np.sqrt(l2 + dl2)), float(np.sqrt(h1 + dh1))


@dataclass
class Row:
    N: int
    h: float
    dofs: int
    l2: float
    l2_rate: Optional[float]
    h1: float
    h1_rate: Optional[float]
    seconds: float
    iters: int = 0  # the cg_iters column; the direct solve takes none


@dataclass
class ConvergenceTable:
    meta: Dict[str, object] = field(default_factory=dict)
    rows: List[Row] = field(default_factory=list)

    def add(self, N, h, dofs, l2, h1, seconds):
        l2r = h1r = None
        if self.rows:
            prev = self.rows[-1]
            l2r = float(np.log2(prev.l2 / l2)) if prev.l2 > 0 and l2 > 0 else None
            h1r = float(np.log2(prev.h1 / h1)) if prev.h1 > 0 and h1 > 0 else None
        self.rows.append(Row(N, h, dofs, l2, l2r, h1, h1r, seconds))

    def final_rates(self):
        if not self.rows:
            raise ValueError("empty table")
        last = self.rows[-1]
        return last.l2_rate, last.h1_rate


def emit(table: ConvergenceTable, fmt: str = "csv") -> str:
    """Render a table; csv uses 4-significant-digit scientific notation and
    leaves the first-row rate cells empty."""
    if not table.rows:
        raise ValueError("cannot emit an empty table")
    if fmt == "csv":
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for r in table.rows:
            l2r = "" if r.l2_rate is None else f"{r.l2_rate:.3f}"
            h1r = "" if r.h1_rate is None else f"{r.h1_rate:.3f}"
            out.write(f"{r.N},{r.h:.3E},{r.dofs},{r.l2:.3E},{l2r},"
                      f"{r.h1:.3E},{h1r},{r.iters},{r.seconds:.3E}\n")
        return out.getvalue()
    if fmt == "text":
        head = f"{'N':>5} {'h':>10} {'dofs':>8} {'L2 err':>10} {'rate':>6} " \
               f"{'H1 err':>10} {'rate':>6} {'iters':>6} {'sec':>9}"
        lines = []
        if table.meta:
            desc = ", ".join(f"{k}={v}" for k, v in table.meta.items())
            lines.append("# " + desc)
        lines.append(head)
        for r in table.rows:
            l2r = "" if r.l2_rate is None else f"{r.l2_rate:.2f}"
            h1r = "" if r.h1_rate is None else f"{r.h1_rate:.2f}"
            lines.append(f"{r.N:>5} {r.h:>10.3E} {r.dofs:>8} {r.l2:>10.3E} "
                         f"{l2r:>6} {r.h1:>10.3E} {h1r:>6} {r.iters:>6} "
                         f"{r.seconds:>9.2E}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def n_sequence(nmin: int, nmax: int):
    """Powers-of-two refinement sequence nmin, 2 nmin, ... up to nmax."""
    if nmin < 1 or nmax < nmin:
        raise ValueError("need 1 <= nmin <= nmax")
    out = []
    n = nmin
    while n <= nmax:
        out.append(n)
        n *= 2
    return out


N_MAX = 1024  # the finest mesh a convergence row may use


def _check_n_list(N_list):
    Ns = list(N_list)
    if not Ns or any(n & (n - 1) for n in Ns) or sorted(set(Ns)) != Ns:
        raise ValueError("N values must be strictly increasing powers of two")
    if max(Ns) > N_MAX:
        raise ValueError(f"N capped at {N_MAX}")
    return Ns


def _build_mesh(kind: str, N: int, box):
    return build_uniform_tri(N, box) if kind == CR else build_uniform_rect(N, box)


def _prefix_message(err: BaseException, prefix: str):
    """Prefix the message of err in place, so that its type and attributes
    (a SolverError's residual, say) stay. An error whose class builds its
    message from other attributes, as numpy's _ArrayMemoryError does from a
    shape and a dtype, gets the prefix as a note instead."""
    if type(err).__str__ is BaseException.__str__ and len(err.args) <= 1:
        err.args = (f"{prefix}: {err}",)
    else:
        err.add_note(prefix)


def _convergence(prob: ProblemSpec, method: str, kind: str, N_list,
                 errors: Callable[[Context], Tuple[float, float]]) -> ConvergenceTable:
    """Tabulate errors(ctx) -> (L2, H1) across a refinement sequence, one
    timed row per N; an error raised in a row is raised again with its type
    and attributes, its message naming the example and N. A row joins its
    context's uncut pass before it ends, so no worker outlives it, and a
    failing pass's error wins, with the row's as its __context__."""
    Ns = _check_n_list(N_list)
    _ensure_validated(prob)
    table = ConvergenceTable(meta={"example": prob.name, "method": method,
                                   "element": kind})
    for N in Ns:
        t0 = time.perf_counter()
        try:
            mesh = _build_mesh(kind, N, prob.domain)
            ctx = build_context(prob, mesh, kind)
            try:
                l2, h1 = errors(ctx)
            finally:
                ctx.uncut()
            del ctx  # freed before the next row builds its own, which lowers the peak
        except Exception as err:
            _prefix_message(err, f"{prob.name}, N={N}")
            raise
        table.add(N, mesh.h, int(mesh.n_edges), l2, h1, time.perf_counter() - t0)
    return table


def run_convergence(prob: ProblemSpec, method: str, kind: str, N_list,
                    rtol: float = 1e-12, eta: Optional[float] = None) -> ConvergenceTable:
    """Solve the problem across a refinement sequence and tabulate errors."""
    return _convergence(prob, method, kind, N_list, lambda ctx: error_norms(
        ctx, *solve(ctx, method, eta=eta, rtol=rtol)))


def interpolation_convergence(prob: ProblemSpec, kind: str, N_list) -> ConvergenceTable:
    """Errors of the edge-mean interpolant (no solve)."""
    return _convergence(prob, "interpolation", kind, N_list, lambda ctx: error_norms(
        ctx, interpolate_ife(prob, ctx.mesh, ctx.layout)))


# ---------------------------------------------------------------------------
# randomized basis stress harness


def random_triangle(rng, max_angle_deg: float = 175.0) -> np.ndarray:
    """Triangle whose apex sees the base under a prescribed inscribed angle,
    randomly scaled and posed; apex angles range up to max_angle_deg."""
    theta = np.radians(rng.uniform(25.0, max_angle_deg))
    base = rng.uniform(0.5, 2.0)
    r = base / (2.0 * np.sin(theta))
    # circumcenter above the base for acute apex angles, below for obtuse;
    # the apex sweeps the arc passing over the base
    d = np.sqrt(max(r * r - (base / 2) ** 2, 0.0))
    center = np.array([base / 2, d if theta <= np.pi / 2 else -d])
    to_a = np.arctan2(-center[1], -center[0])
    to_b = np.arctan2(-center[1], base - center[0])
    start = to_b
    end = to_a if to_a > to_b else to_a + 2 * np.pi
    a = start + rng.uniform(0.15, 0.85) * (end - start)
    C = center + r * np.array([np.cos(a), np.sin(a)])
    tri = np.array([(0.0, 0.0), (base, 0.0), C])
    area2 = (tri[1, 0] - tri[0, 0]) * (tri[2, 1] - tri[0, 1]) \
        - (tri[1, 1] - tri[0, 1]) * (tri[2, 0] - tri[0, 0])
    if area2 < 0:
        tri = tri[::-1].copy()
    ang = rng.uniform(0, 2 * np.pi)
    rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
    return tri @ rot.T + rng.uniform(-1, 1, 2)


def random_cut(rng, tri: np.ndarray):
    """The cut of tri by a chord between two of its edges, drawn at random,
    each crossed at a uniform parameter in [0.05, 0.95]."""
    i, j = rng.choice(3, size=2, replace=False)
    return cut_from_chord(tri, ("edge", int(i)), rng.uniform(0.05, 0.95),
                          ("edge", int(j)), rng.uniform(0.05, 0.95))


@dataclass
class StressReport:
    seed: int
    count: int
    max_angle_seen: float = 0.0
    worst_delta: float = 0.0
    worst_constraint: float = 0.0
    worst_agreement: float = 0.0
    gamma_delta_min: float = np.inf
    gamma_delta_max: float = -np.inf
    min_bound_margin: float = np.inf
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_text(self) -> str:
        lines = [f"basis stress test: {self.count} cases, seed {self.seed}",
                 f"  largest max-angle sampled      : {self.max_angle_seen:.2f} deg",
                 f"  worst edge-mean duality error  : {self.worst_delta:.3e}",
                 f"  worst glue-constraint residual : {self.worst_constraint:.3e}",
                 f"  worst closed-form vs dense     : {self.worst_agreement:.3e}",
                 f"  gamma.delta range              : [{self.gamma_delta_min:.3e},"
                 f" {self.gamma_delta_max:.3e}]",
                 f"  min lower-bound margin         : {self.min_bound_margin:.3e}"]
        for msg in self.failures:
            lines.append("  FAILED: " + msg)
        if self.ok:
            lines.append("  all checks passed")
        return "\n".join(lines)


def _triangle_max_angle(tri):
    angs = []
    for i in range(3):
        u = tri[(i + 1) % 3] - tri[i]
        v = tri[(i + 2) % 3] - tri[i]
        angs.append(np.degrees(np.arccos(
            np.clip(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)), -1, 1))))
    return max(angs)


def _delta_residual(basis) -> float:
    """max_ij |N_j(phi_i) - delta_ij|, cut edges integrated piecewise."""
    means = np.einsum("jsk,isk->ij", _dof_rows(basis.cut, basis.kappa)[0], basis.coef)
    return float(np.abs(means - np.eye(basis.n_dofs)).max())


def _glue_residual(basis) -> float:
    """Largest value jump at D and E and relative weighted flux jump at the
    chord midpoint over the basis functions."""
    D, E = basis.cut.D[0], basis.cut.E[0]
    bp, bm = basis.beta_c_plus, basis.beta_c_minus
    vals, grads = evaluate(basis.coef, np.array([D, E, 0.5 * (D + E)])[:, None, None, :],
                           basis.center, basis.kappa)
    flux = grads[2] @ basis.cut.n_h[0]
    return max(float(np.abs(vals[:2, :, 0] - vals[:2, :, 1]).max()),
               float(np.abs(bp * flux[:, 0] - bm * flux[:, 1]).max()) / max(bp, bm))


def basis_stress_test(seed: int = 1, count: int = 1000,
                      ratio_range=(1e-3, 1e3),
                      max_angle_deg: float = 175.0) -> StressReport:
    """Randomized unisolvence suite on arbitrary triangles.

    Checks, for every sampled (triangle, chord, coefficient pair): the
    edge-mean duality of the constructed basis, the glueing constraints, the
    agreement of the closed-form and dense constructions, and that the
    rank-one-update invertibility quantities stay in their guaranteed ranges.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    rep = StressReport(seed=seed, count=count)
    lo, hi = ratio_range
    for _ in range(count):
        tri = random_triangle(rng, max_angle_deg)
        cut = random_cut(rng, tri)
        ratio = np.exp(rng.uniform(np.log(lo), np.log(hi)))
        bp = float(np.sqrt(ratio))
        bm = float(bp / ratio)
        rep.max_angle_seen = max(rep.max_angle_seen, _triangle_max_angle(tri))

        sm = ife_local_basis_cr_sm(cut, bp, bm)
        dense = ife_local_basis_direct(cut, CR, bp, bm)
        scale = max(1.0, float(np.abs(sm.coef).max()))
        agree = float(np.abs(sm.coef - dense.coef).max()) / scale
        rep.worst_agreement = max(rep.worst_agreement, agree)
        rep.worst_delta = max(rep.worst_delta, _delta_residual(sm))
        rep.worst_constraint = max(rep.worst_constraint, _glue_residual(sm))

        gd, k1k2, margin = sm_geometry_checks(cut, bp, bm)
        rep.gamma_delta_min = min(rep.gamma_delta_min, gd)
        rep.gamma_delta_max = max(rep.gamma_delta_max, gd)
        rep.min_bound_margin = min(rep.min_bound_margin, margin)
        if abs(gd - k1k2) > 1e-10:
            rep.failures.append(f"gamma.delta != k1k2 ({gd} vs {k1k2})")

    if rep.worst_delta > 1e-10:
        rep.failures.append(f"edge-mean duality residual {rep.worst_delta:.3e} > 1e-10")
    if rep.worst_constraint > 1e-10:
        rep.failures.append(f"constraint residual {rep.worst_constraint:.3e} > 1e-10")
    if rep.worst_agreement > 1e-11:
        rep.failures.append(f"construction disagreement {rep.worst_agreement:.3e} > 1e-11")
    if rep.gamma_delta_min < -1e-12 or rep.gamma_delta_max > 1.0 + 1e-12:
        rep.failures.append("gamma.delta left [0, 1]")
    if rep.min_bound_margin < -1e-12:
        rep.failures.append("invertibility lower bound violated")
    return rep
