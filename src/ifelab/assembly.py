"""Global assembly of the three discretizations and the sparse SPD solve.

Methods
-------
plain   volume form only: sum_T int_T beta_h grad(u).grad(v)
new     adds, on interface edges, the symmetric consistency term
        -int_e({beta_h grad(u).n}[v] + {beta_h grad(v).n}[u]) and the
        parameter-free stabilization 4 int beta_h r_e([u]).r_e([v]) built
        from a local lifting of edge jumps into piecewise-gradient fields
ppifem  keeps the consistency term but stabilizes with the interior-penalty
        jump product (eta_e/|e|) int_e [u][v]

The lifting solve and the volume form share their element Gram matrices, so
the discrete coercivity bound A(v,v) >= 0.5*a_vol(v,v) holds to roundoff by
construction. Jumps are oriented as (trace from T1) - (trace from T2) with
the edge normal pointing out of T1; boundary edges use the single trace for
both average and jump.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .cutting import CutLayout, build_layout
from .geometry import INTERFACE
from .ife_space import (
    CR,
    LocalIFEBasis,
    edge_means,
    ife_local_basis_cr_sm,
    ife_local_basis_direct,
    jump_correction_local,
    standard_local_basis,
)
from .mesh import UnfittedMesh
from .quadrature import polygon_points_weights, segment_rule

METHODS = ("plain", "new", "ppifem")


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


@dataclass
class ElementCtx:
    """Quadrature and basis data cached per interface element."""

    basis: LocalIFEBasis
    qp: np.ndarray          # plus-side quadrature points
    wp: np.ndarray
    qm: np.ndarray
    wm: np.ndarray
    beta_p: np.ndarray      # beta^+(x) at plus points
    beta_m: np.ndarray
    vals_p: np.ndarray      # (m, nq+) basis values, plus piece
    vals_m: np.ndarray
    grads_p: np.ndarray     # (m, nq+, 2)
    grads_m: np.ndarray
    M: np.ndarray           # weighted Gram of the gradient space basis
    G: np.ndarray           # unweighted Gram
    C: np.ndarray           # (m, m-1) gradient-space coefficients of each basis fn
    K: np.ndarray           # (m, m) element stiffness = C M C^T


@dataclass
class ClassCtx:
    """Reference data for one congruence class of uncut elements."""

    ids: np.ndarray
    shifts: np.ndarray      # (n, 2) translation of each element from the reference
    pts: np.ndarray         # reference quadrature points
    wts: np.ndarray
    vals: np.ndarray        # (nq, m) basis values
    grads: np.ndarray       # (nq, m, 2)
    gouter: np.ndarray      # (nq, m, m) grad_i . grad_j


@dataclass
class Context:
    """Everything assembled forms need for one (problem, mesh, kind) triple."""

    prob: object
    mesh: UnfittedMesh
    layout: CutLayout
    kind: str
    elem_ctx: Dict[int, ElementCtx]
    classes: List[ClassCtx]
    volume_degree: int = 6
    edge_npts: int = 5


@dataclass
class AssembledSystem:
    matrix: sp.csr_matrix           # symmetric, restricted to free DOFs
    rhs: np.ndarray
    free: np.ndarray                # free DOF indices
    constrained: np.ndarray         # constrained DOF indices
    constrained_values: np.ndarray  # prescribed edge means on constrained DOFs
    n_dofs: int

    def expand(self, x_free: np.ndarray) -> np.ndarray:
        full = np.zeros(self.n_dofs)
        full[self.free] = x_free
        full[self.constrained] = self.constrained_values
        return full


def _build_element_ctx(prob, cut, basis, degree) -> ElementCtx:
    m = basis.n_dofs
    qp, wp = polygon_points_weights(cut.poly_plus, degree)
    qm, wm = polygon_points_weights(cut.poly_minus, degree)
    beta_p = np.asarray(prob.beta_plus(qp), float)
    beta_m = np.asarray(prob.beta_minus(qm), float)
    vals_p = np.array([basis.funcs[i][0].value(qp) for i in range(m)])
    vals_m = np.array([basis.funcs[i][1].value(qm) for i in range(m)])
    grads_p = np.array([basis.funcs[i][0].grad(qp) for i in range(m)])
    grads_m = np.array([basis.funcs[i][1].grad(qm) for i in range(m)])

    nw = m - 1  # gradient space: gradients of the first m-1 basis functions
    M = np.empty((nw, nw))
    G = np.empty((nw, nw))
    for k in range(nw):
        for l in range(k, nw):
            dot_p = np.einsum("qi,qi->q", grads_p[k], grads_p[l])
            dot_m = np.einsum("qi,qi->q", grads_m[k], grads_m[l])
            M[k, l] = M[l, k] = wp @ (beta_p * dot_p) + wm @ (beta_m * dot_m)
            G[k, l] = G[l, k] = wp @ dot_p + wm @ dot_m
    C = np.vstack([np.eye(nw), -np.ones(nw)])  # gradients sum to zero
    K = C @ M @ C.T
    return ElementCtx(basis, qp, wp, qm, wm, beta_p, beta_m,
                      vals_p, vals_m, grads_p, grads_m, M, G, C, K)


def _build_class_ctx(mesh, ids, kind, degree) -> ClassCtx:
    ref = mesh.element_vertices(int(ids[0]))
    shifts = mesh.nodes[mesh.elements[ids, 0]] - ref[0]
    pts, wts = polygon_points_weights(ref, degree)
    lam = standard_local_basis(ref, kind, mesh.kappa)
    vals = np.stack([l.value(pts) for l in lam], axis=1)
    grads = np.stack([l.grad(pts) for l in lam], axis=1)
    gouter = np.einsum("qid,qjd->qij", grads, grads)
    return ClassCtx(ids, shifts, pts, wts, vals, grads, gouter)


def build_context(prob, mesh: UnfittedMesh, kind: str,
                  layout: Optional[CutLayout] = None,
                  volume_degree: int = 6, edge_npts: int = 5) -> Context:
    """Classify the mesh against the problem's interface and cache local data.

    Triangles take the closed-form immersed basis, rectangles the dense solve.
    """
    if layout is None:
        layout = build_layout(mesh, prob.levelset)
    elem_ctx: Dict[int, ElementCtx] = {}
    for e, cut in layout.cuts.items():
        bp = float(prob.beta_plus(cut.x_p))
        bm = float(prob.beta_minus(cut.x_p))
        if kind == CR:
            basis = ife_local_basis_cr_sm(cut, bp, bm)
        else:
            basis = ife_local_basis_direct(cut, kind, bp, bm, kappa=mesh.kappa)
        elem_ctx[e] = _build_element_ctx(prob, cut, basis, volume_degree)

    classes = []
    for ids in mesh.congruence_classes():
        ids = ids[layout.classes[ids] != INTERFACE]
        if ids.size:
            classes.append(_build_class_ctx(mesh, ids, kind, volume_degree))
    return Context(prob, mesh, layout, kind, elem_ctx, classes,
                   volume_degree, edge_npts)


# ---------------------------------------------------------------------------
# edge machinery


@dataclass
class LiftingBlock:
    """Trace table and lifting data of one interface edge.

    The edge quadrature is built once, concatenated over the sub-segments the
    interface crossing splits the edge into; every edge term is a product
    against these arrays (W = diag(wq), avg = 1/2, or 1 on a boundary edge):

    pts, wq     (nq, 2) points and (nq,) weights
    sides, beta (n_elem, nq) chord side of each adjacent element and its
                coefficient at every point (one side per sub-segment)
    psi         (dim, nq) weighted normal traces avg beta w_k . n_e of the
                gradient-space fields w_k = grad(phi_k) of both elements
    jump        (n_union, nq) basis jumps [phi_a] of the union DOFs
    T_mat[k, a] = int_e {beta w_k . n_e} [phi_a] = psi W jump^T
    J           = int_e [phi_a][phi_b] = jump W jump^T
    P           = int_e psi_k psi_l = psi W psi^T
    D_mat[k, a] = coefficient of w_k in grad(phi_a) on its element
    M, G        = beta-weighted and unweighted int w_k . w_l over the
                adjacent elements (block diagonal)
    beta_gamma  max beta+-(x_gamma) at the interface crossing, the scale of
                the default ppifem penalty
    """

    edge_id: int
    elements: Tuple[int, ...]
    union_dofs: np.ndarray
    pts: np.ndarray
    wq: np.ndarray
    sides: np.ndarray
    beta: np.ndarray
    psi: np.ndarray
    jump: np.ndarray
    T_mat: np.ndarray
    D_mat: np.ndarray
    M: np.ndarray
    G: np.ndarray
    J: np.ndarray
    P: np.ndarray
    length: float
    x_gamma: np.ndarray
    beta_gamma: Optional[float]

    def lift(self, moments: np.ndarray) -> np.ndarray:
        """Gradient-space coefficients of the lifted trace with given moments."""
        return np.linalg.solve(self.M, moments)


def _piecewise(pieces, sides: np.ndarray, pts: np.ndarray, grad: bool) -> np.ndarray:
    """Values (or gradients) at pts of the (plus, minus) piece given by sides."""
    if grad:
        return np.where((sides > 0)[:, None], pieces[0].grad(pts), pieces[1].grad(pts))
    return np.where(sides > 0, pieces[0].value(pts), pieces[1].value(pts))


def build_lifting_block(ctx: Context, eid: int) -> LiftingBlock:
    """Build the trace table of one interface edge and its lifting data.

    This is the only pass over the edge: the quadrature is laid out once, the
    chord side of each adjacent element is decided once per sub-segment, beta
    is evaluated once, and T_mat, J, P, lift_trace and the jump-correction
    action are all products against the stored arrays.
    """
    mesh = ctx.mesh
    adj = [int(t) for t in mesh.edge_elems[eid] if t >= 0]
    n_e = mesh.edge_normals[eid]
    for t in adj:
        if t not in ctx.elem_ctx:
            raise AssemblyError(f"edge {eid}: element {t} carries no cut data")
    ecs = [ctx.elem_ctx[t] for t in adj]

    union: List[int] = []
    for t in adj:
        union += [int(d) for d in mesh.elem_edges[t] if int(d) not in union]
    locs = [[union.index(int(d)) for d in mesh.elem_edges[t]] for t in adj]

    x_gamma = ctx.layout.edge_splits.get(int(eid))
    ends = [mesh.nodes[mesh.edges[eid, 0]], mesh.nodes[mesh.edges[eid, 1]]]
    if x_gamma is not None:
        ends.insert(1, x_gamma)
    rule = segment_rule(ctx.edge_npts)
    seg_pts, seg_wts = [], []
    for p, q in zip(ends, ends[1:]):
        seg_len = float(np.linalg.norm(q - p))
        if seg_len > 0.0:
            seg_pts.append(p + rule.points * (q - p))
            seg_wts.append(rule.weights * seg_len)
    pts = np.concatenate(seg_pts)
    wq = np.concatenate(seg_wts)
    mids = np.array([seg.mean(axis=0) for seg in seg_pts])
    sides = np.array([np.repeat(ctx.layout.cuts[t].side_of(mids), len(rule.weights))
                      for t in adj])
    xs = pts if x_gamma is None else np.vstack([pts, x_gamma])
    bp, bm = ctx.prob.beta_plus(xs), ctx.prob.beta_minus(xs)
    beta = np.where(sides > 0, bp[:len(wq)], bm[:len(wq)])
    beta_gamma = None if x_gamma is None else max(float(bp[-1]), float(bm[-1]))

    dim = sum(ec.basis.n_dofs - 1 for ec in ecs)
    avg = 1.0 if len(adj) == 1 else 0.5
    M = np.zeros((dim, dim))
    G = np.zeros((dim, dim))
    D_mat = np.zeros((dim, len(union)))
    psi = np.zeros((dim, len(wq)))
    jump = np.zeros((len(union), len(wq)))
    off = 0
    for sgn, ec, loc, side, beta_t in zip((1.0, -1.0), ecs, locs, sides, beta):
        funcs = ec.basis.funcs
        nb = len(funcs) - 1
        M[off:off + nb, off:off + nb] = ec.M
        G[off:off + nb, off:off + nb] = ec.G
        D_mat[off:off + nb, loc] = ec.C.T
        for k in range(nb):
            psi[off + k] = avg * beta_t * (_piecewise(funcs[k], side, pts, True) @ n_e)
        for a in range(len(funcs)):
            jump[loc[a]] += sgn * _piecewise(funcs[a], side, pts, False)
        off += nb

    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e12:
        raise AssemblyError(f"lifting Gram matrix ill-conditioned on edge {eid} "
                            f"(cond={cond:.2e})")
    psi_w = psi * wq
    return LiftingBlock(int(eid), tuple(adj), np.array(union), pts, wq, sides, beta,
                        psi, jump, psi_w @ jump.T, D_mat, M, G,
                        (jump * wq) @ jump.T, psi_w @ psi.T,
                        float(mesh.edge_lengths[eid]), x_gamma, beta_gamma)


def lift_trace(ctx: Context, block: LiftingBlock, trace: Callable) -> np.ndarray:
    """Lift a scalar edge trace: returns gradient-space coefficients solving
    int beta r_e . w = int_e {beta w . n_e} trace for every w."""
    return block.lift(block.psi @ (block.wq * np.asarray(trace(block.pts), float)))


def lifted_field(ctx: Context, block: LiftingBlock, coeffs: np.ndarray,
                 elem: int, pts: np.ndarray) -> np.ndarray:
    """Evaluate the lifted field on one adjacent element at given points."""
    ec = ctx.elem_ctx[elem]
    cut = ctx.layout.cuts[elem]
    idx = block.elements.index(elem)
    nb = ec.basis.n_dofs - 1
    off = sum(ctx.elem_ctx[t].basis.n_dofs - 1 for t in block.elements[:idx])
    side = cut.side_of(pts)
    out = np.zeros(np.asarray(pts, float).shape)
    for k in range(nb):
        gp = ec.basis.funcs[k][0].grad(pts)
        gm = ec.basis.funcs[k][1].grad(pts)
        out += coeffs[off + k] * np.where((side > 0)[..., None], gp, gm)
    return out


def lifting_stability_ratio(block: LiftingBlock) -> float:
    """sup over traces of ||r_e(phi)|| * |e|^(1/2) / ||phi||_L2(e).

    The supremum is attained inside the span of the moment traces psi_k, so
    it reduces to a small generalized eigenproblem on the range of P.
    """
    lam, V = np.linalg.eigh(block.P)
    keep = lam > 1e-12 * max(lam.max(), 1e-300)
    if not np.any(keep):
        return 0.0
    V = V[:, keep] / np.sqrt(lam[keep])
    Minv_P = np.linalg.solve(block.M, block.P)
    A = block.P @ np.linalg.solve(block.M, block.G @ Minv_P)
    B = V.T @ A @ V
    return float(np.sqrt(max(np.linalg.eigvalsh(B).max(), 0.0) * block.length))


# ---------------------------------------------------------------------------
# global assembly


def _volume_triplets(ctx: Context):
    mesh = ctx.mesh
    rows, cols, data = [], [], []
    for cl in ctx.classes:
        pts = cl.shifts[:, None, :] + cl.pts[None, :, :]
        sides = ctx.layout.classes[cl.ids]
        beta = np.empty(pts.shape[:2])
        mp = sides > 0
        if np.any(mp):
            beta[mp] = ctx.prob.beta_plus(pts[mp])
        if np.any(~mp):
            beta[~mp] = ctx.prob.beta_minus(pts[~mp])
        K = np.einsum("eq,q,qij->eij", beta, cl.wts, cl.gouter)
        conn = mesh.elem_edges[cl.ids]
        m = conn.shape[1]
        rows.append(np.repeat(conn, m, axis=1).ravel())
        cols.append(np.tile(conn, (1, m)).ravel())
        data.append(K.ravel())
    for e, ec in ctx.elem_ctx.items():
        conn = mesh.elem_edges[e]
        m = len(conn)
        rows.append(np.repeat(conn, m))
        cols.append(np.tile(conn, m))
        data.append(ec.K.ravel())
    return rows, cols, data


def _edge_form(block: LiftingBlock, method: str, eta: Optional[float],
               moments, fluxes, jumps):
    """Interface-edge terms of one method against every union basis function.

    The trial field u enters through moments = psi W [u], fluxes =
    [phi] W {beta grad(u) . n_e} and jumps = [phi] W [u]. The consistency
    term is -(fluxes + D^T moments); the stabilization is 4 T^T M^-1 moments
    for 'new' and (eta_e/|e|) jumps for 'ppifem', with eta_e defaulting to
    10 beta_gamma = 10 max beta+-(x_gamma).
    """
    out = -(fluxes + block.D_mat.T @ moments)
    if method == "new":
        return out + 4.0 * block.T_mat.T @ np.linalg.solve(block.M, moments)
    if eta is None:
        eta = 10.0 * block.beta_gamma
    return out + (eta / block.length) * jumps


def _edge_local_matrices(ctx: Context, method: str, eta: Optional[float]):
    """Consistency + stabilization contributions per interface edge."""
    out = []
    for eid in ctx.layout.interface_edges:
        block = build_lifting_block(ctx, int(eid))
        mat = _edge_form(block, method, eta, block.T_mat,
                         block.T_mat.T @ block.D_mat, block.J)
        out.append((block.union_dofs, mat, block))
    return out


def assemble(ctx: Context, method: str, eta: Optional[float] = None,
             correction: Optional[Dict[int, tuple]] = None) -> AssembledSystem:
    """Assemble the symmetric system and right-hand side for one method.

    correction maps interface elements to piecewise fields absorbing
    nonhomogeneous interface jumps; their full bilinear-form action moves to
    the right-hand side.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    mesh = ctx.mesh
    n = mesh.n_edges
    rows, cols, data = _volume_triplets(ctx)
    edge_blocks = []
    if method in ("new", "ppifem"):
        for union, mat, block in _edge_local_matrices(ctx, method, eta):
            rows.append(np.repeat(union, len(union)))
            cols.append(np.tile(union, len(union)))
            data.append(mat.ravel())
            edge_blocks.append(block)

    A = sp.coo_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    asym = abs(A - A.T).max()
    scale = abs(A).max()
    if asym > 1e-12 * scale:
        raise AssemblyError(f"assembled matrix asymmetric: {asym:.3e} vs scale {scale:.3e}")
    A = 0.5 * (A + A.T)

    b = assemble_rhs(ctx, method, eta=eta, correction=correction,
                     edge_blocks=edge_blocks or None)

    boundary = mesh.boundary_edges
    free = np.nonzero(~boundary)[0]
    constrained = np.nonzero(boundary)[0]
    g_c = edge_means(ctx.prob.g_boundary, mesh, ctx.layout.edge_splits, constrained,
                     ctx.edge_npts)
    rhs = b[free] - A[free][:, constrained] @ g_c
    return AssembledSystem(A[free][:, free], rhs, free, constrained, g_c, n)


def assemble_rhs(ctx: Context, method: str, eta: Optional[float] = None,
                 correction: Optional[Dict[int, tuple]] = None,
                 edge_blocks=None) -> np.ndarray:
    """Load vector int f phi_i; for nonhomogeneous flux jumps this includes
    the interface load int_chord g_N phi_i, and the full bilinear action of
    the supplied jump correction moves to the right-hand side."""
    mesh = ctx.mesh
    b = np.zeros(mesh.n_edges)
    for cl in ctx.classes:
        pts = cl.shifts[:, None, :] + cl.pts[None, :, :]
        fv = ctx.prob.f(pts)
        loc = np.einsum("eq,q,qi->ei", fv, cl.wts, cl.vals)
        np.add.at(b, mesh.elem_edges[cl.ids].ravel(), loc.ravel())
    for e, ec in ctx.elem_ctx.items():
        fp = ctx.prob.f(ec.qp)
        fm = ctx.prob.f(ec.qm)
        loc = ec.vals_p @ (ec.wp * fp) + ec.vals_m @ (ec.wm * fm)
        np.add.at(b, mesh.elem_edges[e], loc)

    if not ctx.prob.homogeneous_jumps:
        # the flux jump loads the chord: test functions are continuous across
        # it, so either piece's trace applies
        rule = segment_rule(ctx.edge_npts)
        for e, ec in ctx.elem_ctx.items():
            cut = ctx.layout.cuts[e]
            length = float(np.linalg.norm(cut.E - cut.D))
            pts = cut.D + rule.points * (cut.E - cut.D)
            gn = np.asarray(ctx.prob.g_N(pts), float)
            for a in range(ec.basis.n_dofs):
                vals = ec.basis.funcs[a][0].value(pts)
                b[mesh.elem_edges[e][a]] -= length * float(rule.weights @ (gn * vals))

    if correction:
        _subtract_correction_action(ctx, b, method, eta, correction, edge_blocks)
    return b


def _subtract_correction_action(ctx: Context, b, method, eta, correction, edge_blocks):
    mesh = ctx.mesh
    # volume part: int beta grad(uJ) . grad(phi_i) on corrected elements
    for e, (jp, jm) in correction.items():
        ec = ctx.elem_ctx[e]
        gp = jp.grad(ec.qp)
        gm = jm.grad(ec.qm)
        for a in range(ec.basis.n_dofs):
            val = ec.wp @ (ec.beta_p * np.einsum("qi,qi->q", gp, ec.grads_p[a])) \
                + ec.wm @ (ec.beta_m * np.einsum("qi,qi->q", gm, ec.grads_m[a]))
            b[mesh.elem_edges[e][a]] -= val
    if method == "plain":
        return

    if edge_blocks is None:
        edge_blocks = [build_lifting_block(ctx, int(eid))
                       for eid in ctx.layout.interface_edges]
    for block in edge_blocks:
        # jump of uJ and average of its weighted normal derivative
        n_e = mesh.edge_normals[block.edge_id]
        avg = 1.0 if len(block.elements) == 1 else 0.5
        juJ = np.zeros(len(block.wq))
        avgJ = np.zeros(len(block.wq))
        for sgn, t, side, beta in zip((1.0, -1.0), block.elements, block.sides, block.beta):
            if t not in correction:
                continue
            juJ += sgn * _piecewise(correction[t], side, block.pts, False)
            avgJ += avg * beta * (_piecewise(correction[t], side, block.pts, True) @ n_e)
        wjuJ = block.wq * juJ
        contrib = _edge_form(block, method, eta, block.psi @ wjuJ,
                             block.jump @ (block.wq * avgJ), block.jump @ wjuJ)
        b[block.union_dofs] -= contrib


def build_jump_correction(ctx: Context) -> Dict[int, tuple]:
    """Per-element correction fields for nonhomogeneous interface jumps."""
    out = {}
    for e, cut in ctx.layout.cuts.items():
        basis = ctx.elem_ctx[e].basis
        out[e] = jump_correction_local(cut, ctx.kind, basis.beta_c_plus,
                                       basis.beta_c_minus, ctx.prob.g_D,
                                       ctx.prob.g_N, kappa=ctx.mesh.kappa)
    return out


def solve_spd(system: AssembledSystem, rtol: float = 1e-12) -> Tuple[np.ndarray, int]:
    """Sparse direct solve of the SPD system; returns (x_free, 0 iterations).

    SuperLU factors P A P^T = L U with a symmetric minimum-degree ordering and
    diagonal pivots only, so U = D L^T and, by Sylvester's law of inertia, A is
    SPD exactly when no off-diagonal pivot was taken and every pivot is
    positive. The true residual ||b - Ax|| / ||b|| must then be at most
    10 (rtol + eps || |A| |x| || / ||b||), the second term being the rounding
    floor of evaluating it in float64. Raises SolverError when A is not SPD,
    is singular or misses that bound; the error carries the achieved relative
    residual.
    """
    # imported here: scipy.sparse.linalg adds about 60 ms to importing ifelab
    from scipy.sparse.linalg import splu

    A = system.matrix
    b = system.rhs
    if not (0.0 < rtol < 1.0):
        raise ValueError("rtol must be in (0, 1)")
    n = len(b)
    if np.any(A.diagonal() <= 0):
        raise SolverError("matrix not SPD: nonpositive diagonal")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0
    try:
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as err:  # SuperLU: "Factor is exactly singular"
        # no solution was formed, so the achieved residual is that of x = 0
        raise SolverError(f"matrix singular: {err}", residual=1.0) from err
    x = lu.solve(b)
    residual = float(np.linalg.norm(b - A @ x)) / bnorm
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError("matrix not SPD: off-diagonal pivot", residual=residual)
    if np.any(lu.U.diagonal() <= 0):
        raise SolverError("matrix not SPD: nonpositive pivot", residual=residual)
    floor = np.finfo(float).eps * float(np.linalg.norm(abs(A) @ np.abs(x))) / bnorm
    if not residual <= 10.0 * (rtol + floor):
        raise SolverError(f"residual {residual:.3e} exceeds 10 x (rtol + {floor:.1e})",
                          residual=residual)
    return x, 0


def solve(ctx: Context, method: str, eta: Optional[float] = None,
          rtol: float = 1e-12) -> Tuple[np.ndarray, Optional[Dict[int, tuple]], int]:
    """Assemble and solve by ``solve_spd``; returns (full DOF vector,
    correction fields, iterations), the last always 0 for the direct solve."""
    correction = None
    if not ctx.prob.homogeneous_jumps:
        correction = build_jump_correction(ctx)
    system = assemble(ctx, method, eta=eta, correction=correction)
    x_free, iters = solve_spd(system, rtol=rtol)
    return system.expand(x_free), correction, iters
