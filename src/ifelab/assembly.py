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
    bases: Dict[int, LocalIFEBasis]
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
                  volume_degree: int = 6, edge_npts: int = 5,
                  cr_path: str = "closed_form") -> Context:
    """Classify the mesh against the problem's interface and cache local data.

    cr_path selects the triangle basis construction ('closed_form' or
    'dense'); rectangles always use the dense solve.
    """
    if layout is None:
        layout = build_layout(mesh, prob.levelset)
    bases: Dict[int, LocalIFEBasis] = {}
    elem_ctx: Dict[int, ElementCtx] = {}
    for e, cut in layout.cuts.items():
        bp = float(prob.beta_plus(cut.x_p))
        bm = float(prob.beta_minus(cut.x_p))
        if kind == CR and cr_path == "closed_form":
            basis = ife_local_basis_cr_sm(cut, bp, bm)
        else:
            basis = ife_local_basis_direct(cut, kind, bp, bm, kappa=mesh.kappa)
        bases[e] = basis
        elem_ctx[e] = _build_element_ctx(prob, cut, basis, volume_degree)

    classes = []
    for ids in mesh.congruence_classes():
        ids = ids[layout.classes[ids] != INTERFACE]
        if ids.size:
            classes.append(_build_class_ctx(mesh, ids, kind, volume_degree))
    return Context(prob, mesh, layout, kind, bases, elem_ctx, classes,
                   volume_degree, edge_npts)


# ---------------------------------------------------------------------------
# edge machinery


@dataclass
class LiftingBlock:
    """Per-edge data for the jump lifting and the consistency term.

    T_mat[k, a] = int_e {beta w_k . n_e} [phi_a]  (moments of basis jumps)
    D_mat[k, a] = coefficient of w_k in grad(phi_a) on its element
    M           = int beta w_k . w_l over the adjacent elements
    """

    edge_id: int
    elements: Tuple[int, ...]
    union_dofs: np.ndarray
    T_mat: np.ndarray
    D_mat: np.ndarray
    M: np.ndarray
    G: np.ndarray
    J: np.ndarray            # int_e [phi_a][phi_b]
    P: np.ndarray            # int_e psi_k psi_l (trace Gram of the moments)
    length: float
    x_gamma: np.ndarray

    def lift(self, moments: np.ndarray) -> np.ndarray:
        """Gradient-space coefficients of the lifted trace with given moments."""
        return np.linalg.solve(self.M, moments)


def _edge_trace_data(ctx: Context, eid: int):
    """Gauss points per sub-segment of an interface edge with side flags."""
    mesh = ctx.mesh
    a = mesh.nodes[mesh.edges[eid, 0]]
    b = mesh.nodes[mesh.edges[eid, 1]]
    split = ctx.layout.edge_splits.get(int(eid))
    rule = segment_rule(ctx.edge_npts)
    segs = [(a, b)] if split is None else [(a, split), (split, b)]
    out = []
    for p, q in segs:
        seg_len = float(np.linalg.norm(q - p))
        if seg_len == 0.0:
            continue
        pts = p + rule.points * (q - p)
        out.append((pts, rule.weights * seg_len))
    return out


def build_lifting_block(ctx: Context, eid: int, w_fields=None) -> LiftingBlock:
    """Assemble the lifting data of one interface edge.

    w_fields optionally overrides the gradient-space basis per element as a
    list of (plus_eval, minus_eval) pairs mapping points to vectors; the
    default is the gradients of the element's immersed basis functions.
    """
    mesh = ctx.mesh
    adj = [int(t) for t in mesh.edge_elems[eid] if t >= 0]
    boundary = len(adj) == 1
    avg = 1.0 if boundary else 0.5
    n_e = mesh.edge_normals[eid]
    segs = _edge_trace_data(ctx, eid)

    elems = []
    for t in adj:
        if t not in ctx.elem_ctx:
            raise AssemblyError(f"edge {eid}: element {t} carries no cut data")
        elems.append((t, ctx.elem_ctx[t]))

    # union of the adjacent elements' DOFs
    union: List[int] = []
    pos: Dict[int, int] = {}
    owners = []
    for sgn, (t, ec) in zip((1.0, -1.0), elems):
        dofs = mesh.elem_edges[t]
        loc = []
        for d in dofs:
            d = int(d)
            if d not in pos:
                pos[d] = len(union)
                union.append(d)
            loc.append(pos[d])
        owners.append((sgn, t, ec, np.array(loc)))
    n_union = len(union)

    blocks = []
    dim = 0
    for _, t, ec, _ in owners:
        if w_fields is None:
            m = ec.basis.n_dofs
            fields = [(ec.basis.funcs[k][0].grad, ec.basis.funcs[k][1].grad)
                      for k in range(m - 1)]
        else:
            fields = w_fields[t]
        blocks.append(fields)
        dim += len(fields)

    # M: block-diagonal volume Gram of the w fields
    M = np.zeros((dim, dim))
    G = np.zeros((dim, dim))
    off = 0
    for (_, t, ec, _), fields in zip(owners, blocks):
        nb = len(fields)
        if w_fields is None:
            M[off:off + nb, off:off + nb] = ec.M
            G[off:off + nb, off:off + nb] = ec.G
        else:
            for k in range(nb):
                for l in range(k, nb):
                    vp = np.einsum("qi,qi->q", np.asarray(fields[k][0](ec.qp), float),
                                   np.asarray(fields[l][0](ec.qp), float))
                    vm = np.einsum("qi,qi->q", np.asarray(fields[k][1](ec.qm), float),
                                   np.asarray(fields[l][1](ec.qm), float))
                    M[off + k, off + l] = M[off + l, off + k] = \
                        ec.wp @ (ec.beta_p * vp) + ec.wm @ (ec.beta_m * vm)
                    G[off + k, off + l] = G[off + l, off + k] = ec.wp @ vp + ec.wm @ vm
        off += nb

    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e12:
        raise AssemblyError(f"lifting Gram matrix ill-conditioned on edge {eid} "
                            f"(cond={cond:.2e})")

    # traces along the edge: psi_k = avg * beta * (w_k . n_e), jump values of
    # basis functions, and the PPIFEM jump products
    T_mat = np.zeros((dim, n_union))
    D_mat = np.zeros((dim, n_union))
    J = np.zeros((n_union, n_union))
    psi_chunks = []
    jump_chunks = []
    wq_chunks = []
    for pts, wts in segs:
        psi = np.zeros((dim, len(wts)))
        off = 0
        for (sgn, t, ec, loc), fields in zip(owners, blocks):
            cut = ctx.layout.cuts[t]
            side = int(cut.side_of(pts.mean(axis=0)))
            beta = (ctx.prob.beta_plus(pts) if side > 0 else ctx.prob.beta_minus(pts))
            for k, f in enumerate(fields):
                w = np.asarray(f[0](pts) if side > 0 else f[1](pts), float)
                psi[off + k] = avg * beta * (w @ n_e)
            off += len(fields)
        jump = np.zeros((n_union, len(wts)))
        for sgn, t, ec, loc in owners:
            cut = ctx.layout.cuts[t]
            side = int(cut.side_of(pts.mean(axis=0)))
            for a in range(ec.basis.n_dofs):
                piece = ec.basis.funcs[a][0 if side > 0 else 1]
                jump[loc[a]] += sgn * piece.value(pts)
        T_mat += psi @ (wts[:, None] * jump.T)
        J += jump @ (wts[:, None] * jump.T)
        psi_chunks.append(psi)
        jump_chunks.append(jump)
        wq_chunks.append(wts)

    P = np.zeros((dim, dim))
    for psi, wts in zip(psi_chunks, wq_chunks):
        P += psi @ (wts[:, None] * psi.T)

    off = 0
    for (sgn, t, ec, loc), fields in zip(owners, blocks):
        if w_fields is None:
            for a in range(ec.basis.n_dofs):
                D_mat[off:off + len(fields), loc[a]] += ec.C[a]
        off += len(fields)

    x_gamma = ctx.layout.edge_splits.get(int(eid))
    return LiftingBlock(int(eid), tuple(t for t, _ in elems), np.array(union),
                        T_mat, D_mat, M, G, J, P,
                        float(mesh.edge_lengths[eid]), x_gamma)


def lift_trace(ctx: Context, block: LiftingBlock, trace: Callable) -> np.ndarray:
    """Lift a scalar edge trace: returns gradient-space coefficients solving
    int beta r_e . w = int_e {beta w . n_e} trace for every w."""
    mesh = ctx.mesh
    n_e = mesh.edge_normals[block.edge_id]
    segs = _edge_trace_data(ctx, block.edge_id)
    dim = block.M.shape[0]
    b = np.zeros(dim)
    avg = 1.0 if len(block.elements) == 1 else 0.5
    for pts, wts in segs:
        tv = np.asarray(trace(pts), float)
        off = 0
        for t in block.elements:
            ec = ctx.elem_ctx[t]
            cut = ctx.layout.cuts[t]
            side = int(cut.side_of(pts.mean(axis=0)))
            beta = (ctx.prob.beta_plus(pts) if side > 0 else ctx.prob.beta_minus(pts))
            nb = ec.basis.n_dofs - 1
            for k in range(nb):
                w = ec.basis.funcs[k][0 if side > 0 else 1].grad(pts)
                b[off + k] += wts @ (avg * beta * (w @ n_e) * tv)
            off += nb
    return block.lift(b)


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


def _edge_local_matrices(ctx: Context, method: str, eta: Optional[float]):
    """Consistency + stabilization contributions per interface edge."""
    out = []
    for eid in ctx.layout.interface_edges:
        block = build_lifting_block(ctx, int(eid))
        B = -(block.D_mat.T @ block.T_mat + block.T_mat.T @ block.D_mat)
        if method == "new":
            S = 4.0 * block.T_mat.T @ np.linalg.solve(block.M, block.T_mat)
        else:  # ppifem
            eta_e = eta
            if eta_e is None:
                xg = block.x_gamma
                eta_e = 10.0 * max(float(ctx.prob.beta_plus(xg)),
                                   float(ctx.prob.beta_minus(xg)))
            S = (eta_e / block.length) * block.J
        out.append((block.union_dofs, B + S, block))
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
    g_c = _boundary_edge_means(ctx)
    rhs = b[free] - A[free][:, constrained] @ g_c
    return AssembledSystem(A[free][:, free], rhs, free, constrained, g_c, n)


def _boundary_edge_means(ctx: Context) -> np.ndarray:
    mesh = ctx.mesh
    ids = np.nonzero(mesh.boundary_edges)[0]
    rule = segment_rule(ctx.edge_npts)
    a = mesh.nodes[mesh.edges[ids, 0]]
    b = mesh.nodes[mesh.edges[ids, 1]]
    vals = np.zeros(len(ids))
    split_ids = [i for i, e in enumerate(ids) if int(e) in ctx.layout.edge_splits]
    plain = np.array([i for i in range(len(ids)) if i not in set(split_ids)], dtype=int)
    if plain.size:
        pts = a[plain, None, :] + rule.points[None, :, :] * (b - a)[plain, None, :]
        vals[plain] = np.asarray(ctx.prob.g_boundary(pts), float) @ rule.weights
    for i in split_ids:
        from .ife_space import edge_mean_of
        vals[i] = edge_mean_of(ctx.prob.g_boundary, a[i], b[i],
                               split=ctx.layout.edge_splits[int(ids[i])])
    return vals


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
    n_e_all = ctx.mesh.edge_normals
    for block in edge_blocks:
        eid = block.edge_id
        n_e = n_e_all[eid]
        segs = _edge_trace_data(ctx, eid)
        avg = 1.0 if len(block.elements) == 1 else 0.5
        dim = block.M.shape[0]
        n_union = len(block.union_dofs)
        tJ = np.zeros(dim)       # moments of [uJ]
        bJ = np.zeros(n_union)   # int {beta grad(uJ) . n} [phi_a]
        jJ = np.zeros(n_union)   # int [uJ][phi_a]
        for pts, wts in segs:
            # jump of uJ and average of its weighted normal derivative
            juJ = np.zeros(len(wts))
            avgJ = np.zeros(len(wts))
            for sgn, t in zip((1.0, -1.0), block.elements):
                cut = ctx.layout.cuts[t]
                side = int(cut.side_of(pts.mean(axis=0)))
                beta = (ctx.prob.beta_plus(pts) if side > 0
                        else ctx.prob.beta_minus(pts))
                jp, jm = correction.get(t, (None, None))
                if jp is None:
                    continue
                piece = jp if side > 0 else jm
                juJ += sgn * piece.value(pts)
                avgJ += avg * beta * (piece.grad(pts) @ n_e)
            # psi moments of [uJ]
            off = 0
            for t in block.elements:
                ec = ctx.elem_ctx[t]
                cut = ctx.layout.cuts[t]
                side = int(cut.side_of(pts.mean(axis=0)))
                beta = (ctx.prob.beta_plus(pts) if side > 0
                        else ctx.prob.beta_minus(pts))
                nb = ec.basis.n_dofs - 1
                for k in range(nb):
                    w = ec.basis.funcs[k][0 if side > 0 else 1].grad(pts)
                    tJ[off + k] += wts @ (avg * beta * (w @ n_e) * juJ)
                off += nb
            # basis jumps against [uJ] and against avgJ
            for sgn, t in zip((1.0, -1.0), block.elements):
                ec = ctx.elem_ctx[t]
                cut = ctx.layout.cuts[t]
                side = int(cut.side_of(pts.mean(axis=0)))
                loc = [int(np.nonzero(block.union_dofs == d)[0][0])
                       for d in mesh.elem_edges[t]]
                for a in range(ec.basis.n_dofs):
                    pv = ec.basis.funcs[a][0 if side > 0 else 1].value(pts)
                    bJ[loc[a]] += wts @ (avgJ * sgn * pv)
                    jJ[loc[a]] += wts @ (juJ * sgn * pv)

        contrib = -(bJ + block.D_mat.T @ tJ)  # b_h(uJ, phi)
        if method == "new":
            contrib += 4.0 * block.T_mat.T @ np.linalg.solve(block.M, tJ)
        else:
            eta_e = eta
            if eta_e is None:
                xg = block.x_gamma
                eta_e = 10.0 * max(float(ctx.prob.beta_plus(xg)),
                                   float(ctx.prob.beta_minus(xg)))
            contrib += (eta_e / block.length) * jJ
        b[block.union_dofs] -= contrib


def build_jump_correction(ctx: Context) -> Dict[int, tuple]:
    """Per-element correction fields for nonhomogeneous interface jumps."""
    out = {}
    for e, cut in ctx.layout.cuts.items():
        basis = ctx.bases[e]
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
