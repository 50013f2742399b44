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

All interface elements live in one CutTable: their stacked basis
coefficients and one flat sub-polygon quadrature with an owner index and a
piece flag, read in one pass by the volume form, the load vector, the
jump-correction action and the error norms. The lifting solve and the volume
form share its element Gram matrices, so the discrete coercivity bound
A(v,v) >= 0.5*a_vol(v,v) holds to roundoff by construction. Jumps are
oriented as (trace from T1) - (trace from T2) with the edge normal pointing
out of T1; boundary edges use the single trace for both average and jump.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from .cutting import CutLayout, build_layout
from .geometry import INTERFACE
from .ife_space import (
    CR,
    LocalIFEBasis,
    edge_means,
    evaluate,
    ife_local_basis_cr_sm,
    ife_local_basis_direct,
    jump_correction_local,
    standard_local_basis,
)
from .mesh import UnfittedMesh
from .problems import piecewise
from .quadrature import polygon_points_weights, segment_rule

METHODS = ("plain", "new", "ppifem")
VOLUME_DEGREE = 6  # exact degree of the element and sub-polygon rules
EDGE_NPTS = 5      # Gauss points per edge segment, chord and boundary edge
BLOCK_POINTS = 16384  # quadrature points per block of uncut elements


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    def __init__(self, msg, residual=None):
        super().__init__(msg)
        self.residual = residual


@dataclass
class CutTable:
    """Immersed bases and sub-polygon quadrature of every interface element.

    Element rows follow layout.cuts. Quadrature point q lies in element
    ids[owner[q]], in its plus (piece[q] = 0) or minus (piece[q] = 1)
    sub-polygon; each element's points are contiguous from starts[row].
    """

    ids: np.ndarray         # (n_cut,) element ids
    row: np.ndarray         # (n_elements,) table row of each element, -1 if uncut
    bases: List[LocalIFEBasis]
    coef: np.ndarray        # (n_cut, m, 2, 4) basis coefficients
    centers: np.ndarray     # (n_cut, 2) monomial centres
    chords: np.ndarray      # (n_cut, 2, 2) chord endpoints D, E
    pts: np.ndarray         # (nq, 2)
    wts: np.ndarray
    owner: np.ndarray
    piece: np.ndarray
    starts: np.ndarray
    beta: np.ndarray        # (nq,) beta+- of each point's piece
    vals: np.ndarray        # (nq, m) values of the owner's basis
    grads: np.ndarray       # (nq, m, 2)
    M: np.ndarray           # (n_cut, m-1, m-1) weighted Gram of the gradient space
    G: np.ndarray           # unweighted Gram
    C: np.ndarray           # (m, m-1) gradient-space coefficients of each basis fn
    K: np.ndarray           # (n_cut, m, m) element stiffness = C M C^T

    def per_element(self, x: np.ndarray) -> np.ndarray:
        """Sums of the point rows x (nq, ...) over each element: (n_cut, ...)."""
        return np.add.reduceat(x, self.starts, axis=0)


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

    def blocks(self):
        """(slice of ids, (e, nq, 2) points) per run of elements holding at
        most BLOCK_POINTS quadrature points. Evaluating problem data block by
        block keeps its temporaries in cache instead of streaming arrays of
        millions of points through memory."""
        step = max(1, BLOCK_POINTS // len(self.wts))
        for start in range(0, len(self.ids), step):
            s = slice(start, start + step)
            yield s, self.shifts[s, None, :] + self.pts[None, :, :]


@dataclass
class Context:
    """Everything assembled forms need for one (problem, mesh, kind) triple."""

    prob: object
    mesh: UnfittedMesh
    layout: CutLayout
    kind: str
    cut_table: CutTable
    classes: List[ClassCtx]


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


def _build_cut_table(prob, mesh, layout, kind) -> CutTable:
    """Bases, quadrature and Gram matrices of all cut elements at once.

    beta_plus and beta_minus are each called once on the chord midpoints
    (the basis coefficients) and once on the quadrature points.
    """
    cuts = list(layout.cuts.values())
    ids = np.array(list(layout.cuts), dtype=int)
    m = 3 if kind == CR else 4
    mids = np.array([c.x_p for c in cuts]).reshape(-1, 2)
    bps, bms = prob.beta_plus(mids), prob.beta_minus(mids)
    if kind == CR:
        bases = [ife_local_basis_cr_sm(c, float(bp), float(bm))
                 for c, bp, bm in zip(cuts, bps, bms)]
    else:
        bases = [ife_local_basis_direct(c, kind, float(bp), float(bm), kappa=mesh.kappa)
                 for c, bp, bm in zip(cuts, bps, bms)]
    coef = np.array([b.coef for b in bases]).reshape(-1, m, 2, 4)
    centers = np.array([b.center for b in bases]).reshape(-1, 2)
    row = np.full(mesh.n_elements, -1)
    row[ids] = np.arange(len(ids))

    rules = [polygon_points_weights(poly, VOLUME_DEGREE)
             for c in cuts for poly in (c.poly_plus, c.poly_minus)]
    counts = np.array([len(w) for _, w in rules], dtype=int)
    pts = np.concatenate([np.zeros((0, 2))] + [p for p, _ in rules])
    wts = np.concatenate([np.zeros(0)] + [w for _, w in rules])
    owner = np.repeat(np.arange(len(rules)) // 2, counts)
    piece = np.repeat(np.arange(len(rules)) % 2, counts)
    starts = (np.cumsum(counts) - counts)[::2]
    beta = piecewise(1 - 2 * piece, prob.beta_plus, prob.beta_minus, pts)
    vals, grads = evaluate(coef[owner, :, piece], pts[:, None, :],
                           centers[owner][:, None, :], mesh.kappa)

    nw = m - 1  # gradient space: gradients of the first m-1 basis functions
    gram = np.einsum("qkd,qld->qkl", grads[:, :nw], grads[:, :nw])
    M = np.add.reduceat((wts * beta)[:, None, None] * gram, starts, axis=0)
    G = np.add.reduceat(wts[:, None, None] * gram, starts, axis=0)
    C = np.vstack([np.eye(nw), -np.ones(nw)])  # gradients sum to zero
    chords = np.array([[c.D, c.E] for c in cuts]).reshape(-1, 2, 2)
    return CutTable(ids, row, bases, coef, centers, chords, pts, wts, owner, piece,
                    starts, beta, vals, grads, M, G, C, C @ M @ C.T)


def _build_class_ctx(mesh, ids, kind) -> ClassCtx:
    ref = mesh.element_vertices(int(ids[0]))
    shifts = mesh.nodes[mesh.elements[ids, 0]] - ref[0]
    pts, wts = polygon_points_weights(ref, VOLUME_DEGREE)
    lam = standard_local_basis(ref, kind, mesh.kappa)
    vals, grads = evaluate(lam, pts[:, None, :], ref.mean(axis=0), mesh.kappa)
    gouter = np.einsum("qid,qjd->qij", grads, grads)
    return ClassCtx(ids, shifts, pts, wts, vals, grads, gouter)


def build_context(prob, mesh: UnfittedMesh, kind: str,
                  layout: Optional[CutLayout] = None) -> Context:
    """Classify the mesh against the problem's interface and cache local data.

    Triangles take the closed-form immersed basis, rectangles the dense solve.
    """
    if layout is None:
        layout = build_layout(mesh, prob.levelset)
    classes = []
    for ids in mesh.congruence_classes():
        ids = ids[layout.classes[ids] != INTERFACE]
        if ids.size:
            classes.append(_build_class_ctx(mesh, ids, kind))
    return Context(prob, mesh, layout, kind, _build_cut_table(prob, mesh, layout, kind),
                   classes)


# ---------------------------------------------------------------------------
# edge machinery


@dataclass
class LiftingBlock:
    """Trace table and lifting data of one interface edge.

    The edge quadrature is built once, concatenated over the sub-segments the
    interface crossing splits the edge into; every edge term is a product
    against these arrays (W = diag(wq), avg = 1/2, or 1 on a boundary edge):

    pts, wq     (nq, 2) points and (nq,) weights
    rows        cut-table row of each adjacent element
    piece, beta (n_elem, nq) piece (0 plus, 1 minus) of each adjacent element
                and its coefficient at every point (one piece per sub-segment)
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
    rows: np.ndarray
    union_dofs: np.ndarray
    pts: np.ndarray
    wq: np.ndarray
    piece: np.ndarray
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


def build_lifting_block(ctx: Context, eid: int) -> LiftingBlock:
    """Build the trace table of one interface edge and its lifting data.

    This is the only pass over the edge: the quadrature is laid out once, the
    chord side of each adjacent element is decided once per sub-segment, beta
    is evaluated once, and T_mat, J, P, lift_trace and the jump-correction
    action are all products against the stored arrays.
    """
    mesh = ctx.mesh
    tab = ctx.cut_table
    adj = [int(t) for t in mesh.edge_elems[eid] if t >= 0]
    rows = tab.row[adj]
    for t, r in zip(adj, rows):
        if r < 0:
            raise AssemblyError(f"edge {eid}: element {t} carries no cut data")
    n_e = mesh.edge_normals[eid]

    union: List[int] = []
    for t in adj:
        union += [int(d) for d in mesh.elem_edges[t] if int(d) not in union]
    locs = [[union.index(int(d)) for d in mesh.elem_edges[t]] for t in adj]

    x_gamma = ctx.layout.edge_splits.get(int(eid))
    ends = [mesh.nodes[mesh.edges[eid, 0]], mesh.nodes[mesh.edges[eid, 1]]]
    if x_gamma is not None:
        ends.insert(1, x_gamma)
    rule = segment_rule(EDGE_NPTS)
    seg_pts, seg_wts = [], []
    for p, q in zip(ends, ends[1:]):
        seg_len = float(np.linalg.norm(q - p))
        if seg_len > 0.0:
            seg_pts.append(p + rule.points * (q - p))
            seg_wts.append(rule.weights * seg_len)
    pts = np.concatenate(seg_pts)
    wq = np.concatenate(seg_wts)
    mids = np.array([seg.mean(axis=0) for seg in seg_pts])
    piece = np.array([np.repeat(ctx.layout.cuts[t].side_of(mids) < 0, len(rule.weights))
                      for t in adj]).astype(int)
    xs = pts if x_gamma is None else np.vstack([pts, x_gamma])
    bp, bm = ctx.prob.beta_plus(xs), ctx.prob.beta_minus(xs)
    beta = np.where(piece == 0, bp[:len(wq)], bm[:len(wq)])
    beta_gamma = None if x_gamma is None else max(float(bp[-1]), float(bm[-1]))

    nb = tab.coef.shape[1] - 1
    dim = len(adj) * nb
    avg = 1.0 if len(adj) == 1 else 0.5
    M = np.zeros((dim, dim))
    G = np.zeros((dim, dim))
    D_mat = np.zeros((dim, len(union)))
    psi = np.zeros((dim, len(wq)))
    jump = np.zeros((len(union), len(wq)))
    for i, (sgn, r, loc, pc, beta_t) in enumerate(zip((1.0, -1.0), rows, locs, piece, beta)):
        blk = slice(i * nb, (i + 1) * nb)
        vals, grads = evaluate(tab.coef[r][:, pc], pts, tab.centers[r], mesh.kappa)
        M[blk, blk] = tab.M[r]
        G[blk, blk] = tab.G[r]
        D_mat[blk, loc] = tab.C.T
        psi[blk] = avg * beta_t * (grads[:nb] @ n_e)
        jump[loc] += sgn * vals

    cond = np.linalg.cond(M)
    if not np.isfinite(cond) or cond > 1e12:
        raise AssemblyError(f"lifting Gram matrix ill-conditioned on edge {eid} "
                            f"(cond={cond:.2e})")
    psi_w = psi * wq
    return LiftingBlock(int(eid), tuple(adj), rows, np.array(union), pts, wq, piece, beta,
                        psi, jump, psi_w @ jump.T, D_mat, M, G,
                        (jump * wq) @ jump.T, psi_w @ psi.T,
                        float(mesh.edge_lengths[eid]), x_gamma, beta_gamma)


def lift_trace(block: LiftingBlock, trace: Callable) -> np.ndarray:
    """Lift a scalar edge trace: returns gradient-space coefficients solving
    int beta r_e . w = int_e {beta w . n_e} trace for every w."""
    return block.lift(block.psi @ (block.wq * np.asarray(trace(block.pts), float)))


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
    blocks = []
    for cl in ctx.classes:
        K = np.empty((len(cl.ids),) + cl.gouter.shape[1:])
        for s, pts in cl.blocks():
            beta = piecewise(ctx.layout.classes[cl.ids[s]], ctx.prob.beta_plus,
                             ctx.prob.beta_minus, pts)
            K[s] = np.einsum("eq,q,qij->eij", beta, cl.wts, cl.gouter)
        blocks.append((mesh.elem_edges[cl.ids], K))
    blocks.append((mesh.elem_edges[ctx.cut_table.ids], ctx.cut_table.K))
    rows = [np.repeat(conn, conn.shape[1], axis=1).ravel() for conn, _ in blocks]
    cols = [np.tile(conn, (1, conn.shape[1])).ravel() for conn, _ in blocks]
    return rows, cols, [K.ravel() for _, K in blocks]


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
             correction: Optional[np.ndarray] = None) -> AssembledSystem:
    """Assemble the symmetric system and right-hand side for one method.

    correction holds the (n_cut, 2, 4) coefficients of the piecewise fields
    absorbing nonhomogeneous interface jumps, rows as in ctx.cut_table; their
    full bilinear-form action moves to the right-hand side.
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
                     EDGE_NPTS)
    rhs = b[free] - A[free][:, constrained] @ g_c
    return AssembledSystem(A[free][:, free], rhs, free, constrained, g_c, n)


def assemble_rhs(ctx: Context, method: str, eta: Optional[float] = None,
                 correction: Optional[np.ndarray] = None,
                 edge_blocks=None) -> np.ndarray:
    """Load vector int f phi_i; for nonhomogeneous flux jumps this includes
    the interface load int_chord g_N phi_i, and the full bilinear action of
    the supplied jump correction moves to the right-hand side."""
    mesh = ctx.mesh
    tab = ctx.cut_table
    b = np.zeros(mesh.n_edges)
    for cl in ctx.classes:
        for s, pts in cl.blocks():
            loc = np.einsum("eq,q,qi->ei", ctx.prob.f(pts), cl.wts, cl.vals)
            np.add.at(b, mesh.elem_edges[cl.ids[s]].ravel(), loc.ravel())
    dofs = mesh.elem_edges[tab.ids]
    np.add.at(b, dofs, tab.per_element(tab.vals * (tab.wts * ctx.prob.f(tab.pts))[:, None]))

    if not ctx.prob.homogeneous_jumps:
        # the flux jump loads the chord: test functions are continuous across
        # it, so the plus piece's trace applies
        rule = segment_rule(EDGE_NPTS)
        D, E = tab.chords[:, 0], tab.chords[:, 1]
        pts = D[:, None, :] + rule.points[None, :, :] * (E - D)[:, None, :]
        gn = np.asarray(ctx.prob.g_N(pts), float)
        vals, _ = evaluate(tab.coef[:, None, :, 0], pts[:, :, None, :],
                           tab.centers[:, None, None, :], mesh.kappa)
        loads = np.einsum("q,cq,cqm->cm", rule.weights, gn, vals)
        np.add.at(b, dofs, -np.linalg.norm(E - D, axis=1)[:, None] * loads)

    if correction is not None:
        _subtract_correction_action(ctx, b, method, eta, correction, edge_blocks)
    return b


def _subtract_correction_action(ctx: Context, b, method, eta, correction, edge_blocks):
    mesh = ctx.mesh
    tab = ctx.cut_table
    # volume part: int beta grad(uJ) . grad(phi_a) on every cut element
    _, gJ = evaluate(correction[tab.owner, tab.piece], tab.pts, tab.centers[tab.owner],
                     mesh.kappa)
    loc = np.einsum("q,qd,qmd->qm", tab.wts * tab.beta, gJ, tab.grads)
    np.add.at(b, mesh.elem_edges[tab.ids], -tab.per_element(loc))
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
        for sgn, r, pc, beta in zip((1.0, -1.0), block.rows, block.piece, block.beta):
            vJ, gJ = evaluate(correction[r, pc], block.pts, tab.centers[r], mesh.kappa)
            juJ += sgn * vJ
            avgJ += avg * beta * (gJ @ n_e)
        wjuJ = block.wq * juJ
        contrib = _edge_form(block, method, eta, block.psi @ wjuJ,
                             block.jump @ (block.wq * avgJ), block.jump @ wjuJ)
        b[block.union_dofs] -= contrib


def build_jump_correction(ctx: Context) -> np.ndarray:
    """Coefficients (n_cut, 2, 4) of the correction fields for nonhomogeneous
    interface jumps, rows as in ctx.cut_table; g_D and g_N are each called
    once, on all chord endpoints."""
    tab = ctx.cut_table
    g_D = np.asarray(ctx.prob.g_D(tab.chords), float)
    g_N = np.asarray(ctx.prob.g_N(tab.chords), float)
    return np.array([jump_correction_local(basis, d, n)
                     for basis, d, n in zip(tab.bases, g_D, g_N)]).reshape(-1, 2, 4)


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
          rtol: float = 1e-12) -> Tuple[np.ndarray, Optional[np.ndarray], int]:
    """Assemble and solve by ``solve_spd``; returns (full DOF vector,
    correction fields, iterations), the last always 0 for the direct solve."""
    correction = None
    if not ctx.prob.homogeneous_jumps:
        correction = build_jump_correction(ctx)
    system = assemble(ctx, method, eta=eta, correction=correction)
    x_free, iters = solve_spd(system, rtol=rtol)
    return system.expand(x_free), correction, iters
