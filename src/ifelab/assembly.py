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
jump-correction action and the error norms. All interface edges live in
one EdgeTable: their stacked trace tables, from which every edge term is
formed for all edges at once. The lifting solve and the volume
form share the element Gram matrices, so the discrete coercivity bound
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
    _dof_rows,
    _solve_local,
    edge_means,
    evaluate,
    jump_corrections,
    standard_local_basis,
)
from .mesh import UnfittedMesh
from .problems import piecewise
from .quadrature import polygon_points_weights, polygons_points_weights, segment_rule

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


class SolverMemoryError(SolverError):
    """The factorization could not allocate its fill-in."""


@dataclass
class CutTable:
    """Immersed bases and sub-polygon quadrature of every interface element.

    One batched dense solve (ife_space._solve_local) gives the basis
    coefficients of all rows. Element rows follow layout.cuts. Quadrature
    point q lies in element ids[owner[q]], in its plus (piece[q] = 0) or
    minus (piece[q] = 1) sub-polygon; each element's points are contiguous
    from starts[row]. The edge terms read the per-element arrays of this
    table through the EdgeTable of the interface edges.
    """

    ids: np.ndarray         # (n_cut,) element ids
    row: np.ndarray         # (n_elements,) table row of each element, -1 if uncut
    coef: np.ndarray        # (n_cut, m, 2, 4) basis coefficients
    centers: np.ndarray     # (n_cut, 2) monomial centres
    chords: np.ndarray      # (n_cut, 2, 2) chord endpoints D, E
    normals: np.ndarray     # (n_cut, 2) chord normals n_h
    beta_c: np.ndarray      # (n_cut, 2) beta+- at the chord midpoint, as in the bases
    dof_rows: np.ndarray    # (n_cut, m, 2, 4) piecewise edge means of the monomials
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
    (the basis coefficients) and once on the quadrature points. All
    sub-polygons are integrated by one batched fan-triangulation rule.
    """
    cuts = list(layout.cuts.values())
    ids = np.array(list(layout.cuts), dtype=int)
    m = 3 if kind == CR else 4
    mids = np.array([c.x_p for c in cuts]).reshape(-1, 2)
    beta_c = np.column_stack([prob.beta_plus(mids), prob.beta_minus(mids)]).reshape(-1, 2)
    dof_rows = _dof_rows(cuts, mesh.kappa) if cuts else np.zeros((0, m, 2, 4))
    coef = _solve_local(cuts, kind, beta_c, mesh.kappa, dof_rows) if cuts else dof_rows
    centers = np.array([c.vertices.mean(axis=0) for c in cuts]).reshape(-1, 2)
    chords = np.array([[c.D, c.E] for c in cuts]).reshape(-1, 2, 2)
    normals = np.array([c.n_h for c in cuts]).reshape(-1, 2)
    row = np.full(mesh.n_elements, -1)
    row[ids] = np.arange(len(ids))

    # sub-polygons in the order (plus, minus) of each element
    polys = [poly for c in cuts for poly in (c.poly_plus, c.poly_minus)]
    sizes = np.array([len(poly) for poly in polys], dtype=int)
    pts, wts, counts = polygons_points_weights(
        np.concatenate([np.zeros((0, 2))] + polys), sizes, VOLUME_DEGREE)
    owner = np.repeat(np.arange(len(polys)) // 2, counts)
    piece = np.repeat(np.arange(len(polys)) % 2, counts)
    starts = (np.cumsum(counts) - counts)[::2]
    beta = piecewise(1 - 2 * piece, prob.beta_plus, prob.beta_minus, pts)
    vals, grads = evaluate(coef[owner, :, piece], pts[:, None, :],
                           centers[owner][:, None, :], mesh.kappa)

    nw = m - 1  # gradient space: gradients of the first m-1 basis functions
    gram = np.einsum("qkd,qld->qkl", grads[:, :nw], grads[:, :nw])
    M = np.add.reduceat((wts * beta)[:, None, None] * gram, starts, axis=0)
    G = np.add.reduceat(wts[:, None, None] * gram, starts, axis=0)
    C = np.vstack([np.eye(nw), -np.ones(nw)])  # gradients sum to zero
    return CutTable(ids, row, coef, centers, chords, normals, beta_c, dof_rows, pts, wts,
                    owner, piece, starts, beta, vals, grads, M, G, C, C @ M @ C.T)


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

    One batched dense solve builds the immersed bases of every cut element,
    triangles and rectangles alike.
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
class EdgeTable:
    """Trace tables and lifting data of a set of interface edges, stacked.

    Every interface edge is an open crossing, so its quadrature is the
    EDGE_NPTS-point rule on each of the two sub-segments that meet at the
    crossing x_gamma: nq = 2 EDGE_NPTS points per edge. The adjacent
    elements fill two slots, the second one empty (elems -1, sign 0) on a
    boundary edge. The union DOFs are the first element's edges in local
    order followed by the second element's other edges, 2m-1 slots, the
    last m-1 of them -1 on a boundary edge; the rows and columns of padded
    slots and of empty element slots are zero. Every edge term is a product
    against these arrays (W = diag(wq), avg = 1/2, or 1 on a boundary edge):

    pts, wq     (n, nq, 2) points and (n, nq) weights
    rows        (n, 2) cut-table row of each adjacent element (0 if empty)
    piece, beta (n, 2, nq) piece (0 plus, 1 minus) of each adjacent element
                and its coefficient at every point (one piece per sub-segment)
    psi         (n, dim, nq) weighted normal traces avg beta w_k . n_e of the
                gradient-space fields w_k = grad(phi_k) of both elements,
                dim = 2 (m-1)
    jump        (n, 2m-1, nq) basis jumps [phi_a] of the union DOFs
    T_mat[k, a] = int_e {beta w_k . n_e} [phi_a] = psi W jump^T
    J           = int_e [phi_a][phi_b] = jump W jump^T
    P           = int_e psi_k psi_l = psi W psi^T
    D_mat[k, a] = coefficient of w_k in grad(phi_a) on its element
    M, G        = beta-weighted and unweighted int w_k . w_l over the
                adjacent elements (block diagonal)
    beta_gamma  max beta+-(x_gamma) at the interface crossing, the scale of
                the default ppifem penalty
    """

    edge_ids: np.ndarray
    elems: np.ndarray
    rows: np.ndarray
    sign: np.ndarray        # (n, 2) +1, -1 for the adjacent elements, 0 if empty
    union: np.ndarray
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
    length: np.ndarray
    x_gamma: np.ndarray
    beta_gamma: np.ndarray

    @property
    def avg(self) -> np.ndarray:
        """Weight of each trace in an edge average: 1/2, or 1 on a boundary edge."""
        return np.where(self.elems[:, 1] >= 0, 0.5, 1.0)

    def lift(self, moments: np.ndarray) -> np.ndarray:
        """Gradient-space coefficients M^-1 moments (n, dim, k) of the lifted
        traces, solved in one stack per number of adjacent elements."""
        out = np.zeros_like(moments)
        for sel, dim in _groups(self.elems[:, 1] >= 0, self.M.shape[1]):
            out[sel, :dim] = np.linalg.solve(self.M[sel, :dim, :dim], moments[sel, :dim])
        return out

    def block(self, i: int) -> "LiftingBlock":
        """Row i, trimmed to the edge's own elements and union DOFs."""
        ne = 2 if self.elems[i, 1] >= 0 else 1
        d = ne * (self.M.shape[1] // 2)
        u = int((self.union[i] >= 0).sum())
        return LiftingBlock(int(self.edge_ids[i]), tuple(int(t) for t in self.elems[i, :ne]),
                            self.rows[i, :ne], self.union[i, :u], self.pts[i], self.wq[i],
                            self.piece[i, :ne], self.beta[i, :ne], self.psi[i, :d],
                            self.jump[i, :u], self.T_mat[i, :d, :u], self.D_mat[i, :d, :u],
                            self.M[i, :d, :d], self.G[i, :d, :d], self.J[i, :u, :u],
                            self.P[i, :d, :d], float(self.length[i]), self.x_gamma[i],
                            float(self.beta_gamma[i]))


def _groups(two: np.ndarray, dim: int):
    """(mask, Gram size) of the edges with two and with one adjacent element."""
    return [(sel, d) for sel, d in ((two, dim), (~two, dim // 2)) if sel.any()]


@dataclass
class LiftingBlock:
    """Trace table and lifting data of one interface edge: one row of an
    EdgeTable, with the fields described there trimmed to the edge's own
    n_elem adjacent elements and union DOFs (psi (n_elem (m-1), nq), jump
    (n_union, nq), piece and beta (n_elem, nq))."""

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
    beta_gamma: float

    def lift(self, moments: np.ndarray) -> np.ndarray:
        """Gradient-space coefficients of the lifted trace with given moments."""
        return np.linalg.solve(self.M, moments)


def build_edge_table(ctx: Context, eids) -> EdgeTable:
    """Build the trace tables and lifting data of the interface edges eids.

    This is the only pass over the edges: the quadrature is laid out once,
    the chord side of each adjacent element is decided once per sub-segment,
    beta_plus and beta_minus are each called once on all edge points and
    crossings, and the edge forms, lift_trace and the jump-correction action
    are all products against the stored arrays. Raises AssemblyError naming
    the first edge that is not an interface edge, touches an element without
    cut data or has an ill-conditioned lifting Gram matrix.
    """
    mesh = ctx.mesh
    layout = ctx.layout
    tab = ctx.cut_table
    eids = np.asarray(eids, dtype=int).reshape(-1)
    n = len(eids)
    at = np.searchsorted(layout.interface_edges, eids)
    known = np.append(layout.interface_edges, -1)[at] == eids
    if not known.all():
        raise AssemblyError(f"edge {eids[~known][0]} is not an interface edge")
    elems = mesh.edge_elems[eids]
    rows = np.where(elems >= 0, tab.row[elems], 0)
    missing = (elems >= 0) & (tab.row[elems] < 0)
    if missing.any():
        e, i = np.argwhere(missing)[0]
        raise AssemblyError(f"edge {eids[e]}: element {elems[e, i]} carries no cut data")
    two = elems[:, 1] >= 0
    sign = np.where(elems >= 0, [1.0, -1.0], 0.0)
    n_e = mesh.edge_normals[eids]

    # quadrature on the sub-segments a -> x_gamma -> b
    x_gamma = layout.crossings[at].reshape(-1, 2)
    ends = np.stack([mesh.nodes[mesh.edges[eids, 0]], x_gamma,
                     mesh.nodes[mesh.edges[eids, 1]]], axis=1)
    rule = segment_rule(EDGE_NPTS)
    nq = 2 * EDGE_NPTS
    p, q = ends[:, :2], ends[:, 1:]
    pts = (p[:, :, None] + rule.points * (q - p)[:, :, None]).reshape(n, nq, 2)
    v = (q - p)[..., None]
    # lengths by a stacked matmul, which rounds as np.linalg.norm does per vector
    wq = (rule.weights * np.sqrt(v.swapaxes(-1, -2) @ v)[..., 0]).reshape(n, nq)
    mid = 0.5 * (p + q)
    D = tab.chords[rows, 0]  # (n, 2 elements, 2)
    side = np.einsum("eisd,eid->eis", mid[:, None] - D[:, :, None], tab.normals[rows])
    piece = np.repeat(side < 0, EDGE_NPTS, axis=2).astype(int)
    xs = np.concatenate([pts.reshape(-1, 2), x_gamma])
    bp, bm = ctx.prob.beta_plus(xs), ctx.prob.beta_minus(xs)
    beta = np.where(piece == 0, bp[:n * nq].reshape(n, 1, nq), bm[:n * nq].reshape(n, 1, nq))
    beta = np.where(elems[:, :, None] >= 0, beta, 0.0)
    beta_gamma = np.maximum(bp[n * nq:], bm[n * nq:])

    # traces of both elements' bases, element slot by slot
    m = tab.coef.shape[1]
    nb = m - 1
    vals, grads = evaluate(tab.coef[rows[:, :, None], :, piece], pts[:, None, :, None, :],
                           tab.centers[rows][:, :, None, None, :], mesh.kappa)
    avg = np.where(two, 0.5, 1.0)
    normal = (np.moveaxis(grads[..., :nb, :], 3, 2) @ n_e[:, None, None, :, None])[..., 0]
    psi = ((avg[:, None, None, None] * beta[:, :, None, :]) * normal).reshape(n, 2 * nb, nq)

    # union slots of each element's local edges: the first element's edges
    # come first, the second element's shared edge sits where the first has it
    j = np.arange(m)
    own = mesh.elem_edges[elems[:, 0]]
    other = mesh.elem_edges[np.where(two, elems[:, 1], elems[:, 0])]
    j1 = np.argmax(own == eids[:, None], axis=1)
    j2 = np.argmax(other == eids[:, None], axis=1)
    loc = np.stack([np.broadcast_to(j, (n, m)),
                    np.where(j == j2[:, None], j1[:, None], m + j - (j > j2[:, None]))], axis=1)
    k = np.arange(m - 1)
    rest = np.take_along_axis(other, k + (k >= j2[:, None]), axis=1)
    union = np.concatenate([own, np.where(two[:, None], rest, -1)], axis=1)
    eidx = np.arange(n)[:, None]
    jump = np.zeros((n, 2 * m - 1, nq))
    D_mat = np.zeros((n, 2 * nb, 2 * m - 1))
    M = np.zeros((n, 2 * nb, 2 * nb))
    G = np.zeros((n, 2 * nb, 2 * nb))
    for i in (0, 1):
        present = (elems[:, i, None, None] >= 0).astype(float)
        jump[eidx, loc[:, i]] += sign[:, i, None, None] * np.moveaxis(vals[:, i], 1, 2)
        blk = slice(i * nb, (i + 1) * nb)
        D_mat[eidx[:, :, None], np.arange(blk.start, blk.stop)[:, None], loc[:, i, None, :]] = \
            present * tab.C.T
        M[:, blk, blk] = present * tab.M[rows[:, i]]
        G[:, blk, blk] = present * tab.G[rows[:, i]]

    cond = np.zeros(n)
    for sel, dim in _groups(two, 2 * nb):
        cond[sel] = np.linalg.cond(M[sel, :dim, :dim])
    bad = ~(np.isfinite(cond) & (cond <= 1e12))
    if bad.any():
        e = int(np.argmax(bad))
        raise AssemblyError(f"lifting Gram matrix ill-conditioned on edge {eids[e]} "
                            f"(cond={cond[e]:.2e})")
    psi_w = psi * wq[:, None, :]
    jump_t = jump.transpose(0, 2, 1)
    return EdgeTable(eids, elems, rows, sign, union, pts, wq, piece, beta, psi, jump,
                     psi_w @ jump_t, D_mat, M, G, (jump * wq[:, None, :]) @ jump_t,
                     psi_w @ psi.transpose(0, 2, 1), mesh.edge_lengths[eids], x_gamma,
                     beta_gamma)


def build_lifting_block(ctx: Context, eid: int) -> LiftingBlock:
    """Trace table and lifting data of one interface edge: row 0 of
    build_edge_table on that edge alone."""
    return build_edge_table(ctx, [eid]).block(0)


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


def _edge_form(edges: EdgeTable, method: str, eta: Optional[float],
               moments, fluxes, jumps):
    """Interface-edge terms of one method against every union basis function.

    The k trial fields u of each edge enter through moments = psi W [u]
    (n, dim, k), fluxes = [phi] W {beta grad(u) . n_e} and jumps =
    [phi] W [u] (n, 2m-1, k). The consistency term is -(fluxes + D^T
    moments); the stabilization is 4 T^T M^-1 moments for 'new' and
    (eta_e/|e|) jumps for 'ppifem', with eta_e defaulting to
    10 beta_gamma = 10 max beta+-(x_gamma).
    """
    out = -(fluxes + edges.D_mat.transpose(0, 2, 1) @ moments)
    if method == "new":
        return out + 4.0 * edges.T_mat.transpose(0, 2, 1) @ edges.lift(moments)
    if eta is None:
        eta = 10.0 * edges.beta_gamma
    return out + (eta / edges.length)[:, None, None] * jumps


def _edge_matrices(edges: EdgeTable, method: str, eta: Optional[float]) -> np.ndarray:
    """Consistency + stabilization matrices (n, 2m-1, 2m-1) of the edges,
    rows and columns over their union DOFs."""
    return _edge_form(edges, method, eta, edges.T_mat,
                      edges.T_mat.transpose(0, 2, 1) @ edges.D_mat, edges.J)


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
    edges = None
    if method in ("new", "ppifem"):
        edges = build_edge_table(ctx, ctx.layout.interface_edges)
        mats = _edge_matrices(edges, method, eta)
        # padded union slots hold no DOF and are dropped
        r = np.broadcast_to(edges.union[:, :, None], mats.shape)
        c = np.broadcast_to(edges.union[:, None, :], mats.shape)
        keep = (r >= 0) & (c >= 0)
        rows.append(r[keep])
        cols.append(c[keep])
        data.append(mats[keep])

    A = sp.coo_matrix((np.concatenate(data),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    asym = abs(A - A.T).max()
    scale = abs(A).max()
    if asym > 1e-12 * scale:
        raise AssemblyError(f"assembled matrix asymmetric: {asym:.3e} vs scale {scale:.3e}")
    A = 0.5 * (A + A.T)

    b = assemble_rhs(ctx, method, eta=eta, correction=correction, edge_blocks=edges)

    boundary = mesh.boundary_edges
    free = np.nonzero(~boundary)[0]
    constrained = np.nonzero(boundary)[0]
    g_c = edge_means(ctx.prob.g_boundary, mesh, ctx.layout, constrained, EDGE_NPTS)
    rhs = b[free] - A[free][:, constrained] @ g_c
    return AssembledSystem(A[free][:, free], rhs, free, constrained, g_c, n)


def assemble_rhs(ctx: Context, method: str, eta: Optional[float] = None,
                 correction: Optional[np.ndarray] = None,
                 edge_blocks=None) -> np.ndarray:
    """Load vector int f phi_i; for nonhomogeneous flux jumps this includes
    the interface load int_chord g_N phi_i, and the full bilinear action of
    the supplied jump correction moves to the right-hand side.

    edge_blocks may pass the EdgeTable of ctx's interface edges that the
    caller already built; anything else (None, or a list of per-edge
    LiftingBlocks) makes the correction action build its own.
    """
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
    """Subtract the bilinear-form action on every test function of the jump
    correction: its volume part on every cut element, then its edge terms
    on the interface edges, all edges at once."""
    mesh = ctx.mesh
    tab = ctx.cut_table
    # volume part: int beta grad(uJ) . grad(phi_a) on every cut element
    _, gJ = evaluate(correction[tab.owner, tab.piece], tab.pts, tab.centers[tab.owner],
                     mesh.kappa)
    loc = np.einsum("q,qd,qmd->qm", tab.wts * tab.beta, gJ, tab.grads)
    np.add.at(b, mesh.elem_edges[tab.ids], -tab.per_element(loc))
    if method == "plain":
        return

    edges = edge_blocks
    if not isinstance(edges, EdgeTable):
        edges = build_edge_table(ctx, ctx.layout.interface_edges)
    # jump of uJ and average of its weighted normal derivative
    vJ, gJ = evaluate(correction[edges.rows[:, :, None], edges.piece], edges.pts[:, None],
                      tab.centers[edges.rows][:, :, None], mesh.kappa)
    juJ = np.einsum("ei,eiq->eq", edges.sign, vJ)
    flux = (gJ @ mesh.edge_normals[edges.edge_ids, None, :, None])[..., 0]
    avgJ = (edges.avg[:, None, None] * edges.beta * flux).sum(axis=1)
    wjuJ = (edges.wq * juJ)[..., None]
    contrib = _edge_form(edges, method, eta, edges.psi @ wjuJ,
                         edges.jump @ (edges.wq * avgJ)[..., None], edges.jump @ wjuJ)
    dof = edges.union >= 0
    np.subtract.at(b, edges.union[dof], contrib[..., 0][dof])


def build_jump_correction(ctx: Context) -> np.ndarray:
    """Coefficients (n_cut, 2, 4) of the correction fields for nonhomogeneous
    interface jumps, rows as in ctx.cut_table; g_D and g_N are each called
    once, on all chord endpoints."""
    tab = ctx.cut_table
    g_D = np.asarray(ctx.prob.g_D(tab.chords), float).reshape(-1, 2)
    g_N = np.asarray(ctx.prob.g_N(tab.chords), float).reshape(-1, 2)
    return jump_corrections(tab.coef, tab.dof_rows, tab.centers, tab.chords, tab.normals,
                            tab.beta_c[:, 0], g_D, g_N)


def solve_spd(system: AssembledSystem, rtol: float = 1e-12) -> Tuple[np.ndarray, int]:
    """Sparse direct solve of the SPD system; returns (x_free, 0 iterations).

    SuperLU factors P A P^T = L U with a symmetric minimum-degree ordering and
    diagonal pivots only, so U = D L^T and, by Sylvester's law of inertia, A is
    SPD exactly when no off-diagonal pivot was taken and every pivot is
    positive. The true residual ||b - Ax|| / ||b|| must then be at most
    10 (rtol + eps || |A| |x| || / ||b||), the second term being the rounding
    floor of evaluating it in float64. Raises SolverError when A is not SPD,
    is singular or misses that bound, and its subclass SolverMemoryError when
    the factorization runs out of memory; the error carries the achieved
    relative residual.
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
    # no solution is formed when the factorization fails, so the achieved
    # residual is that of x = 0
    try:
        lu = splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except MemoryError as err:
        raise SolverMemoryError(f"out of memory in the factorization: {err}",
                                residual=1.0) from err
    except RuntimeError as err:
        # SuperLU reports allocation failures ("SUPERLU_MALLOC fails for ...",
        # "Not enough memory ...") as RuntimeError, like a singular factor
        msg = str(err).lower()
        if "malloc" in msg or "memory" in msg:
            raise SolverMemoryError(f"out of memory in the factorization: {err}",
                                    residual=1.0) from err
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
          rtol: float = 1e-12) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """Assemble and solve by ``solve_spd``; returns (DOF vector, correction fields)."""
    correction = None
    if not ctx.prob.homogeneous_jumps:
        correction = build_jump_correction(ctx)
    system = assemble(ctx, method, eta=eta, correction=correction)
    x_free, _ = solve_spd(system, rtol=rtol)
    return system.expand(x_free), correction
