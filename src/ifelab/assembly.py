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
formed for all edges at once. An edge term is formed against the m basis
functions of each adjacent element, 2m DOF slots per edge; the edge's own
DOF fills one slot in each element, and since every term is bilinear the
sparse assembly sums the two, as it sums any duplicate entry. The lifting
solve and the volume form share the element Gram matrices, so the discrete
coercivity bound A(v,v) >= 0.5*a_vol(v,v) holds to roundoff by
construction. Jumps are oriented as (trace from T1) - (trace from T2) with
the edge normal pointing out of T1; boundary edges use the single trace for
both average and jump.

The SPD solve eliminates a set of pairwise non-adjacent DOFs exactly, by one
division each, and factors only the Schur complement on the rest with
SuperLU. On the right-triangle meshes of the CR element the legs couple only
to the hypotenuses beside them, so away from the interface they form such a
set: two thirds of the DOFs, which SuperLU then never sees.

scipy is imported inside the function that uses it, so that importing
ifelab and validating a problem load numpy alone; a test in test_cli.py
enforces this.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

from .cutting import CutLayout, build_layout
from .geometry import INTERFACE, INTERIOR_MINUS, INTERIOR_PLUS
from .ife_space import (
    EDGE_NPTS,
    _dof_rows,
    _solve_local,
    check_kind,
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

    Element rows are the rows of the Cuts batch layout.cuts. One batched
    dense solve (ife_space._solve_local) gives the basis coefficients of all
    rows, and one batched fan rule integrates the sub-polygons as that batch
    stacks them. Quadrature point q lies in element ids[owner[q]], in its
    plus (piece[q] = 0) or minus (piece[q] = 1) sub-polygon; each element's
    points are contiguous from starts[row]. The edge terms read the
    per-element arrays of this table, M among them, through the EdgeTable of
    the interface edges; the unweighted Gram is not stored.
    """

    ids: np.ndarray         # (n_cut,) element ids
    row: np.ndarray         # (n_elements,) table row of each element, -1 if uncut
    coef: np.ndarray        # (n_cut, m, 2, 4) basis coefficients
    centers: np.ndarray     # (n_cut, 2) monomial centres
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
    M: np.ndarray           # (n_cut, m-1, m-1) beta-weighted Gram of the gradient space
    C: np.ndarray           # (m, m-1) gradient-space coefficients of each basis fn
    K: np.ndarray           # (n_cut, m, m) element stiffness = C M C^T

    def per_element(self, x: np.ndarray) -> np.ndarray:
        """Sums of the point rows x (nq, ...) over each element: (n_cut, ...)."""
        return np.add.reduceat(x, self.starts, axis=0)


@dataclass
class ClassCtx:
    """Reference data for the uncut elements of one congruence class that lie
    on one side of the interface.

    Each element is a translate of the reference element by its shift, and
    all of them take the branch of the problem data on side, the class that
    the layout gives them (its centroid's sign of phi). So the volume form,
    the load vector and the error norms call that branch's callables on
    whole blocks of points, with no level-set evaluation and no gather.
    """

    ids: np.ndarray
    side: int               # INTERIOR_PLUS or INTERIOR_MINUS
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
        millions of points through memory.

        Each element's points are one row of 2 nq values, its shift tiled nq
        times plus the flattened reference points. Those are the sums of the
        (e, 1, 2) + (1, nq, 2) broadcast, bit for bit, without that
        broadcast's inner loop of length 2, which costs several times as
        much per block."""
        nq = len(self.wts)
        step = max(1, BLOCK_POINTS // nq)
        row = self.pts.ravel()
        for start in range(0, len(self.ids), step):
            s = slice(start, start + step)
            yield s, (np.tile(self.shifts[s], nq) + row).reshape(-1, nq, 2)

    def branch(self, plus: Callable, minus: Callable) -> Callable:
        """The callable of this class's side: plus or minus."""
        return plus if self.side == INTERIOR_PLUS else minus


@dataclass
class Context:
    """Everything assembled forms need for one (problem, mesh) pair."""

    prob: object
    mesh: UnfittedMesh
    layout: CutLayout
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


def _build_cut_table(prob, mesh, layout) -> CutTable:
    """Bases, quadrature and Gram matrices of all cut elements at once.

    beta_plus and beta_minus are each called once on the chord midpoints
    (the basis coefficients) and once on the quadrature points. All
    sub-polygons are integrated by one batched fan-triangulation rule.
    """
    cuts = layout.cuts
    ids = cuts.ids
    mids = 0.5 * (cuts.D + cuts.E)
    beta_c = np.column_stack([prob.beta_plus(mids), prob.beta_minus(mids)]).reshape(-1, 2)
    dof_rows = _dof_rows(cuts, mesh.kappa)
    coef = _solve_local(cuts, beta_c, mesh.kappa, dof_rows)
    centers = cuts.vertices.mean(axis=1)
    row = np.full(mesh.n_elements, -1)
    row[ids] = np.arange(len(ids))

    # sub-polygons in the order (plus, minus) of each element
    pts, wts, counts = polygons_points_weights(cuts.polys, cuts.sizes.ravel(), VOLUME_DEGREE)
    owner = np.repeat(np.arange(2 * len(ids)) // 2, counts)
    piece = np.repeat(np.arange(2 * len(ids)) % 2, counts)
    starts = (np.cumsum(counts) - counts)[::2]
    beta = piecewise(1 - 2 * piece, prob.beta_plus, prob.beta_minus, pts)
    vals, grads = evaluate(coef[owner, :, piece], pts[:, None, :],
                           centers[owner][:, None, :], mesh.kappa)

    nw = coef.shape[1] - 1  # gradient space: gradients of the first m-1 basis fns
    gram = np.einsum("qkd,qld->qkl", grads[:, :nw], grads[:, :nw])
    M = np.add.reduceat((wts * beta)[:, None, None] * gram, starts, axis=0)
    C = np.vstack([np.eye(nw), -np.ones(nw)])  # gradients sum to zero
    return CutTable(ids, row, coef, centers, beta_c, dof_rows, pts, wts,
                    owner, piece, starts, beta, vals, grads, M, C, C @ M @ C.T)


def _build_class_ctxs(mesh, ids, sides) -> List[ClassCtx]:
    """The uncut elements ids of one congruence class, split by their sides;
    both parts share the reference data of the class's first element."""
    ref = mesh.element_vertices(int(ids[0]))
    pts, wts = polygon_points_weights(ref, VOLUME_DEGREE)
    lam = standard_local_basis(ref, kappa=mesh.kappa)
    vals, grads = evaluate(lam, pts[:, None, :], ref.mean(axis=0), mesh.kappa)
    gouter = np.einsum("qid,qjd->qij", grads, grads)
    parts = [(side, ids[sides == side]) for side in (INTERIOR_PLUS, INTERIOR_MINUS)]
    return [ClassCtx(part, side, mesh.nodes[mesh.elements[part, 0]] - ref[0], pts, wts,
                     vals, grads, gouter) for side, part in parts if part.size]


def build_context(prob, mesh: UnfittedMesh, kind: str,
                  layout: Optional[CutLayout] = None) -> Context:
    """Classify the mesh against the problem's interface and cache local data.

    One batched dense solve builds the immersed bases of every cut element,
    triangles and rectangles alike. The uncut elements of each congruence
    class are split by their layout side into one ClassCtx per side. The
    mesh decides the element; kind is only held against it by check_kind.
    """
    check_kind(kind, mesh.elements.shape[1])
    if layout is None:
        layout = build_layout(mesh, prob.levelset)
    classes = []
    for ids in mesh.congruence_classes():
        sides = layout.classes[ids]
        uncut = sides != INTERFACE
        if uncut.any():
            classes += _build_class_ctxs(mesh, ids[uncut], sides[uncut])
    return Context(prob, mesh, layout, _build_cut_table(prob, mesh, layout), classes)


# ---------------------------------------------------------------------------
# edge machinery


@dataclass
class EdgeTable:
    """Trace tables and lifting data of a set of interface edges, stacked.

    Every interface edge is an open crossing, so its quadrature is the
    EDGE_NPTS-point rule on each of the two sub-segments that meet at the
    crossing: nq = 2 EDGE_NPTS points per edge. The adjacent elements fill
    two element slots, the second one empty (elems -1, sign 0) on a boundary
    edge. The DOF slots are the m local edges of each element slot:
    dofs[:, i m + j] is local edge j of element i, -1 in an empty element
    slot, whose rows and columns are zero. The edge's own DOF fills one slot
    of each element, and the assembly sums the two. Every edge term is a
    product against these arrays (W = diag(wq), avg = 1/2, or 1 on a
    boundary edge):

    pts, wq     (n, nq, 2) points and (n, nq) weights
    rows        (n, 2) cut-table row of each adjacent element (0 if empty)
    piece, beta (n, 2, nq) piece (0 plus, 1 minus) of each adjacent element
                and its coefficient at every point (one piece per sub-segment)
    psi         (n, dim, nq) weighted normal traces avg beta w_k . n_e of the
                gradient-space fields w_k = grad(phi_k) of both elements,
                dim = 2 (m-1)
    jump        (n, 2m, nq) signed traces sign_i phi_j of the slot basis
                functions, whose slot sums are the jumps [phi_a]
    T_mat[k, a] = int_e {beta w_k . n_e} [phi_a] = psi W jump^T
    J           = int_e [phi_a][phi_b] = jump W jump^T
    M           (n, 2, m-1, m-1) beta-weighted Gram int w_k . w_l of each
                element slot, gathered from the cut table; identity in an
                empty slot. The Gram over both elements is block diagonal,
                so solves with it go slot by slot. P = psi W psi^T and the
                unweighted Gram are not stored (see lifting_stability_ratio).
    C           (m, m-1) coefficients of the w_k in each element's grad(phi_j)
    beta_gamma  max beta+- at the interface crossing, the scale of the
                default ppifem penalty
    """

    edge_ids: np.ndarray
    elems: np.ndarray
    rows: np.ndarray
    sign: np.ndarray        # (n, 2) +1, -1 for the adjacent elements, 0 if empty
    dofs: np.ndarray        # (n, 2m) global DOF of each slot, -1 if empty
    pts: np.ndarray
    wq: np.ndarray
    piece: np.ndarray
    beta: np.ndarray
    psi: np.ndarray
    jump: np.ndarray
    T_mat: np.ndarray
    M: np.ndarray
    J: np.ndarray
    C: np.ndarray
    length: np.ndarray
    beta_gamma: np.ndarray

    @property
    def avg(self) -> np.ndarray:
        """Weight of each trace in an edge average: 1/2, or 1 on a boundary edge."""
        return 1.0 / (self.elems >= 0).sum(axis=1)

    def lift(self, moments: np.ndarray) -> np.ndarray:
        """Gradient-space coefficients M^-1 moments (n, dim, k) of the lifted
        traces, one solve per element slot. An empty slot's moments are zero
        and its identity block lifts them to zero."""
        n, dim, k = moments.shape
        return np.linalg.solve(self.M, moments.reshape(n, 2, dim // 2, k)).reshape(n, dim, k)

    def to_slots(self, x: np.ndarray) -> np.ndarray:
        """D^T x for gradient-space rows x (n, dim, k), with D[k, a] the
        coefficient of w_k in grad(phi_a): C applied per element block,
        giving rows over the 2m slots."""
        n, dim, k = x.shape
        return (self.C @ x.reshape(n, 2, dim // 2, k)).reshape(n, 2 * len(self.C), k)


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
    present = elems >= 0
    rows = np.where(present, tab.row[elems], 0)
    missing = present & (tab.row[elems] < 0)
    if missing.any():
        e, i = np.argwhere(missing)[0]
        raise AssemblyError(f"edge {eids[e]}: element {elems[e, i]} carries no cut data")
    sign = np.where(present, [1.0, -1.0], 0.0)
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
    D = layout.cuts.D[rows]  # (n, 2 elements, 2)
    side = np.einsum("eisd,eid->eis", mid[:, None] - D[:, :, None], layout.cuts.n_h[rows])
    piece = np.repeat(side < 0, EDGE_NPTS, axis=2).astype(int)
    xs = np.concatenate([pts.reshape(-1, 2), x_gamma])
    bp, bm = ctx.prob.beta_plus(xs), ctx.prob.beta_minus(xs)
    beta = np.where(piece == 0, bp[:n * nq].reshape(n, 1, nq), bm[:n * nq].reshape(n, 1, nq))
    beta = np.where(present[:, :, None], beta, 0.0)
    beta_gamma = np.maximum(bp[n * nq:], bm[n * nq:])

    # traces of both elements' bases, element slot by slot
    m = tab.coef.shape[1]
    nb = m - 1
    vals, grads = evaluate(tab.coef[rows[:, :, None], :, piece], pts[:, None, :, None, :],
                           tab.centers[rows][:, :, None, None, :], mesh.kappa)
    avg = 1.0 / present.sum(axis=1)
    normal = (np.moveaxis(grads[..., :nb, :], 3, 2) @ n_e[:, None, None, :, None])[..., 0]
    psi = ((avg[:, None, None, None] * beta[:, :, None, :]) * normal).reshape(n, 2 * nb, nq)
    jump = (sign[:, :, None, None] * np.moveaxis(vals, 2, 3)).reshape(n, 2 * m, nq)
    dofs = np.where(present[:, :, None], mesh.elem_edges[elems], -1).reshape(n, 2 * m)
    M = np.where(present[:, :, None, None], tab.M[rows], np.eye(nb))

    # the condition number of the block-diagonal Gram over the present slots:
    # its extreme eigenvalues are the extremes over the blocks
    lam = np.linalg.eigvalsh(M)
    hi = lam.max(axis=(1, 2), where=present[:, :, None], initial=-np.inf)
    lo = lam.min(axis=(1, 2), where=present[:, :, None], initial=np.inf)
    cond = np.divide(hi, lo, out=np.full(n, np.inf), where=lo > 0)
    bad = ~(cond <= 1e12)
    if bad.any():
        e = int(np.argmax(bad))
        raise AssemblyError(f"lifting Gram matrix ill-conditioned on edge {eids[e]} "
                            f"(cond={cond[e]:.2e})")
    jump_t = jump.transpose(0, 2, 1)
    return EdgeTable(eids, elems, rows, sign, dofs, pts, wq, piece, beta,
                     psi, jump, (psi * wq[:, None, :]) @ jump_t, M,
                     (jump * wq[:, None, :]) @ jump_t, tab.C, mesh.edge_lengths[eids],
                     beta_gamma)


def build_lifting_block(ctx: Context, eid: int) -> EdgeTable:
    """Trace table and lifting data of one interface edge: build_edge_table
    on that edge alone."""
    return build_edge_table(ctx, [eid])


def lift_trace(edges: EdgeTable, trace: Callable) -> np.ndarray:
    """Lift a scalar edge trace on every edge: returns the gradient-space
    coefficients (n, dim) solving int beta r_e . w = int_e {beta w . n_e} trace
    for every w."""
    moments = edges.psi @ (edges.wq * np.asarray(trace(edges.pts), float))[..., None]
    return edges.lift(moments)[..., 0]


def lifting_stability_ratio(ctx: Context, edges: EdgeTable) -> np.ndarray:
    """sup over traces of ||r_e(phi)|| * |e|^(1/2) / ||phi||_L2(e), per edge.

    The supremum is attained inside the span of the moment traces psi_k, so
    it reduces to a small generalized eigenproblem on the range of
    P = psi W psi^T. P and the unweighted Gram G are formed here, their only
    reader; an empty slot's zero traces keep its rows of P out of the range.
    """
    tab = ctx.cut_table
    n, dim, _ = edges.psi.shape
    nb = dim // 2
    grads = tab.grads[:, :nb]
    G = tab.per_element(tab.wts[:, None, None] * np.einsum("qkd,qld->qkl", grads, grads))
    P = (edges.psi * edges.wq[:, None, :]) @ edges.psi.transpose(0, 2, 1)
    A = P @ edges.lift((G[edges.rows] @ edges.lift(P).reshape(n, 2, nb, dim)).reshape(P.shape))
    lam, V = np.linalg.eigh(P)
    keep = lam > 1e-12 * np.maximum(lam.max(axis=1, keepdims=True), 1e-300)
    V = np.where(keep[:, None], V / np.sqrt(np.where(keep, lam, 1.0))[:, None], 0.0)
    B = V.transpose(0, 2, 1) @ A @ V
    return np.sqrt(np.maximum(np.linalg.eigvalsh(B).max(axis=1), 0.0) * edges.length)


# ---------------------------------------------------------------------------
# global assembly


def _volume_triplets(ctx: Context):
    mesh = ctx.mesh
    blocks = []
    for cl in ctx.classes:
        beta = cl.branch(ctx.prob.beta_plus, ctx.prob.beta_minus)
        nq, m = cl.vals.shape
        gouter = cl.gouter.reshape(nq, m * m)
        K = np.empty((len(cl.ids), m, m))
        for s, pts in cl.blocks():
            # one product per element: a stacked matmul rounds each row alike
            # whatever the block size, where one GEMM over the block need not
            bw = beta(pts) * cl.wts
            K[s] = (bw[:, None, :] @ gouter).reshape(-1, m, m)
        blocks.append((mesh.elem_edges[cl.ids], K))
    blocks.append((mesh.elem_edges[ctx.cut_table.ids], ctx.cut_table.K))
    rows = [np.repeat(conn, conn.shape[1], axis=1).ravel() for conn, _ in blocks]
    cols = [np.tile(conn, (1, conn.shape[1])).ravel() for conn, _ in blocks]
    return rows, cols, [K.ravel() for _, K in blocks]


def _edge_form(edges: EdgeTable, method: str, eta: Optional[float],
               moments, fluxes, jumps):
    """Interface-edge terms of one method against every slot basis function.

    The k trial fields u of each edge enter through moments = psi W [u]
    (n, dim, k), fluxes = [phi] W {beta grad(u) . n_e} and jumps =
    [phi] W [u] (n, 2m, k). The consistency term is -(fluxes + D^T
    moments); the stabilization is 4 T^T M^-1 moments for 'new' and
    (eta_e/|e|) jumps for 'ppifem', with eta_e defaulting to
    10 beta_gamma, 10 max beta+- at the crossing.
    """
    out = -(fluxes + edges.to_slots(moments))
    if method == "new":
        return out + 4.0 * edges.T_mat.transpose(0, 2, 1) @ edges.lift(moments)
    if eta is None:
        eta = 10.0 * edges.beta_gamma
    return out + (eta / edges.length)[:, None, None] * jumps


def _edge_matrices(edges: EdgeTable, method: str, eta: Optional[float]) -> np.ndarray:
    """Consistency + stabilization matrices (n, 2m, 2m) of the edges, rows
    and columns over their DOF slots."""
    return _edge_form(edges, method, eta, edges.T_mat,
                      edges.to_slots(edges.T_mat).transpose(0, 2, 1), edges.J)


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
        # empty slots hold no DOF and are dropped; tocsr sums the two slots
        # of each edge's own DOF
        r = np.broadcast_to(edges.dofs[:, :, None], mats.shape)
        c = np.broadcast_to(edges.dofs[:, None, :], mats.shape)
        keep = (r >= 0) & (c >= 0)
        rows.append(r[keep])
        cols.append(c[keep])
        data.append(mats[keep])

    import scipy.sparse as sp

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
    g_c = edge_means(ctx.prob.g_boundary, mesh, ctx.layout, constrained)
    A = A[free]  # the free rows, sliced once for both column blocks
    rhs = b[free] - A[:, constrained] @ g_c
    return AssembledSystem(A[:, free], rhs, free, constrained, g_c, n)


def assemble_rhs(ctx: Context, method: str, eta: Optional[float] = None,
                 correction: Optional[np.ndarray] = None,
                 edge_blocks=None) -> np.ndarray:
    """Load vector int f phi_i; for nonhomogeneous flux jumps this includes
    the interface load int_chord g_N phi_i, and the full bilinear action of
    the supplied jump correction moves to the right-hand side.

    edge_blocks may pass the EdgeTable of ctx's interface edges that the
    caller already built; anything else (None, or a list of per-edge
    tables) makes the correction action build its own.
    """
    mesh = ctx.mesh
    tab = ctx.cut_table
    b = np.zeros(mesh.n_edges)
    for cl in ctx.classes:
        f = cl.branch(ctx.prob.f_plus, ctx.prob.f_minus)
        for s, pts in cl.blocks():
            loc = ((f(pts) * cl.wts)[:, None, :] @ cl.vals)[:, 0]
            np.add.at(b, mesh.elem_edges[cl.ids[s]].ravel(), loc.ravel())
    dofs = mesh.elem_edges[tab.ids]
    np.add.at(b, dofs, tab.per_element(tab.vals * (tab.wts * ctx.prob.f(tab.pts))[:, None]))

    if not ctx.prob.homogeneous_jumps:
        # the flux jump loads the chord: test functions are continuous across
        # it, so the plus piece's trace applies
        rule = segment_rule(EDGE_NPTS)
        D, E = ctx.layout.cuts.D, ctx.layout.cuts.E
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
    dof = edges.dofs >= 0
    np.subtract.at(b, edges.dofs[dof], contrib[..., 0][dof])


def build_jump_correction(ctx: Context) -> np.ndarray:
    """Coefficients (n_cut, 2, 4) of the correction fields for nonhomogeneous
    interface jumps, rows as in ctx.cut_table; g_D and g_N are each called
    once, on all chord endpoints."""
    tab, cuts = ctx.cut_table, ctx.layout.cuts
    chords = np.stack([cuts.D, cuts.E], axis=1)
    g_D = np.asarray(ctx.prob.g_D(chords), float).reshape(-1, 2)
    g_N = np.asarray(ctx.prob.g_N(chords), float).reshape(-1, 2)
    return jump_corrections(tab.coef, tab.dof_rows, tab.centers, chords, cuts.n_h,
                            tab.beta_c[:, 0], g_D, g_N)


def _independent_set(A) -> np.ndarray:
    """Mask of the DOFs whose key (pattern degree, index) is below the key of
    every neighbour in the pattern of the CSR matrix A.

    The keys are unique, so no two chosen DOFs are adjacent. Every row holds
    its positive diagonal, so a row's smallest key is its own exactly when
    the DOF beats all its neighbours. The DOF with the smallest key is always
    chosen.
    """
    n = A.shape[0]
    key = np.diff(A.indptr).astype(np.int64) * n + np.arange(n)
    return np.minimum.reduceat(key[A.indices], A.indptr[:-1]) == key


def solve_spd(system: AssembledSystem, rtol: float = 1e-12) -> Tuple[np.ndarray, int]:
    """Sparse direct solve of the SPD system; returns (x_free, 0 iterations).

    The DOFs I of ``_independent_set`` are pairwise non-adjacent, so A_II = D
    is diagonal and is eliminated exactly: with R the remaining DOFs and
    W = A_RI D^(-1/2), SuperLU factors only the Schur complement
    S = A_RR - W W^T, and x_I = D^-1 (b_I - A_IR x_R) follows by one division
    per DOF. On the right-triangle CR mesh I holds the legs away from the
    interface, two thirds of the DOFs; on rq1 it holds a few DOFs. When every
    DOF is in I, x = b / diag(A) and nothing is factored.

    By Haynsworth's inertia additivity, A is SPD exactly when D and S are.
    D > 0 is checked on the diagonal. SuperLU factors P S P^T = L U with a
    symmetric minimum-degree ordering and diagonal pivots only, so U = D' L^T
    and, by Sylvester's law of inertia, S is SPD exactly when no off-diagonal
    pivot was taken and every pivot is positive. The true residual
    ||b - Ax|| / ||b|| of the original system must then be at most
    10 (rtol + eps || |A| |x| || / ||b||), the second term being the rounding
    floor of evaluating it in float64. Raises SolverError when A is not SPD,
    is singular or misses that bound, and its subclass SolverMemoryError when
    the factorization runs out of memory; the error carries the achieved
    relative residual.
    """
    from scipy.sparse.linalg import splu

    A = system.matrix
    b = system.rhs
    if not (0.0 < rtol < 1.0):
        raise ValueError("rtol must be in (0, 1)")
    n = len(b)
    diag = A.diagonal()
    if np.any(diag <= 0):
        raise SolverError("matrix not SPD: nonpositive diagonal")
    bnorm = float(np.linalg.norm(b))
    if bnorm == 0.0:
        return np.zeros(n), 0
    ind = _independent_set(A)
    I, R = np.flatnonzero(ind), np.flatnonzero(~ind)
    d = diag[I]
    rows = A[R]
    A_RI = rows[:, I]
    W = A_RI.copy()
    W.data /= np.sqrt(d)[W.indices]
    S = rows[:, R] - W @ W.T
    # only S and A_RI live on under the factorization's peak
    del rows, W
    x = np.zeros(n)
    fault = None  # a pivot that shows S is not SPD
    if len(R):  # with every DOF in I, A is diagonal and nothing is factored
        # no solution is formed when the factorization fails, so the achieved
        # residual is that of x = 0
        try:
            # S is symmetric, so S.T, a CSC view of the same arrays, is S
            lu = splu(S.T, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
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
        del S
        x[R] = lu.solve(b[R] - A_RI @ (b[I] / d))
        if not np.array_equal(lu.perm_r, lu.perm_c):
            fault = "off-diagonal pivot"
        elif np.any(lu.U.diagonal() <= 0):
            fault = "nonpositive pivot"
        del lu
    x[I] = (b[I] - A_RI.T @ x[R]) / d
    residual = float(np.linalg.norm(b - A @ x)) / bnorm
    if fault:
        raise SolverError(f"matrix not SPD: {fault}", residual=residual)
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
