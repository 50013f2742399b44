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

The SPD solve eliminates in rounds. Each round divides out a set of pairwise
non-adjacent DOFs exactly, by one division each, and passes the Schur
complement on the rest to the next round; a round runs only when it removes
at least a quarter of the DOFs it sees, and SuperLU factors what is left.
On the right-triangle meshes of the CR element the legs couple only to the
diagonals beside them, so away from the interface the first round takes the
legs, two thirds of the DOFs. The diagonals left couple as a five-point
stencil on the grid cells, and the second round, keyed first by the
checkerboard colour of their cells, takes about half of them. On rq1 no
round removes a quarter, and SuperLU factors the whole matrix. It factors
in a geometric nested-dissection order. Both the colour and the order come
from one description of the free DOFs that assemble records, the half-cell
coordinates of their edge midpoints. The diagonals left by the colour round
lie on a lattice rotated by 45 degrees, and the ordering cuts in that frame;
on rectangles it cuts along grid lines. assemble leaves the load vector
pending, and the solve reads it in one place, after the factorization.

build_context starts the exact solution's one pass over the uncut elements
(uncut_pass), on a large mesh on a worker thread that runs while the
calling thread builds the cut table, assembles, eliminates, orders and
factors. The pass evaluates f, u and grad u once per block of points, and
besides the uncut elements' load it projects u and grad u onto each
element's basis and gradients, orthogonally in the weighted sums over the
points that the error norms take. The error norms then split exactly at
those projections (see uncut_pass), and only a quadratic form per element
is left for the DOFs.

scipy is imported inside the function that uses it, so that importing
ifelab and validating a problem load numpy alone; a test in test_cli.py
enforces this.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
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
LOAD_WORKER_DOFS = 16384  # least free DOFs for which build_context starts the uncut pass on a worker
LEAF_DOFS = 16  # largest domain that the nested-dissection ordering leaves unsplit


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

    p, d and G hold, per element, the exact solution's part of the error
    norms, which no DOF vector enters; uncut_pass fills them (see there):

    p   (n, m) coefficients of Pi u, the w-orthogonal projection of u onto
        span{phi_i}
    d   (n, m-1) coefficients of P grad u, the beta w-orthogonal projection
        of grad u onto span{grad phi_k, k < m-1}
    G   (n, m-1, m-1) sum over the points of w beta grad phi_k . grad phi_l

    They are allocated with the context, on the thread that builds it, so
    that the pass on build_context's worker writes into them instead of
    growing the worker's own heap.
    """

    ids: np.ndarray
    side: int               # INTERIOR_PLUS or INTERIOR_MINUS
    shifts: np.ndarray      # (n, 2) translation of each element from the reference
    pts: np.ndarray         # reference quadrature points
    wts: np.ndarray
    vals: np.ndarray        # (nq, m) basis values
    grads: np.ndarray       # (nq, m, 2)
    gouter: np.ndarray      # (nq, m, m) grad_i . grad_j
    mass: np.ndarray        # (m, m) sum over the points of w phi_i phi_j
    p: np.ndarray
    d: np.ndarray
    G: np.ndarray

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
    """Everything assembled forms need for one (problem, mesh) pair.
    uncut() joins the uncut_pass that build_context started and returns its
    (load, sums): the uncut elements' load over all DOFs, which readers copy
    before they add to it, and the residual sums (L2, energy). Every call
    returns the same pair or raises the pass's error. The pass also fills
    the classes' p, d and G."""

    prob: object
    mesh: UnfittedMesh
    layout: CutLayout
    cut_table: CutTable
    classes: List[ClassCtx]
    uncut: Callable[[], Tuple[np.ndarray, Tuple[float, float]]]


class AssembledSystem:
    """The system of one assembly on its free DOFs.

    matrix              symmetric CSR matrix, restricted to the free DOFs
    rhs                 load vector on the free DOFs. assemble passes a
                        zero-argument callable that computes it, the pending
                        load vector: the first read of rhs calls it and keeps
                        the result. That read joins the context's uncut
                        pass (Context.uncut) and raises its error, if any
    free, constrained   DOF indices
    constrained_values  prescribed edge means on the constrained DOFs
    n_dofs              number of DOFs, free and constrained
    coords              (n_free, 2) signed integer half-cell coordinates of
                        each free DOF's edge midpoint (see _half_cells).
                        solve_spd derives both its elimination key's colour
                        (_checkerboard) and its nested-dissection ordering
                        from them. Raises ValueError when they have another
                        shape or dtype
    """

    def __init__(self, matrix: sp.csr_matrix, rhs, free: np.ndarray,
                 constrained: np.ndarray, constrained_values: np.ndarray, n_dofs: int,
                 coords: np.ndarray):
        if not (isinstance(coords, np.ndarray) and coords.dtype.kind == "i"
                and coords.shape == (len(free), 2)):
            raise ValueError(f"coords must be a signed integer array of shape "
                             f"({len(free)}, 2), one row per free DOF")
        self.matrix = matrix
        self._rhs = rhs
        self.free = free
        self.constrained = constrained
        self.constrained_values = constrained_values
        self.n_dofs = n_dofs
        self.coords = coords

    @property
    def pending(self) -> bool:
        """True while the load vector is not computed yet."""
        return callable(self._rhs)

    @property
    def rhs(self) -> np.ndarray:
        if self.pending:
            self._rhs = self._rhs()
        return self._rhs

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
    M = np.add.reduceat((wts * beta)[:, None, None] * _gram(grads[:, :nw]), starts, axis=0)
    C = np.vstack([np.eye(nw), -np.ones(nw)])  # gradients sum to zero
    return CutTable(ids, row, coef, centers, beta_c, dof_rows, pts, wts,
                    owner, piece, starts, beta, vals, grads, M, C, C @ M @ C.T)


def _gram(g: np.ndarray) -> np.ndarray:
    """g_k . g_l (q, k, k) of the point rows of gradients g (q, k, 2), the
    two components multiplied out: the bits of einsum("qkd,qld->qkl"),
    without its reduction over an axis of length 2, which costs twice as
    much."""
    x, y = g[..., 0], g[..., 1]
    return x[:, :, None] * x[:, None, :] + y[:, :, None] * y[:, None, :]


def _build_class_ctxs(mesh, ids, sides) -> List[ClassCtx]:
    """The uncut elements ids of one congruence class, split by their sides;
    both parts share the reference data of the class's first element."""
    ref = mesh.element_vertices(int(ids[0]))
    pts, wts = polygon_points_weights(ref, VOLUME_DEGREE)
    lam = standard_local_basis(ref, kappa=mesh.kappa)
    vals, grads = evaluate(lam, pts[:, None, :], ref.mean(axis=0), mesh.kappa)
    mass = (vals.T * wts) @ vals
    k = len(lam) - 1
    parts = [(side, ids[sides == side]) for side in (INTERIOR_PLUS, INTERIOR_MINUS)]
    return [ClassCtx(part, side, mesh.nodes[mesh.elements[part, 0]] - ref[0], pts, wts,
                     vals, grads, _gram(grads), mass, np.zeros((len(part), k + 1)),
                     np.zeros((len(part), k)), np.zeros((len(part), k, k)))
            for side, part in parts if part.size]


def build_context(prob, mesh: UnfittedMesh, kind: str,
                  layout: Optional[CutLayout] = None) -> Context:
    """Classify the mesh against the problem's interface and cache local data.

    One batched dense solve builds the immersed bases of every cut element,
    triangles and rectangles alike. The uncut elements of each congruence
    class are split by their layout side into one ClassCtx per side. The
    mesh decides the element; kind is only held against it by check_kind.

    Before the cut table it starts uncut_pass, the context's one pass over
    the uncut elements (see Context). With LOAD_WORKER_DOFS free DOFs or
    more the pass runs on a worker thread, in a copy of the caller's context
    (numpy keeps its errstate there), beside the cut table, the assembly
    and solve_spd's elimination, ordering and factorization. A smaller mesh
    runs it here: a process's first worker thread costs a few MB of peak
    RSS, its malloc arena, which a small mesh does not repay (on ex1 to ex4,
    serial pays to N=64 and the worker from N=128). When the cut table
    raises, the worker is joined first, and a failing pass's error wins,
    with the cut table's as its __context__.
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
    if np.count_nonzero(~mesh.boundary_edges) >= LOAD_WORKER_DOFS:
        wait = _start(lambda: uncut_pass(prob, mesh, classes))
    else:
        done = uncut_pass(prob, mesh, classes)

        def wait():
            return done
    try:
        tab = _build_cut_table(prob, mesh, layout)
    except BaseException:
        wait()
        raise
    return Context(prob, mesh, layout, tab, classes, wait)


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
    the first edge that is not an interface edge or has an ill-conditioned
    lifting Gram matrix.
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
    # build_layout cuts both neighbours of every interface edge, or raises
    rows = np.where(present, tab.row[elems], 0)
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
    G = tab.per_element(tab.wts[:, None, None] * _gram(grads))
    P = (edges.psi * edges.wq[:, None, :]) @ edges.psi.transpose(0, 2, 1)
    A = P @ edges.lift((G[edges.rows] @ edges.lift(P).reshape(n, 2, nb, dim)).reshape(P.shape))
    lam, V = np.linalg.eigh(P)
    keep = lam > 1e-12 * np.maximum(lam.max(axis=1, keepdims=True), 1e-300)
    V = np.where(keep[:, None], V / np.sqrt(np.where(keep, lam, 1.0))[:, None], 0.0)
    B = V.transpose(0, 2, 1) @ A @ V
    return np.sqrt(np.maximum(np.linalg.eigvalsh(B).max(axis=1), 0.0) * edges.length)


# ---------------------------------------------------------------------------
# global assembly


def _volume_triplets(ctx: Context, rows: np.ndarray, cols: np.ndarray,
                     data: np.ndarray) -> None:
    """Write the volume form's triplets into rows, cols and data, which hold
    exactly m^2 entries per element: each uncut class, then the cut table,
    each element's m x m block row by row. The local matrices are formed in
    place in data."""
    mesh = ctx.mesh
    start = 0
    for cl in ctx.classes:
        beta = cl.branch(ctx.prob.beta_plus, ctx.prob.beta_minus)
        nq, m = cl.vals.shape
        gouter = cl.gouter.reshape(nq, m * m)
        end = start + len(cl.ids) * m * m
        K = data[start:end].reshape(-1, m, m)
        for s, pts in cl.blocks():
            # one product per element: a stacked matmul rounds each row alike
            # whatever the block size, where one GEMM over the block need not
            bw = beta(pts) * cl.wts
            K[s] = (bw[:, None, :] @ gouter).reshape(-1, m, m)
        _block_pattern(mesh.elem_edges[cl.ids], rows[start:end], cols[start:end])
        start = end
    tab = ctx.cut_table
    data[start:] = tab.K.ravel()
    _block_pattern(mesh.elem_edges[tab.ids], rows[start:], cols[start:])


def _block_pattern(conn: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> None:
    """Row and column of every entry of the dense blocks of the DOFs conn
    (n, k), block by block and row by row, written into rows and cols."""
    n, k = conn.shape
    rows.reshape(n, k, k)[...] = conn[:, :, None]
    cols.reshape(n, k, k)[...] = conn[:, None, :]


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

    The load vector is left pending (see AssembledSystem): its read joins
    the context's uncut pass, which build_context started, and adds the
    rest of the load, the cut elements' part (7% of the pass's time on ex1
    at N=128, 11% with ex4's jump correction).
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    boundary = ctx.mesh.boundary_edges
    free = np.nonzero(~boundary)[0]
    constrained = np.nonzero(boundary)[0]
    A, A_fc, g_c, edges = _assemble_matrix(ctx, method, eta, free, constrained)
    coords = _half_cells(ctx.mesh, free)

    def rhs():
        return assemble_rhs(ctx, method, eta, correction, edges)[free] - A_fc @ g_c

    return AssembledSystem(A, rhs, free, constrained, g_c, ctx.mesh.n_edges, coords)


def _start(fn: Callable) -> Callable:
    """Start fn() on a worker thread, in a copy of the caller's context.
    Returns its wait: every call joins the thread and returns fn's result,
    or raises its error."""
    import contextvars
    import threading
    from concurrent.futures import Future

    done = Future()
    run = contextvars.copy_context().run

    def work():
        try:
            done.set_result(run(fn))
        except BaseException as err:
            done.set_exception(err)

    thread = threading.Thread(target=work, name="ifelab-load")
    thread.start()

    def wait():
        thread.join()
        return done.result()
    return wait


def _assemble_matrix(ctx: Context, method: str, eta: Optional[float], free: np.ndarray,
                     constrained: np.ndarray):
    """The blocks of assemble's symmetric matrix on the free rows, (A_ff,
    A_fc, g_c, edges): g_c the prescribed edge means on the constrained DOFs
    and edges the EdgeTable of the interface edges (None for 'plain').
    Raises AssemblyError when the matrix is not symmetric.

    The triplets of every block are counted first and written into one
    buffer, which is freed as soon as the CSR matrix is formed. Heap freed
    here stays resident under the factorization that follows, so every
    transient of the assembly raises the solve's peak."""
    mesh = ctx.mesh
    n = mesh.n_edges
    edges = None
    n_vol = sum(len(cl.ids) * cl.vals.shape[1] ** 2 for cl in ctx.classes) + ctx.cut_table.K.size
    n_edge = 0
    if method in ("new", "ppifem"):
        edges = build_edge_table(ctx, ctx.layout.interface_edges)
        mats = _edge_matrices(edges, method, eta)
        # empty slots hold no DOF and are dropped; tocsr sums the two slots
        # of each edge's own DOF
        keep = (edges.dofs[:, :, None] >= 0) & (edges.dofs[:, None, :] >= 0)
        n_edge = int(np.count_nonzero(keep))

    # filled block by block, volume classes, cut table, then edges, the
    # order in which tocsr sums duplicates. Edge ids stay below 2^31 up to
    # N_MAX, so rows and cols are int32, the CSR matrix's index type, which
    # coo_matrix takes without a copy
    rows = np.empty(n_vol + n_edge, np.int32)
    cols = np.empty_like(rows)
    data = np.empty(len(rows))
    _volume_triplets(ctx, rows[:n_vol], cols[:n_vol], data[:n_vol])
    if n_edge:
        r = np.broadcast_to(edges.dofs[:, :, None], mats.shape)
        c = np.broadcast_to(edges.dofs[:, None, :], mats.shape)
        rows[n_vol:] = r[keep]
        cols[n_vol:] = c[keep]
        data[n_vol:] = mats[keep]

    import scipy.sparse as sp

    A = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    # freed before the transpose, which reuses their heap
    del rows, cols, data
    # tocsr leaves A canonical, and the assembly puts every entry's mirror
    # in the pattern, so the transpose holds its values in the same slots
    T = A.T.tocsr()
    if not (np.array_equal(T.indptr, A.indptr) and np.array_equal(T.indices, A.indices)):
        raise AssemblyError("assembled matrix pattern is not symmetric")
    gap = np.subtract(A.data, T.data)
    asym = np.abs(gap, out=gap).max(initial=0.0)
    scale = max(A.data.max(initial=0.0), -A.data.min(initial=0.0))
    if asym > 1e-12 * scale:
        raise AssemblyError(f"assembled matrix asymmetric: {asym:.3e} vs scale {scale:.3e}")
    # in place, and the temporaries freed at once: full-size arrays left
    # in the heap here stay resident under the factorization's peak
    del gap
    A.data += T.data
    A.data *= 0.5
    del T
    A.eliminate_zeros()

    g_c = edge_means(ctx.prob.u_exact, mesh, ctx.layout, constrained)
    A = A[free]  # the free rows, sliced once for both column blocks
    return A[:, free], A[:, constrained], g_c, edges


def _half_cells(mesh: UnfittedMesh, dofs: np.ndarray) -> np.ndarray:
    """Integer coordinates (n, 2) of each edge's midpoint in half cells of
    the grid from the mesh's lower left corner: odd inside a cell, even on a
    grid line. On the triangle mesh the diagonals are the edges inside a
    cell. The grid numbers its (N+1)^2 nodes row by row, so each coordinate
    is the sum of the ends' grid indices."""
    j, i = np.divmod(mesh.edges[dofs], math.isqrt(len(mesh.nodes)))
    return np.column_stack([i[:, 0] + i[:, 1], j[:, 0] + j[:, 1]])


def _checkerboard(coords: np.ndarray) -> np.ndarray:
    """Parity (0 or 1) of the grid cell whose interior holds each half-cell
    point coords (n, 2), and 0 for a point on a grid line, which two cells
    share. Inside a cell (bit 0 of kx & ky) the parity is bit 0 of
    kx // 2 + ky // 2, which is bit 1 of kx ^ ky."""
    kx, ky = coords[:, 0], coords[:, 1]
    return kx & ky & ((kx ^ ky) >> 1) & 1


def assemble_rhs(ctx: Context, method: str, eta: Optional[float] = None,
                 correction: Optional[np.ndarray] = None,
                 edge_blocks=None) -> np.ndarray:
    """Load vector int f phi_i; for nonhomogeneous flux jumps this includes
    the interface load int_chord g_N phi_i, and the full bilinear action of
    the supplied jump correction moves to the right-hand side. The uncut
    elements' part is the context's (Context.uncut), which build_context
    started; this call adds the cut elements' load, the chord load and the
    correction's action, in that order, to a copy of it, which leaves the
    context's part intact for other reads and after a read that fails.

    edge_blocks may pass the EdgeTable of ctx's interface edges that the
    caller already built; anything else (None, or a list of per-edge
    tables) makes the correction action build its own.
    """
    b = ctx.uncut()[0].copy()
    mesh = ctx.mesh
    tab = ctx.cut_table
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


def uncut_pass(prob, mesh, classes) -> Tuple[np.ndarray, Tuple[float, float]]:
    """One pass over the blocks of uncut elements, with one evaluation of
    the exact fields (f, u, grad u) per block: fills the classes' p, d and
    G, and returns the load int f phi_i over all DOFs and the residual sums
    (sum w (u - Pi u)^2, sum w beta |grad u - P grad u|^2).

    Per element, with c its DOFs, u_h = sum c_i phi_i has the gradient
    sum_k (C^T c)_k grad phi_k over k < m-1, C^T c = c[:m-1] - c[m-1], since
    the basis sums to one. The projections Pi u = sum p_i phi_i and
    P grad u = sum d_k grad phi_k are orthogonal in the sums over the points
    that the norms take, with the weights w and beta w. By Pythagoras, which
    holds for those sums as for the integrals,

        sum w (u - u_h)^2 = sum w (u - Pi u)^2 + (p - c)^T M (p - c)
        sum w beta |grad u - grad u_h|^2
            = sum w beta |grad u - P grad u|^2 + (d - C^T c)^T G (d - C^T c)

    with M the class's mass matrix. The residual sums are taken point by
    point, so neither side subtracts nearly equal sums."""
    b = np.zeros(mesh.n_edges)
    l2 = h1 = 0.0
    for cl in classes:
        fields = cl.branch(prob.fields_plus, prob.fields_minus)
        beta = cl.branch(prob.beta_plus, prob.beta_minus)
        nq, m = cl.vals.shape
        k = m - 1
        vals = cl.vals.T
        to_p = np.linalg.solve(cl.mass, vals * cl.wts).T  # (nq, m): p = u @ to_p
        gx, gy = cl.grads[:, :k, 0], cl.grads[:, :k, 1]
        gouter = cl.gouter[:, :k, :k].reshape(nq, k * k)
        for s, pts in cl.blocks():
            f, u, du = fields(pts)
            loc = ((f * cl.wts)[:, None, :] @ cl.vals)[:, 0]
            np.add.at(b, mesh.elem_edges[cl.ids[s]].ravel(), loc.ravel())
            p = cl.p[s] = u @ to_p
            r = u - p @ vals
            l2 += float(np.sum((r * r) @ cl.wts))
            # gradient components one at a time: a product broadcast over an
            # axis of length 2 costs several times as much
            ux, uy = du[..., 0], du[..., 1]
            bw = beta(pts) * cl.wts
            G = cl.G[s] = (bw @ gouter).reshape(-1, k, k)
            d = cl.d[s] = _solve_spd_small(G, (bw * ux) @ gx + (bw * uy) @ gy)
            rx, ry = ux - d @ gx.T, uy - d @ gy.T
            h1 += float(np.vdot(bw, rx * rx + ry * ry))
    return b, (l2, h1)


def _solve_spd_small(G: np.ndarray, g: np.ndarray) -> np.ndarray:
    """x solving G x = g for stacked SPD matrices G (n, k, k) and vectors
    g (n, k): Gaussian elimination without pivoting, unrolled over the small
    k and vectorized over n, entry by entry. np.linalg.solve calls LAPACK
    once per system, which costs about six times as much at k = 2."""
    k = g.shape[1]
    A = [[G[:, i, j] for j in range(k)] for i in range(k)]
    x = [g[:, i] for i in range(k)]
    for j in range(k):
        for i in range(j + 1, k):
            lij = A[i][j] / A[j][j]
            A[i] = A[i][:j + 1] + [A[i][c] - lij * A[j][c] for c in range(j + 1, k)]
            x[i] = x[i] - lij * x[j]
    for j in reversed(range(k)):
        for c in range(j + 1, k):
            x[j] = x[j] - A[j][c] * x[c]
        x[j] = x[j] / A[j][j]
    return np.stack(x, axis=1)


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


def _independent_set(A, colour: np.ndarray) -> np.ndarray:
    """Mask of the DOFs whose key (colour, pattern degree, index) is below
    the key of every neighbour in the pattern of the CSR matrix A; colour
    is 0 or 1 per DOF.

    The keys are unique, so no two chosen DOFs are adjacent. Every row must
    hold its positive diagonal, so that a row's smallest key is its own
    exactly when the DOF beats all its neighbours. The DOF with the smallest
    key is always chosen.
    """
    n = A.shape[0]
    rank = np.diff(A.indptr).astype(np.int64)
    rank += (n + 1) * colour  # a degree is at most n, so colour ranks first
    key = rank * n + np.arange(n)
    return np.minimum.reduceat(key[A.indices], A.indptr[:-1]) == key


def _eliminate(A, coords: np.ndarray):
    """Rounds of exact elimination of the symmetric matrix A, by the key of
    _independent_set with the checkerboard colour of the half-cell
    coordinates coords (n, 2) of A's DOFs.

    Returns one (I, R, d, A_RI) per round, I and R the eliminated and the
    remaining rows of that round's matrix and d = diag(A_II), the Schur
    complement left on the last R, and the coordinates of its DOFs. A round
    is taken only when it removes at least a quarter of the DOFs it sees;
    the first that would remove less ends the elimination. Raises
    SolverError when the diagonal of A, or of a Schur complement, is not
    positive; this also catches a row that cancels to zero, before
    _independent_set sees it.
    """
    rounds = []
    colour = _checkerboard(coords)
    while True:
        diag = A.diagonal()
        if np.any(diag <= 0):
            after = f" after elimination round {len(rounds)}" if rounds else ""
            raise SolverError(f"matrix not SPD: nonpositive diagonal{after}", residual=1.0)
        if not len(diag):
            return rounds, A, coords
        ind = _independent_set(A, colour)
        if ind.mean() < 0.25:
            return rounds, A, coords
        I, R = np.flatnonzero(ind), np.flatnonzero(~ind)
        rows = A[R]
        A_RI = rows[:, I]
        W = A_RI.copy()
        W.data /= np.sqrt(diag[I])[W.indices]
        A = rows[:, R] - W @ W.T
        rounds.append((I, R, diag[I], A_RI))
        colour, coords = colour[R], coords[R]


def _dissection_order(S, coords: np.ndarray) -> np.ndarray:
    """Nested-dissection permutation p of the symmetric CSR matrix S, whose
    DOFs sit at the integer lattice points coords (n, 2): S[p][:, p] is S
    in that order.

    The frame. When most DOFs lie inside grid cells (both coordinates odd),
    they are the cell diagonals of the triangle mesh that the checkerboard
    round left, one colour of cells, which couple on a lattice rotated by
    45 degrees; the ordering then works in (kx + ky, kx - ky) // 2. On grid
    lines, as on the rectangle mesh, it works in (kx, ky). An axis wider
    than n lattice points is replaced by the ranks of its coordinates.

    The regions. The bounding box of the shifted coordinates, widened to
    powers of two, is halved across its longer side (x on ties), level by
    level, so every region is a box and a DOF's path down the levels is the
    bits of its code, most significant first. A region holding more than
    LEAF_DOFS DOFs, those placed in separators above counted too, is split
    at its cut. Its separator is the smaller of the two one-sided sets of
    its unplaced DOFs with an unplaced pattern neighbour across the cut
    (the low side on ties), and is ordered after both halves, in
    post-order. A region of at most LEAF_DOFS DOFs, or of one lattice
    point, is a leaf: its DOFs keep code order. DOFs of equal keys keep
    index order, so coordinates that are all equal give the identity.

    The pattern is read once: an entry (i, j) counts at the level of the
    cut that first separates i and j, the first bit in which their codes
    differ, if that cut splits a region. Each level then reads only its own
    entries and the DOFs they touch.
    """
    n = S.shape[0]
    kx, ky = coords[:, 0], coords[:, 1]
    if 2 * np.count_nonzero(kx & ky & 1) > n:
        kx, ky = (kx + ky) >> 1, (kx - ky) >> 1
    P = []
    for k in (kx, ky):
        k = k - k.min()
        P.append(np.unique(k, return_inverse=True)[1] if k.max() >= n else k)
    bits = [int(k.max()).bit_length() for k in P]
    L = sum(bits)  # the number of levels
    # the code bits of every coordinate value, one table per axis
    spread = [np.zeros(1 << m, dtype=np.int32 if L < 31 else np.int64) for m in bits]
    for lv in range(L):
        a = int(bits[1] > bits[0])
        bits[a] -= 1
        spread[a] |= ((np.arange(len(spread[a])) >> bits[a]) & 1) << (L - 1 - lv)
    code = spread[0][P[0]] | spread[1][P[1]]
    by_code = np.argsort(code, kind="stable")
    # The region of level lv around a DOF holds the codes that agree with
    # its own above bit L - lv. A window of LEAF_DOFS + 1 consecutive codes
    # lies in every region down to the level of its common prefix, so a
    # DOF's regions are split down to the deepest such level among the
    # windows that hold it.
    deepest = np.full(n, -1)  # per window start, then per position
    sc = code[by_code]
    if n > LEAF_DOFS:
        deepest[:n - LEAF_DOFS] = L - np.frexp(sc[:-LEAF_DOFS] ^ sc[LEAF_DOFS:])[1]
    width = 1  # the number of window starts up to each position taken in
    while width <= LEAF_DOFS:
        step = min(width, LEAF_DOFS + 1 - width)
        deepest[step:] = np.maximum(deepest[step:], deepest[:-step])
        width += step
    split_bit = np.empty(n, dtype=code.dtype)  # the lowest code bit cut in a split region
    split_bit[by_code] = np.maximum(L - 1 - deepest, 0)
    rows = np.repeat(np.arange(n, dtype=S.indices.dtype), np.diff(S.indptr))
    upper = S.indices > rows
    I, J = rows[upper], S.indices[upper]
    del rows, upper
    x = code[I] ^ code[J]
    split = (x >> split_bit[I]) > 0
    I, J = I[split], J[split]
    level = (L - np.frexp(x[split])[1]).astype(np.int8)
    del x, split
    by_level = np.argsort(level, kind="stable")
    bounds = np.searchsorted(level[by_level], np.arange(L + 1))

    key = code.astype(np.int64) * (L + 2)
    placed = np.zeros(n, dtype=bool)
    for lv in range(L):
        e = by_level[bounds[lv]:bounds[lv + 1]]
        i, j = I[e], J[e]
        live = ~(placed[i] | placed[j])
        cross = np.zeros(n, dtype=bool)
        cross[i[live]] = cross[j[live]] = True
        dofs = by_code[np.flatnonzero(cross[by_code])]  # in code order
        # each DOF's region code and side bit; in code order the DOFs of a
        # region on either side are runs, found by their bounds
        half = code[dofs].astype(np.int64) >> (L - 1 - lv)
        low, high, after = np.searchsorted(half, (half & -2) + np.arange(3)[:, None])
        on = (half & 1) == (after - high < high - low)
        sep = dofs[on]
        # a separator sorts after every code of its region and before the
        # separators of the levels above
        key[sep] = (((half[on] >> 1) + 1) << (L - lv)) * (L + 2) - 1 - lv
        placed[sep] = True
    return np.argsort(key, kind="stable")


def _factor(S):
    """SuperLU factors of the symmetric S, already in its nested-dissection
    order, so in the column order NATURAL, with diagonal pivots. Its
    RuntimeErrors are raised as SolverError, or SolverMemoryError for an
    allocation failure. No solution is formed when the factorization fails,
    so the achieved residual is that of x = 0."""
    from scipy.sparse.linalg import splu

    try:
        # S is symmetric, so S.T, a CSC view of the same arrays, is S
        return splu(S.T, options={"ColPerm": "NATURAL", "DiagPivotThresh": 0.0,
                                  "SymmetricMode": True})
    except RuntimeError as err:
        # SuperLU reports allocation failures ("SUPERLU_MALLOC fails for ...",
        # "Not enough memory ...") as RuntimeError, like a singular factor
        msg = str(err).lower()
        if "malloc" in msg or "memory" in msg:
            raise SolverMemoryError(f"out of memory in the factorization: {err}",
                                    residual=1.0) from err
        raise SolverError(f"matrix singular: {err}", residual=1.0) from err


def _permuted(S, p: np.ndarray):
    """S[p][:, p] of the symmetric CSR matrix S, with sorted indices: the
    rows gathered in the order p and their columns renumbered."""
    inv = np.empty_like(p)
    inv[p] = np.arange(len(p))
    S = S[p]
    S.indices = inv[S.indices].astype(S.indices.dtype)
    S.has_sorted_indices = False
    S.sort_indices()
    return S


@contextmanager
def _out_of_memory(step: str, residual: float = 1.0):
    """Raise an allocation failure in the block as SolverMemoryError with
    the given achieved residual."""
    try:
        yield
    except MemoryError as err:
        raise SolverMemoryError(f"out of memory in {step}: {err}", residual=residual) from err


def _substitute(rounds, lu, p: Optional[np.ndarray], b: np.ndarray) -> np.ndarray:
    """x solving A x = b, from the elimination rounds of A and the factors
    lu of the Schur complement left in the order p (both None when none is
    left)."""
    kept = []
    for I, R, d, A_RI in rounds:
        kept.append(b[I])
        b = b[R] - A_RI @ (b[I] / d)
    if lu is None:
        x = b  # b is empty when nothing is left
    else:
        x = np.empty_like(b)
        x[p] = lu.solve(b[p])
    for (I, R, d, A_RI), b_I in zip(reversed(rounds), reversed(kept)):
        y = np.empty(len(I) + len(R))
        y[R] = x
        y[I] = (b_I - A_RI.T @ x) / d
        x = y
    return x


def solve_spd(system: AssembledSystem, rtol: float = 1e-12) -> Tuple[np.ndarray, int]:
    """Sparse direct solve of the SPD system; returns (x_free, 0 iterations).

    The solve eliminates in rounds. A round takes the DOFs I of
    ``_independent_set`` on the current matrix, keyed by the checkerboard
    colour of system.coords, pattern degree and index. They are pairwise
    non-adjacent, so A_II = D is diagonal and is eliminated exactly: with R
    the remaining DOFs and W = A_RI D^(-1/2), the next round sees the Schur
    complement S = A_RR - W W^T. A round is taken only when it removes at
    least a quarter of the DOFs it sees (see _eliminate). Back substitution,
    round by round in reverse, takes x_I = D^-1 (b_I - A_IR x_R), one
    division per DOF. On the right-triangle CR mesh the first round takes
    the legs away from the interface, two thirds of the DOFs, and the second
    the diagonals of one checkerboard colour, about half of the rest; on rq1
    no round is taken. When a round takes every DOF left, nothing is
    factored.

    The Schur complement left is put in the nested-dissection order of
    _dissection_order, from the coordinates of its DOFs, and SuperLU factors
    it in that order. On the uniform grids here nested dissection bounds the
    fill at O(n log n) (George 1973; Lipton, Rose and Tarjan 1979), where a
    minimum-degree ordering carries no such bound.

    By Haynsworth's inertia additivity, a matrix is SPD exactly when D and
    its Schur complement S are; applied round by round, A is SPD exactly
    when every round's D and the last Schur complement are. Every round's
    diagonal is checked positive, which covers its D. SuperLU factors S as
    L U with diagonal pivots only, so perm_r = perm_c and U = D' L^T. By
    Sylvester's law of inertia, S is SPD exactly when no off-diagonal pivot
    was taken and every pivot is positive.

    The load vector is read in one place, when the elimination, the
    ordering and the factorization end, however they end. When
    build_context started the uncut pass on a worker thread, that pass runs
    beside them, which stay on the calling thread (SuperLU releases the
    GIL), and the read joins it. A failing load vector raises its own
    error, also when the solve failed first (that error is then its
    __context__).

    The true residual ||b - Ax|| / ||b|| of the original system must then be
    at most 10 (rtol + eps || |A| |x| || / ||b||), the second term being the
    rounding floor of evaluating it in float64; for b = 0, whose solution
    x = 0 comes out exactly, ||b|| reads 1. Raises SolverError when A is not
    SPD, is singular or misses that bound, and its subclass
    SolverMemoryError when any step runs out of memory; the error carries
    the achieved relative residual, 1.0 before a solution is formed.
    """
    if not (0.0 < rtol < 1.0):
        raise ValueError("rtol must be in (0, 1)")
    A = system.matrix
    lu = p = None
    try:
        with _out_of_memory("the elimination"):
            rounds, S, coords = _eliminate(A, system.coords)
        if S.shape[0]:
            with _out_of_memory("the ordering"):
                p = _dissection_order(S, coords)
                S = _permuted(S, p)
            with _out_of_memory("the factorization"):
                lu = _factor(S)
        # only the rounds' A_RI and the factors live on under the solve, and
        # only the factors under the pivot check, which copies them
        del S
    finally:
        b = system.rhs
    bnorm = float(np.linalg.norm(b)) or 1.0
    with _out_of_memory("the solve"):
        x = _substitute(rounds, lu, p, b)
        del rounds
        residual = float(np.linalg.norm(b - A @ x)) / bnorm
    fault = None  # a pivot that shows S is not SPD
    if lu is not None:
        with _out_of_memory("the pivot check", residual):
            if not np.array_equal(lu.perm_r, lu.perm_c):
                fault = "off-diagonal pivot"
            elif np.any(lu.U.diagonal() <= 0):
                fault = "nonpositive pivot"
        del lu
    if fault:
        raise SolverError(f"matrix not SPD: {fault}", residual=residual)
    with _out_of_memory("the residual bound", residual):
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
