"""Local shape spaces and immersed basis construction on cut elements.

Two element families share one edge-mean DOF layout: linear triangles (kind
'cr') and rotated bilinear rectangles (kind 'rq1', span {1, x1, x2,
x1^2 - (kappa*x2)^2}), told apart by the vertex count alone: 3 or 4, which is
also the number of DOFs and of spanning monomials. A kind passed to a public
entry point is only checked against it (``check_kind``). Every local
function is a coefficient array over the monomials 1, dx, dy,
dx^2 - kappa^2 dy^2 about the element centre (the last coefficient is zero
for 'cr'), and ``evaluate`` is the one function that evaluates such arrays
at points. An uncut basis is an (m, 4) array; an immersed basis is an
(m, 2, 4) array, DOF x piece (plus, minus) x monomial, with the two pieces
glued along the chord: values match at both chord endpoints, the rq1
curvature coefficients match, and the weighted normal derivative is
continuous at the chord midpoint. Basis functions stay dual to the edge
means, with cut edges integrated piecewise.

One batched dense solve (``_solve_local``) builds the immersed bases of all
cut elements of either kind; ``ife_local_basis_direct`` is its one-element
call. The paper's closed form on triangles (``ife_local_basis_cr_sm``) is the
stress test's cross-check of it.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .geometry import Cuts, _rowdot
from .quadrature import segment_rule

CR = "cr"
RQ1 = "rq1"

_MEAN_NPTS = 4  # exact for the quadratic monomials along any straight edge
EDGE_NPTS = 5   # Gauss points per edge segment, chord and boundary edge
# a local system at or above this condition number is singular to roundoff
COND_MAX = 1.0 / np.finfo(float).eps


class UnisolvenceError(RuntimeError):
    """The local DOF system is singular or numerically unreliable."""


def check_kind(kind: str, nv: int):
    """Raise ValueError unless kind is the element kind of nv-vertex elements."""
    if {CR: 3, RQ1: 4}.get(kind) != nv:
        raise ValueError(f"element kind {kind!r} does not fit {nv}-vertex elements")


def evaluate(coef, x, center, kappa: float = 1.0):
    """Values and gradients of monomial coefficient arrays at points.

    coef (..., 4) holds the coefficients of 1, dx, dy, dx^2 - kappa^2 dy^2
    with (dx, dy) = x - center; coef[..., k] broadcasts against x[..., 0].
    Returns the values and the gradients, the latter with a trailing axis of 2.
    """
    coef = np.asarray(coef, float)
    d = np.asarray(x, float) - center
    dx, dy = d[..., 0], d[..., 1]
    a, b, c, q = coef[..., 0], coef[..., 1], coef[..., 2], coef[..., 3]
    val = a + b * dx + c * dy + q * (dx ** 2 - (kappa * dy) ** 2)
    grad = np.stack([b + 2.0 * q * dx, c - 2.0 * q * kappa ** 2 * dy], axis=-1)
    return val, grad


def _segment_means(p, q, center, kappa):
    """Means (..., 4) of the four monomials along the segments p -> q (..., 2)."""
    rule = segment_rule(_MEAN_NPTS)
    pts = p[..., None, :] + rule.points * (q - p)[..., None, :]
    vals, _ = evaluate(np.eye(4), pts[..., None, :], np.asarray(center)[..., None, None, :],
                       kappa)
    return np.einsum("q,...qk->...k", rule.weights, vals)


def standard_local_basis(vertices, *, kappa: float = 1.0) -> np.ndarray:
    """Coefficients (m, 4) of the uncut basis, dual to the edge means.

    Triangles come from the closed form 1 - 2*mu with mu the barycentric
    coordinate of the vertex opposite the edge; rectangles from a 4x4 solve.
    """
    verts = np.asarray(vertices, float)
    center = verts.mean(axis=0)
    if len(verts) == 3:
        # barycentric coordinates as affine functions, columns (const, gx, gy)
        mu = np.linalg.solve(np.column_stack([np.ones(3), verts]), np.eye(3))
        c0, gx, gy = mu[:, [2, 0, 1]]  # vertex opposite edge (v_i, v_{i+1})
        g = -2.0 * np.array([gx, gy])
        return np.column_stack([1.0 - 2.0 * c0 + g[0] * center[0] + g[1] * center[1],
                                g[0], g[1], np.zeros(3)])
    if len(verts) == 4:
        A = _segment_means(verts, np.roll(verts, -1, axis=0), center, kappa)
        try:
            return np.linalg.solve(A, np.eye(4)).T
        except np.linalg.LinAlgError as err:
            raise UnisolvenceError("degenerate rectangle") from err
    raise ValueError(f"no element has {len(verts)} vertices")


@dataclass
class LocalIFEBasis:
    """Edge-mean-dual basis on one interface element, piecewise along the chord.

    cut is the element as a Cuts batch of one; coef (m, 2, 4) holds DOF x
    piece (plus, minus) x monomial coefficients about the element centre.
    """

    cut: Cuts
    beta_c_plus: float
    beta_c_minus: float
    coef: np.ndarray
    kappa: float = 1.0

    @property
    def n_dofs(self) -> int:
        return self.coef.shape[0]

    @property
    def center(self) -> np.ndarray:
        return self.cut.vertices[0].mean(axis=0)


def _dof_rows(cuts: Cuts, kappa: float) -> np.ndarray:
    """Edge means (n, nv, 2, 4) of the monomials of each piece on the cut
    elements cuts, all at once.

    Row j of element i integrates local edge j, split at its chord endpoint,
    with each part charged to the piece on its side of the chord; the edge
    means of a piecewise function w on element i are
    einsum("jsk,sk->j", rows[i], w). Every edge is laid out as two segments
    meeting at its split point; an edge without one ends in a segment of
    zero length, which carries nothing.
    """
    verts, D, E, n_h = cuts.vertices, cuts.D, cuts.E, cuts.n_h
    n, nv = verts.shape[:2]
    nxt = np.roll(verts, -1, axis=1)
    j = np.arange(nv)
    inside = 2 * j + 1  # boundary-walk position of the interior of edge j
    split = np.where((inside == cuts.loc_d[:, None])[..., None], D[:, None],
                     np.where((inside == cuts.loc_e[:, None])[..., None], E[:, None], nxt))
    p = np.stack([verts, split], axis=2)  # (n, nv, 2 segments, 2)
    q = np.stack([split, nxt], axis=2)
    frac = np.linalg.norm(q - p, axis=-1) / np.linalg.norm(nxt - verts, axis=-1)[..., None]
    side = np.einsum("ijsd,id->ijs", 0.5 * (p + q) - D[:, None, None], n_h)
    means = _segment_means(p, q, verts.mean(axis=1)[:, None, None], kappa)
    rows = np.zeros((n, nv, 2, 4))
    np.add.at(rows, (np.arange(n)[:, None, None], j[:, None], (side < 0).astype(int)),
              means * frac[..., None])
    return rows


def _solve_local(cuts: Cuts, beta, kappa, rows) -> np.ndarray:
    """Dense solve of the glue conditions and edge-mean duality on the cut
    elements cuts, all in one stack: coefficients (n, m, 2, 4).

    beta (n, 2) holds beta+- at the chord midpoints, rows (n, m, 2, 4) the
    elements' _dof_rows. The m = nv DOFs of an nv-vertex element go with its
    first nv monomials; on rectangles the curvature coefficients glue too.
    Raises UnisolvenceError naming the first element whose system is
    singular to roundoff (condition number at or above COND_MAX), and warns
    of each element whose system has a condition number above 1e12.
    """
    n, nv = rows.shape[:2]
    beta = np.asarray(beta, float)
    if np.any(beta <= 0):
        raise ValueError("coefficients must be positive")
    n_h, D, E = cuts.n_h, cuts.D, cuts.E
    vals, grads = evaluate(np.eye(4), np.stack([D, E, 0.5 * (D + E)], axis=1)[:, :, None],
                           cuts.vertices.mean(axis=1)[:, None, None], kappa)
    glue = [vals[:, 0, :nv], vals[:, 1, :nv]]  # values at D and at E
    if nv == 4:
        glue.append(np.broadcast_to(np.eye(4)[3], (n, 4)))  # curvature coefficient
    gn = (grads[:, 2, :nv] @ n_h[:, :, None])[..., 0]
    flux = np.concatenate([beta[:, :1] * gn, -beta[:, 1:] * gn], axis=1)
    A = np.concatenate([np.stack([np.concatenate([r, -r], axis=1) for r in glue] + [flux],
                                 axis=1), rows[..., :nv].reshape(n, nv, 2 * nv)], axis=1)
    cond = np.linalg.cond(A)
    singular = ~(cond < COND_MAX)  # NaN included
    if singular.any():
        i = int(np.argmax(singular))
        raise UnisolvenceError(f"singular local system (cond={cond[i]:.2e}) "
                               f"on element {cuts.ids[i]}")
    for i in np.nonzero(cond > 1e12)[0]:
        warnings.warn(f"badly conditioned local system (cond={cond[i]:.2e}) "
                      f"on element {cuts.ids[i]}", RuntimeWarning, stacklevel=3)
    # unit edge means below the glue rows, one copy per element: NumPy 1.x
    # would read a 2-D b against the stack A as a stack of vectors
    rhs = np.broadcast_to(np.eye(2 * nv, nv, -nv), (n, 2 * nv, nv))
    try:
        sol = np.linalg.solve(A, rhs)
        sol += np.linalg.solve(A, rhs - A @ sol)  # one refinement step
    except np.linalg.LinAlgError as err:
        worst = cuts.ids[int(np.argmax(cond))]
        raise UnisolvenceError(f"singular local system on element {worst}") from err
    coef = np.zeros((n, nv, 2, 4))
    coef[..., :nv] = sol.transpose(0, 2, 1).reshape(n, nv, 2, nv)
    return coef


def ife_local_basis_direct(cut: Cuts, kind: str, beta_c_plus: float,
                           beta_c_minus: float, kappa: float = 1.0) -> LocalIFEBasis:
    """Dense-solve construction of the immersed basis on the element cut, a
    Cuts batch of one: _solve_local on one element, after check_kind."""
    check_kind(kind, cut.vertices.shape[1])
    beta, rows = [[beta_c_plus, beta_c_minus]], _dof_rows(cut, kappa)
    coef = _solve_local(cut, beta, kappa, rows)[0]
    return LocalIFEBasis(cut, beta_c_plus, beta_c_minus, coef, kappa)


def jump_corrections(coef, rows, center, chords, n_h, beta_plus, g_D, g_N) -> np.ndarray:
    """Piecewise corrections (n, 2, 4) with prescribed value/flux jumps and
    zero edge means, for n cut elements at once.

    coef (n, m, 2, 4) and rows (n, m, 2, 4) are the elements' bases and
    _dof_rows, center (n, 2) their monomial centres, chords (n, 2, 2) the
    chord endpoints (D, E), n_h (n, 2) the chord normals and beta_plus (n,)
    the plus coefficients of the bases; g_D and g_N (n, 2) hold the jump
    data at (D, E). The value jump matches g_D at both endpoints, the
    weighted normal derivative jump at the chord midpoint equals the mean of
    g_N, every edge mean vanishes and, for rectangles, so does the curvature
    jump. The correction is w0 minus its edge means times the basis, w0
    being zero on the minus piece and, on the plus piece, the affine p with
    p(D) = g_D(D), p(E) = g_D(E) and beta_plus grad(p) . n_h = mean g_N.
    """
    n, m = coef.shape[:2]
    D, E = chords[:, 0], chords[:, 1]
    chord = E - D
    grad = ((g_D[:, 1] - g_D[:, 0]) / _rowdot(chord, chord))[:, None] * chord \
        + (0.5 * (g_N[:, 0] + g_N[:, 1]) / beta_plus)[:, None] * n_h
    w0 = np.zeros((n, 2, 4))
    w0[:, 0, 0] = g_D[:, 0] + _rowdot(grad, center - D)
    w0[:, 0, 1:3] = grad
    means = np.einsum("njsk,nsk->nj", rows, w0)
    return w0 - (means[:, None, :] @ coef.reshape(n, m, 8)).reshape(n, 2, 4)


def _common_vertex(e1: int, e2: int, nv: int) -> int:
    s1 = {e1, (e1 + 1) % nv}
    s2 = {e2, (e2 + 1) % nv}
    common = s1 & s2
    if len(common) != 1:
        raise UnisolvenceError("cut edges do not share exactly one vertex")
    return common.pop()


def _sm_preamble(cut: Cuts):
    """Geometry shared by the closed form and its stress checks, on the
    element cut, a Cuts batch of one.

    Returns (e1, e2, e3, lt, gamma, k, delta, sigma_iso): e1 and e2 are the
    local edges carrying D and E, e3 the uncut edge, A3 the vertex common to
    e1 and e2, lt the (3, 4) standard basis coefficients of (e1, e2, e3),
    gamma_i = grad(lt_i) . n_h, k_i = |A3 - D| / |e1| and |A3 - E| / |e2|,
    delta = (L_A3 / 2) k with L_A3 the signed distance of A3 from the chord,
    and sigma_iso the side of A3.
    """
    verts, D, n_h = cut.vertices[0], cut.D[0], cut.n_h[0]
    if len(verts) != 3:
        raise ValueError("closed-form path is for triangles")
    je = int(cut.loc_e[0]) // 2
    pos_d = int(cut.loc_d[0])
    if pos_d % 2:
        e1 = pos_d // 2
    else:
        iv = pos_d // 2
        cands = sorted({(iv - 1) % 3, iv} - {je})
        if not cands:
            raise UnisolvenceError("no admissible edge for the vertex chord endpoint")
        e1 = cands[0]
    e2 = je
    e3 = ({0, 1, 2} - {e1, e2}).pop()
    A3 = verts[_common_vertex(e1, e2, 3)]

    lt = standard_local_basis(verts)[[e1, e2, e3]]
    gamma = lt[:2, 1:3] @ n_h  # the gradients of affine functions are constant
    L_A3 = float(n_h @ (A3 - D))
    edge_len = [np.linalg.norm(verts[(i + 1) % 3] - verts[i]) for i in range(3)]
    k = np.array([np.linalg.norm(A3 - D) / edge_len[e1],
                  np.linalg.norm(A3 - cut.E[0]) / edge_len[e2]])
    delta = 0.5 * L_A3 * k
    return e1, e2, e3, lt, gamma, k, delta, 1 if (A3 - D) @ n_h >= 0.0 else -1


def ife_local_basis_cr_sm(cut: Cuts, beta_c_plus: float,
                          beta_c_minus: float) -> LocalIFEBasis:
    """Closed-form construction on triangles via a rank-one update, on the
    element cut, a Cuts batch of one.

    The piece on the sub-triangle cut off by the chord is the other piece
    plus a multiple of the chord's normal coordinate; the remaining 2x2
    system is inverted in closed form. Valid on arbitrary triangles.
    """
    if beta_c_plus <= 0 or beta_c_minus <= 0:
        raise ValueError("coefficients must be positive")
    e1, e2, e3, lt, gamma, _, delta, sigma_iso = _sm_preamble(cut)
    n_h = cut.n_h[0]
    beta_iso = beta_c_plus if sigma_iso > 0 else beta_c_minus
    beta_quad = beta_c_minus if sigma_iso > 0 else beta_c_plus
    rprime = beta_quad / beta_iso - 1.0
    gd = float(gamma @ delta)
    denom = 1.0 + rprime * gd
    if abs(denom) < 1e-14:
        raise UnisolvenceError(
            f"rank-one update denominator {denom:.3e} on element {cut.ids[0]}")

    g3 = float(lt[2, 1:3] @ n_h)
    # rank-one-update solve of (I + r' delta gamma^T) c = b for each unit DOF
    # vector Nt[i], reduced to its cancellation-free form: with
    # s = gamma_i (cut-edge DOFs) or g3 (uncut-edge DOF),
    # c = N_12 - (r' s / denom) delta and the chord slope q = r' s / denom.
    Nt = np.eye(3)[:, [e1, e2, e3]]
    s = g3 * Nt[:, 2] + Nt[:, :2] @ gamma
    q = rprime * s / denom
    quad = np.column_stack([Nt[:, :2] - np.outer(q, delta), Nt[:, 2]]) @ lt
    # the isolated piece adds q times the chord's normal coordinate n_h.(x - D)
    normal = [n_h @ (cut.vertices[0].mean(axis=0) - cut.D[0]), n_h[0], n_h[1], 0.0]
    iso = quad + np.outer(q, normal)
    coef = np.stack([iso, quad] if sigma_iso > 0 else [quad, iso], axis=1)
    return LocalIFEBasis(cut, beta_c_plus, beta_c_minus, coef)


def sm_geometry_checks(cut: Cuts, beta_c_plus: float, beta_c_minus: float):
    """(gamma.delta, k1*k2, coercivity-style lower-bound margin) for stress tests.

    gamma.delta comes from basis gradients and k1*k2 from edge-length ratios
    alone, so their agreement checks the closed form's geometry.
    """
    *_, gamma, k, delta, sigma_iso = _sm_preamble(cut)
    gd = float(gamma @ delta)
    beta_iso = beta_c_plus if sigma_iso > 0 else beta_c_minus
    beta_quad = beta_c_minus if sigma_iso > 0 else beta_c_plus
    ratio = beta_quad / beta_iso
    margin = (1.0 + (ratio - 1.0) * gd) - min(1.0, ratio)
    return gd, k[0] * k[1], margin


def edge_means(func: Callable, mesh, layout, ids) -> np.ndarray:
    """Means of a scalar function along the mesh edges ids.

    An interface edge of layout is integrated as the two sub-segments that
    meet at its crossing, each by the EDGE_NPTS-point rule; func is called
    once, on the points of every sub-segment.
    """
    ids = np.asarray(ids, dtype=int)
    a = mesh.nodes[mesh.edges[ids, 0]]
    b = mesh.nodes[mesh.edges[ids, 1]]
    at = np.searchsorted(layout.interface_edges, ids)
    split = np.append(layout.interface_edges, -1)[at] == ids
    whole = np.nonzero(~split)[0]
    cut = np.nonzero(split)[0]
    x = layout.crossings[at[cut]].reshape(-1, 2)
    p = np.concatenate([a[whole], a[cut], x])
    q = np.concatenate([b[whole], x, b[cut]])
    rule = segment_rule(EDGE_NPTS)
    pts = p[:, None, :] + rule.points[None, :, :] * (q - p)[:, None, :]
    seg = np.asarray(func(pts), float) @ rule.weights
    out = np.empty(len(ids))
    out[whole] = seg[:len(whole)]
    # a split edge's mean is the length-weighted sum of its two halves' means
    halves = (seg[len(whole):] * np.linalg.norm(q - p, axis=1)[len(whole):]).reshape(2, -1)
    out[cut] = (halves[0] + halves[1]) / np.linalg.norm(b[cut] - a[cut], axis=1)
    return out


def interpolate_ife(prob, mesh, layout) -> np.ndarray:
    """Edge-mean interpolant of the exact solution.

    Cut edges are integrated piecewise at the exact interface crossing; the
    solution piece is selected by the exact level-set sign.
    """
    return edge_means(prob.u_exact, mesh, layout, np.arange(mesh.n_edges))
