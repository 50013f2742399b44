"""Local shape spaces and immersed basis construction on cut elements.

Two element families share one edge-mean DOF layout: linear triangles (kind
'cr') and rotated bilinear rectangles (kind 'rq1', span {1, x1, x2,
x1^2 - (kappa*x2)^2}). On interface elements the basis is piecewise with the
two polynomial pieces glued along the chord: values match at both chord
endpoints, the rq1 curvature coefficients match, and the weighted normal
derivative is continuous at the chord midpoint. Basis functions stay dual to
the edge means, with cut edges integrated piecewise.

Two constructions are provided for triangles: a closed-form rank-one-update
solve and a dense solve. The dense solve is the reference path and the only
one for rectangles.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np

from .geometry import CutElement
from .quadrature import segment_rule

CR = "cr"
RQ1 = "rq1"

_MEAN_NPTS = 4  # exact for the quadratic monomials along any straight edge


class UnisolvenceError(RuntimeError):
    """The local DOF system is singular or numerically unreliable."""


@dataclass(frozen=True)
class LocalPoly:
    """a + b*(x-cx) + c*(y-cy) + d*((x-cx)^2 - kappa^2*(y-cy)^2)."""

    a: float
    b: float
    c: float
    d: float = 0.0
    center: Tuple[float, float] = (0.0, 0.0)
    kappa: float = 1.0

    def value(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        dx = x[..., 0] - self.center[0]
        dy = x[..., 1] - self.center[1]
        return self.a + self.b * dx + self.c * dy + self.d * (dx ** 2 - (self.kappa * dy) ** 2)

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, float)
        dx = x[..., 0] - self.center[0]
        dy = x[..., 1] - self.center[1]
        gx = self.b + 2.0 * self.d * dx
        gy = self.c - 2.0 * self.d * self.kappa ** 2 * dy
        return np.stack([gx + 0.0 * dx, gy + 0.0 * dy], axis=-1)

    def shifted(self, const: float, gx: float, gy: float) -> "LocalPoly":
        """Add the affine function const + gx*x + gy*y (global coordinates)."""
        a = self.a + const + gx * self.center[0] + gy * self.center[1]
        return LocalPoly(a, self.b + gx, self.c + gy, self.d, self.center, self.kappa)


def poly_combine(coeffs, polys: List[LocalPoly]) -> LocalPoly:
    a = sum(c * p.a for c, p in zip(coeffs, polys))
    b = sum(c * p.b for c, p in zip(coeffs, polys))
    cc = sum(c * p.c for c, p in zip(coeffs, polys))
    d = sum(c * p.d for c, p in zip(coeffs, polys))
    ref = polys[0]
    return LocalPoly(a, b, cc, d, ref.center, ref.kappa)


def _monomials(kind: str, center, kappa: float) -> List[LocalPoly]:
    base = [LocalPoly(1, 0, 0, 0, center, kappa),
            LocalPoly(0, 1, 0, 0, center, kappa),
            LocalPoly(0, 0, 1, 0, center, kappa)]
    if kind == RQ1:
        base.append(LocalPoly(0, 0, 0, 1, center, kappa))
    return base


def _edge_mean_rows(monos, a, b, npts=_MEAN_NPTS):
    """Mean values of the monomials along segment a->b (unit edge weight)."""
    rule = segment_rule(npts)
    pts = np.asarray(a, float) + rule.points * (np.asarray(b, float) - np.asarray(a, float))
    return np.array([float(rule.weights @ m.value(pts)) for m in monos])


def standard_local_basis(vertices, kind: str, kappa: float = 1.0) -> List[LocalPoly]:
    """Basis of the uncut local space, dual to the edge means.

    Triangles come from the closed form 1 - 2*mu with mu the barycentric
    coordinate of the vertex opposite the edge; rectangles from a 4x4 solve.
    """
    verts = np.asarray(vertices, float)
    center = tuple(verts.mean(axis=0))
    if kind == CR:
        if verts.shape[0] != 3:
            raise ValueError("cr needs a triangle")
        # barycentric coordinates as affine functions
        A = np.column_stack([np.ones(3), verts])
        mu = np.linalg.solve(A, np.eye(3))  # columns: (const, gx, gy) per vertex
        out = []
        for i in range(3):
            opp = (i + 2) % 3  # vertex opposite edge (v_i, v_{i+1})
            c0, gx, gy = mu[:, opp]
            out.append(LocalPoly(0, 0, 0, 0, center, kappa).shifted(1.0 - 2.0 * c0,
                                                                    -2.0 * gx, -2.0 * gy))
        return out
    if kind == RQ1:
        if verts.shape[0] != 4:
            raise ValueError("rq1 needs a rectangle")
        monos = _monomials(RQ1, center, kappa)
        A = np.array([_edge_mean_rows(monos, verts[i], verts[(i + 1) % 4])
                      for i in range(4)])
        try:
            coef = np.linalg.solve(A, np.eye(4))
        except np.linalg.LinAlgError as err:
            raise UnisolvenceError("degenerate rectangle") from err
        return [poly_combine(coef[:, i], monos) for i in range(4)]
    raise ValueError(f"unknown kind {kind!r}")


@dataclass
class LocalIFEBasis:
    """Edge-mean-dual basis on one interface element, piecewise along the chord."""

    cut: CutElement
    kind: str
    beta_c_plus: float
    beta_c_minus: float
    funcs: List[Tuple[LocalPoly, LocalPoly]]  # (plus piece, minus piece) per DOF

    @property
    def n_dofs(self) -> int:
        return len(self.funcs)

    def value(self, i: int, x) -> np.ndarray:
        side = self.cut.side_of(x)
        plus, minus = self.funcs[i]
        return np.where(side > 0, plus.value(x), minus.value(x))

    def grad(self, i: int, x) -> np.ndarray:
        side = self.cut.side_of(x)
        plus, minus = self.funcs[i]
        return np.where((side > 0)[..., None], plus.grad(x), minus.grad(x))


def _split_edges(cut: CutElement):
    """Map local edge -> split point for edges carrying a chord endpoint."""
    splits = {}
    if cut.loc_d[0] == "edge":
        splits[cut.loc_d[1]] = cut.D
    splits[cut.loc_e[1]] = cut.E
    return splits


def _dof_rows(cut: CutElement, monos, n_unknowns):
    """Edge-mean rows of the coupled (plus, minus) system, split at the chord."""
    verts = cut.vertices
    nv = len(verts)
    k = len(monos)
    splits = _split_edges(cut)
    rows = np.zeros((nv, n_unknowns))
    for j in range(nv):
        a, b = verts[j], verts[(j + 1) % nv]
        length = np.linalg.norm(b - a)
        segs = [(a, b)]
        if j in splits:
            p = splits[j]
            segs = [(a, p), (p, b)]
        for p, q in segs:
            seg_len = np.linalg.norm(q - p)
            if seg_len == 0.0:
                continue
            side = int(cut.side_of(0.5 * (p + q)))
            block = 0 if side > 0 else k
            rows[j, block:block + k] += _edge_mean_rows(monos, p, q) * (seg_len / length)
    return rows


def _constraint_rows(cut: CutElement, monos, kind):
    k = len(monos)
    n = 2 * k
    rows = []
    for pt in (cut.D, cut.E):
        r = np.zeros(n)
        vals = np.array([m.value(pt) for m in monos])
        r[:k] = vals
        r[k:] = -vals
        rows.append(r)
    if kind == RQ1:
        r = np.zeros(n)
        r[3] = 1.0
        r[k + 3] = -1.0
        rows.append(r)
    return rows


def _flux_row(cut: CutElement, monos, beta_p, beta_m):
    k = len(monos)
    r = np.zeros(2 * k)
    gn = np.array([m.grad(cut.x_p) @ cut.n_h for m in monos])
    r[:k] = beta_p * gn
    r[k:] = -beta_m * gn
    return r


def _solve_local(cut: CutElement, kind, beta_p, beta_m, kappa, rhs_cols):
    center = tuple(np.asarray(cut.vertices, float).mean(axis=0))
    monos = _monomials(kind, center, kappa)
    k = len(monos)
    n = 2 * k
    rows = _constraint_rows(cut, monos, kind)
    rows.append(_flux_row(cut, monos, beta_p, beta_m))
    A = np.vstack(rows + [_dof_rows(cut, monos, n)])
    cond = np.linalg.cond(A)
    if not np.isfinite(cond):
        raise UnisolvenceError(f"singular local system on element {cut.elem_id}")
    if cond > 1e12:
        warnings.warn(f"badly conditioned local system (cond={cond:.2e}) "
                      f"on element {cut.elem_id}", RuntimeWarning, stacklevel=3)
    try:
        sol = np.linalg.solve(A, rhs_cols)
        sol += np.linalg.solve(A, rhs_cols - A @ sol)  # one refinement step
    except np.linalg.LinAlgError as err:
        raise UnisolvenceError(f"singular local system on element {cut.elem_id}") from err
    pieces = []
    for col in sol.T:
        plus = poly_combine(col[:k], monos)
        minus = poly_combine(col[k:], monos)
        pieces.append((plus, minus))
    return pieces


def ife_local_basis_direct(cut: CutElement, kind: str, beta_c_plus: float,
                           beta_c_minus: float, kappa: float = 1.0) -> LocalIFEBasis:
    """Dense-solve construction of the immersed basis (reference path)."""
    if beta_c_plus <= 0 or beta_c_minus <= 0:
        raise ValueError("coefficients must be positive")
    nv = len(cut.vertices)
    n_con = 3 if kind == CR else 4  # value at D, at E, [d] (rq1 only), flux
    rhs = np.zeros((n_con + nv, nv))
    rhs[n_con:, :] = np.eye(nv)
    pieces = _solve_local(cut, kind, beta_c_plus, beta_c_minus, kappa, rhs)
    return LocalIFEBasis(cut, kind, beta_c_plus, beta_c_minus, pieces)


def jump_correction_local(cut: CutElement, kind: str, beta_c_plus: float,
                          beta_c_minus: float, g_D: Callable, g_N: Callable,
                          kappa: float = 1.0) -> Tuple[LocalPoly, LocalPoly]:
    """Piecewise correction with prescribed value/flux jumps and zero edge means.

    The value jump matches g_D at both chord endpoints, the weighted normal
    derivative jump at the chord midpoint equals the average of g_N at the
    endpoints, and every edge mean vanishes. For rectangles the curvature
    jump is closed with zero.
    """
    nv = len(cut.vertices)
    n_con = 3 if kind == CR else 4
    rhs = np.zeros((n_con + nv, 1))
    rhs[0, 0] = float(g_D(cut.D))
    rhs[1, 0] = float(g_D(cut.E))
    rhs[n_con - 1, 0] = 0.5 * (float(g_N(cut.D)) + float(g_N(cut.E)))
    pieces = _solve_local(cut, kind, beta_c_plus, beta_c_minus, kappa, rhs)
    return pieces[0]


def _common_vertex(e1: int, e2: int, nv: int) -> int:
    s1 = {e1, (e1 + 1) % nv}
    s2 = {e2, (e2 + 1) % nv}
    common = s1 & s2
    if len(common) != 1:
        raise UnisolvenceError("cut edges do not share exactly one vertex")
    return common.pop()


def _sm_preamble(cut: CutElement):
    """Geometry shared by the closed form and its stress checks.

    Returns (e1, e2, e3, A3, lt, gamma, k, delta, sigma_iso): e1 and e2 are
    the local edges carrying D and E, e3 the uncut edge, A3 the vertex common
    to e1 and e2, lt the standard basis functions of (e1, e2, e3),
    gamma_i = grad(lt_i) . n_h, k_i = |A3 - D| / |e1| and |A3 - E| / |e2|,
    delta = (L_A3 / 2) k with L_A3 the signed distance of A3 from the chord,
    and sigma_iso the side of A3.
    """
    verts = cut.vertices
    if len(verts) != 3:
        raise ValueError("closed-form path is for triangles")
    je = cut.loc_e[1]
    if cut.loc_d[0] == "edge":
        e1 = cut.loc_d[1]
    else:
        iv = cut.loc_d[1]
        cands = sorted({(iv - 1) % 3, iv} - {je})
        if not cands:
            raise UnisolvenceError("no admissible edge for the vertex chord endpoint")
        e1 = cands[0]
    e2 = je
    e3 = ({0, 1, 2} - {e1, e2}).pop()
    A3 = verts[_common_vertex(e1, e2, 3)]

    lam = standard_local_basis(verts, CR)
    lt = [lam[e1], lam[e2], lam[e3]]
    n_h = cut.n_h
    gamma = np.array([lt[0].grad(A3) @ n_h, lt[1].grad(A3) @ n_h])
    L_A3 = float(n_h @ (A3 - cut.D))
    edge_len = [np.linalg.norm(verts[(i + 1) % 3] - verts[i]) for i in range(3)]
    k = np.array([np.linalg.norm(A3 - cut.D) / edge_len[e1],
                  np.linalg.norm(A3 - cut.E) / edge_len[e2]])
    delta = 0.5 * L_A3 * k
    return e1, e2, e3, A3, lt, gamma, k, delta, int(cut.side_of(A3))


def ife_local_basis_cr_sm(cut: CutElement, beta_c_plus: float,
                          beta_c_minus: float) -> LocalIFEBasis:
    """Closed-form construction on triangles via a rank-one update.

    The piece on the sub-triangle cut off by the chord is the other piece
    plus a multiple of the chord's normal coordinate; the remaining 2x2
    system is inverted in closed form. Valid on arbitrary triangles.
    """
    if beta_c_plus <= 0 or beta_c_minus <= 0:
        raise ValueError("coefficients must be positive")
    e1, e2, e3, A3, lt, gamma, _, delta, sigma_iso = _sm_preamble(cut)
    n_h = cut.n_h
    beta_iso = beta_c_plus if sigma_iso > 0 else beta_c_minus
    beta_quad = beta_c_minus if sigma_iso > 0 else beta_c_plus
    rprime = beta_quad / beta_iso - 1.0
    gd = float(gamma @ delta)
    denom = 1.0 + rprime * gd
    if abs(denom) < 1e-14:
        raise UnisolvenceError(
            f"rank-one update denominator {denom:.3e} on element {cut.elem_id}")

    g3 = float(lt[2].grad(A3) @ n_h)
    funcs = []
    for i in range(3):
        Nt = np.array([1.0 if i == e1 else 0.0,
                       1.0 if i == e2 else 0.0,
                       1.0 if i == e3 else 0.0])
        # rank-one-update solve of (I + r' delta gamma^T) c = b for a unit DOF
        # vector, reduced to its cancellation-free form: with
        # s = gamma_i (cut-edge DOFs) or g3 (uncut-edge DOF),
        # c = N_12 - (r' s / denom) delta and the chord slope c0 = r' s / denom.
        s = g3 * Nt[2] + float(gamma @ Nt[:2])
        q = rprime * s / denom
        c = Nt[:2] - q * delta
        quad = poly_combine([c[0], c[1], Nt[2]], lt)
        c0 = q
        iso = quad.shifted(-c0 * float(n_h @ cut.D), c0 * n_h[0], c0 * n_h[1])
        funcs.append((iso, quad) if sigma_iso > 0 else (quad, iso))
    return LocalIFEBasis(cut, CR, beta_c_plus, beta_c_minus, funcs)


def sm_geometry_checks(cut: CutElement, beta_c_plus: float, beta_c_minus: float):
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


def edge_mean_of(func: Callable, a, b, split=None, npts: int = 5) -> float:
    """Mean of a scalar function along an edge, optionally split at one point."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    rule = segment_rule(npts)
    total = 0.0
    segs = [(a, b)] if split is None else [(a, np.asarray(split, float)),
                                          (np.asarray(split, float), b)]
    for p, q in segs:
        seg = np.linalg.norm(q - p)
        if seg == 0.0:
            continue
        pts = p + rule.points * (q - p)
        total += float(rule.weights @ np.asarray(func(pts), float)) * seg
    return total / np.linalg.norm(b - a)


def edge_means(func: Callable, mesh, edge_splits, ids, npts: int = 5) -> np.ndarray:
    """Means of a scalar function along the mesh edges ids.

    An edge in edge_splits is integrated as the two sub-segments that meet at
    its interface crossing; func is called once, on the points of every
    sub-segment.
    """
    ids = np.asarray(ids, dtype=int)
    a = mesh.nodes[mesh.edges[ids, 0]]
    b = mesh.nodes[mesh.edges[ids, 1]]
    split = np.isin(ids, list(edge_splits))
    whole = np.nonzero(~split)[0]
    cut = np.nonzero(split)[0]
    x = np.array([edge_splits[int(e)] for e in ids[cut]]).reshape(-1, 2)
    p = np.concatenate([a[whole], a[cut], x])
    q = np.concatenate([b[whole], x, b[cut]])
    rule = segment_rule(npts)
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
    return edge_means(prob.u_exact, mesh, layout.edge_splits, np.arange(mesh.n_edges))
