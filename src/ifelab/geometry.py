"""Level-set interface geometry: edge crossings and the chord of a cut element.

An interface element carries a straight chord between the two points where
the interface meets its boundary. Chord endpoints normally sit in the
interior of two distinct edges; they may also coincide with an element
vertex when the interface passes exactly through a mesh node (this happens
for the built-in circle problems whenever the node grid hits the circle, and
for straight interfaces through grid diagonals), in which case the chord
runs from that vertex to the single cut edge.

This module locates crossings on a batch of edges (``edge_cuts_batch``),
flags on-interface vertices, and builds a ``CutElement`` from a chord
(``chord_cut``). Which elements are cut, and by which chord, is decided for
the whole mesh in ``cutting.build_layout``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

SNAP_REL = 1e-10           # endpoint snap threshold, relative to edge length
VERTEX_TOL_REL = 1e-12     # |phi(v)| <= tol * h * |grad phi(v)| marks an on-interface vertex
BISECT_ITERS = 50          # parameter accuracy 2^-50 ~ 9e-16 < 1e-13
N_SAMPLES = 17             # 16 sub-intervals for multi-crossing detection

INTERIOR_PLUS = 1
INTERIOR_MINUS = -1
INTERFACE = 0


class GeometryError(RuntimeError):
    """Inconsistent or degenerate cut geometry."""


class MeshResolutionError(GeometryError):
    """The mesh is too coarse for the interface (multiple crossings per edge)."""


@dataclass(frozen=True)
class LevelSet:
    """Analytic level set: phi < 0 inside, phi > 0 outside, phi = 0 on the interface.

    Both callables are vectorized: phi maps (..., 2) -> (...) and grad maps
    (..., 2) -> (..., 2).
    """

    phi: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]

    def unit_normal(self, x) -> np.ndarray:
        """Exact unit normal grad(phi)/|grad(phi)|, pointing toward phi > 0."""
        g = np.asarray(self.grad(np.asarray(x, float)), float)
        return g / np.linalg.norm(g, axis=-1, keepdims=True)


def _sign_change_spans(values: np.ndarray):
    """Count strict sign changes per row, ignoring zeros.

    Returns (counts, lo, hi) where columns lo/hi bracket the first change.
    """
    s = np.sign(values)
    n = values.shape[0]
    counts = np.zeros(n, dtype=int)
    last = np.zeros(n)
    last_idx = np.full(n, -1)
    lo = np.full(n, -1)
    hi = np.full(n, -1)
    for k in range(values.shape[1]):
        sk = s[:, k]
        active = sk != 0
        change = active & (last != 0) & (sk != last)
        first = change & (counts == 0)
        lo[first] = last_idx[first]
        hi[first] = k
        counts[change] += 1
        last[active] = sk[active]
        last_idx[active] = k
    return counts, lo, hi


def edge_cuts_batch(p0: np.ndarray, p1: np.ndarray, ls: LevelSet):
    """Vectorized interface crossing for a batch of straight edges.

    Returns (has_cut, t, snapped, endpoint): whether each edge p0 -> p1 has
    one crossing, its parameter t along the edge, and whether it lies within
    SNAP_REL of an endpoint (then snapped, with endpoint 0 or 1), in which
    case callers treat it as a touch of that vertex. Raises
    MeshResolutionError when a 16-point sampling of any edge shows more than
    one sign change.
    """
    p0 = np.atleast_2d(np.asarray(p0, float))
    p1 = np.atleast_2d(np.asarray(p1, float))
    n = p0.shape[0]
    ts = np.linspace(0.0, 1.0, N_SAMPLES)
    pts = p0[:, None, :] + ts[None, :, None] * (p1 - p0)[:, None, :]
    vals = np.asarray(ls.phi(pts), float)
    counts, lo, hi = _sign_change_spans(vals)
    if np.any(counts > 1):
        bad = int(np.argmax(counts > 1))
        raise MeshResolutionError(
            f"edge {p0[bad]}->{p1[bad]} crosses the interface more than once; "
            "mesh too coarse for interface")
    # an exactly-zero endpoint together with an interior crossing means the
    # edge closure meets the interface twice
    endpoint_zero = (vals[:, 0] == 0.0) | (vals[:, -1] == 0.0)
    if np.any(endpoint_zero & (counts == 1)):
        bad = int(np.argmax(endpoint_zero & (counts == 1)))
        raise MeshResolutionError(
            f"edge {p0[bad]}->{p1[bad]} meets the interface at an endpoint and "
            "in its interior; mesh too coarse for interface")

    has_cut = counts == 1
    t = np.zeros(n)
    if np.any(has_cut):
        idx = np.nonzero(has_cut)[0]
        a = ts[lo[idx]]
        b = ts[hi[idx]]
        fa = vals[idx, lo[idx]]
        seg0 = p0[idx]
        seg1 = p1[idx]
        for _ in range(BISECT_ITERS):
            m = 0.5 * (a + b)
            fm = np.asarray(ls.phi(seg0 + m[:, None] * (seg1 - seg0)), float)
            left = fa * fm <= 0.0
            b = np.where(left, m, b)
            a = np.where(left, a, m)
            fa = np.where(left, fa, fm)
        t[idx] = 0.5 * (a + b)
    snapped = has_cut & ((t < SNAP_REL) | (t > 1.0 - SNAP_REL))
    endpoint = np.where(t < 0.5, 0, 1)
    return has_cut, t, snapped, endpoint


def on_interface_vertices(vertices: np.ndarray, ls: LevelSet, h: float) -> np.ndarray:
    """Boolean mask of vertices lying on the interface (within roundoff)."""
    v = np.asarray(vertices, float)
    phi = np.abs(np.asarray(ls.phi(v), float))
    gn = np.linalg.norm(np.asarray(ls.grad(v), float), axis=-1)
    return phi <= VERTEX_TOL_REL * h * np.maximum(gn, 1e-300)


@dataclass
class CutElement:
    """Per-element interface data: chord endpoints, orientation, sub-polygons."""

    elem_id: int
    vertices: np.ndarray          # element vertex coordinates, CCW
    D: np.ndarray
    E: np.ndarray
    n_h: np.ndarray               # unit normal of chord DE, toward the plus side
    t_h: np.ndarray               # n_h rotated by +pi/2
    x_p: np.ndarray               # chord midpoint
    poly_plus: np.ndarray         # CCW sub-polygon on the plus side
    poly_minus: np.ndarray
    loc_d: tuple                  # ('edge', local_edge) or ('vertex', local_vertex)
    loc_e: tuple                  # always ('edge', local_edge)
    h_T: float

    def side_of(self, x) -> np.ndarray:
        """+1 on the plus side of the chord line, -1 otherwise (ties go to +)."""
        x = np.asarray(x, float)
        s = (x - self.D) @ self.n_h
        return np.where(s >= 0.0, 1, -1)


def element_size(vertices: np.ndarray) -> float:
    v = np.asarray(vertices, float)
    d = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).max())


def _split_by_chord(vertices, loc_d, D, loc_e, E, n_h):
    """Split a convex CCW polygon along the chord D-E into (plus, minus) parts."""
    nv = len(vertices)
    cycle = []
    for i in range(nv):
        if loc_d == ("vertex", i):
            cycle.append(("D", D))
        else:
            cycle.append((None, vertices[i]))
        for tag, loc, pt in (("D", loc_d, D), ("E", loc_e, E)):
            if loc == ("edge", i):
                cycle.append((tag, pt))
    tags = [c[0] for c in cycle]
    i_d, i_e = tags.index("D"), tags.index("E")
    m = len(cycle)

    def chain(a, b):
        out = [cycle[a][1]]
        k = a
        while k != b:
            k = (k + 1) % m
            out.append(cycle[k][1])
        return np.array(out)

    poly1 = chain(i_d, i_e)
    poly2 = chain(i_e, i_d)
    # the chain with vertices on the positive side of the chord is the plus part
    s1 = (poly1 - D) @ n_h
    if s1[np.argmax(np.abs(s1))] > 0:
        return poly1, poly2
    return poly2, poly1


def chord_cut(elem_id, vertices, loc_d, D, loc_e, E, plus_side=None) -> CutElement:
    """Build the CutElement of the chord D-E; the one constructor of a cut.

    loc_d/loc_e are ('edge', i) or ('vertex', i), the local position of each
    endpoint. n_h starts as the chord direction rotated by -pi/2 and is
    flipped when ``plus_side(n_h, h_T)`` is negative, so plus_side returns a
    value whose sign says whether a candidate normal points to the plus side.
    """
    vertices = np.asarray(vertices, float)
    D = np.asarray(D, float)
    E = np.asarray(E, float)
    h_T = element_size(vertices)
    chord = E - D
    lc = np.linalg.norm(chord)
    if lc < 1e-12 * h_T:
        raise GeometryError(f"degenerate chord |DE|={lc:.3e} in element {elem_id}")
    u = chord / lc
    n_h = np.array([u[1], -u[0]])
    if plus_side is not None and plus_side(n_h, h_T) < 0:
        n_h = -n_h
    t_h = np.array([-n_h[1], n_h[0]])  # rotation of n_h by +pi/2
    poly_plus, poly_minus = _split_by_chord(vertices, loc_d, D, loc_e, E, n_h)
    return CutElement(
        elem_id=elem_id, vertices=vertices, D=D, E=E, n_h=n_h, t_h=t_h,
        x_p=0.5 * (D + E), poly_plus=poly_plus, poly_minus=poly_minus,
        loc_d=loc_d, loc_e=loc_e, h_T=h_T)


def cut_from_chord(vertices, loc_d, t_d, loc_e, t_e, plus_toward=None, elem_id=0) -> CutElement:
    """Build a CutElement from a prescribed chord, without a level set.

    loc_d/loc_e are ('edge', i) with parameter t along edge i, or ('vertex', i).
    plus_toward: a point declared to be on the plus side. Without it, n_h is
    the chord direction D->E rotated by -pi/2.
    """
    vertices = np.asarray(vertices, float)
    nv = len(vertices)

    def locate(loc, t):
        kind, i = loc
        if kind == "vertex":
            return vertices[i].copy()
        a, b = vertices[i], vertices[(i + 1) % nv]
        return a + t * (b - a)

    D = locate(loc_d, t_d)
    E = locate(loc_e, t_e)

    def plus_side(n, h):
        return (np.asarray(plus_toward, float) - D) @ n

    return chord_cut(elem_id, vertices, loc_d, D, loc_e, E,
                     None if plus_toward is None else plus_side)
