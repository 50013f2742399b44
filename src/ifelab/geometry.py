"""Level-set interface geometry: edge crossings and the chords of cut elements.

An interface element carries a straight chord between the two points where
the interface meets its boundary. Chord endpoints normally sit in the
interior of two distinct edges; they may also coincide with an element
vertex when the interface passes exactly through a mesh node (this happens
for the built-in circle problems whenever the node grid hits the circle, and
for straight interfaces through grid diagonals), in which case the chord
runs from that vertex to the single cut edge.

This module locates crossings on a batch of edges (``edge_cuts_batch``),
flags on-interface vertices, and cuts a batch of elements along their
chords into one stacked ``Cuts`` (``chord_cuts``). Which elements are cut,
and by which chord, is decided for the whole mesh in
``cutting.build_layout``; ``cut_from_chord`` cuts one element along a
prescribed chord.
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

    Returns (counts, lo, hi) where columns lo/hi bracket the first change
    (-1 without one).
    """
    n, k = values.shape
    nonzero, positive = values != 0, values > 0
    # the last nonzero sample at or before each column, as 2 column + (sign > 0)
    code = np.where(nonzero, 2 * np.arange(k, dtype=np.int16) + positive, np.int16(-1))
    last = np.maximum.accumulate(code, axis=1)[:, :-1]
    change = nonzero[:, 1:] & (last >= 0) & (positive[:, 1:] != (last % 2 == 1))
    counts = change.sum(axis=1)
    first = np.argmax(change, axis=1)
    lo = np.where(counts > 0, last[np.arange(n), first] // 2, -1).astype(int)
    hi = np.where(counts > 0, first + 1, -1)
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


def on_interface_vertices(phi: np.ndarray, grad_norm: np.ndarray, h: float) -> np.ndarray:
    """Boolean mask of the vertices lying on the interface (within roundoff),
    given phi and |grad phi| at them."""
    return np.abs(phi) <= VERTEX_TOL_REL * h * np.maximum(grad_norm, 1e-300)


def _rowdot(a, b):
    """Row-wise a . b of (n, k) arrays as a stack of matrix products, which
    round like the 1-D a @ b behind np.linalg.norm of one vector; a sum of
    squared components can differ from it in the last bit."""
    return (a[:, None, :] @ b[..., None])[..., 0, 0]


@dataclass(frozen=True)
class Cuts:
    """Stacked cut data of n interface elements, in ascending element id.

    Element i has the CCW vertices vertices[i] and the chord D[i]-E[i], whose
    unit normal n_h[i] points to the plus side. loc_d and loc_e place each
    chord end on the element's boundary walk: 2j is vertex j and 2j + 1 the
    interior of edge j (E lies inside an edge, or at the vertex opposite D
    of a rectangle cut along its diagonal). The two sub-polygons of
    every element, plus then minus, are stacked in polys with their vertex
    counts in sizes, the input of quadrature.polygons_points_weights.
    """

    ids: np.ndarray         # (n,) element ids
    vertices: np.ndarray    # (n, nv, 2)
    D: np.ndarray           # (n, 2)
    E: np.ndarray           # (n, 2)
    n_h: np.ndarray         # (n, 2)
    loc_d: np.ndarray       # (n,) boundary-walk positions of D and E
    loc_e: np.ndarray
    polys: np.ndarray       # (sizes.sum(), 2) sub-polygon vertices, CCW
    sizes: np.ndarray       # (n, 2) vertex counts of the plus and minus parts

    def __len__(self) -> int:
        return len(self.ids)


def chord_cuts(ids, vertices, loc_d, D, loc_e, E, plus_side=None) -> Cuts:
    """Cut the elements ids along their chords D-E, all at once; the one
    constructor of Cuts.

    n_h starts as each chord direction rotated by -pi/2 and is flipped where
    ``plus_side(n_h, h_T)`` (n,) is negative, h_T being the element diameters.
    Raises GeometryError naming the first element whose chord is shorter
    than 1e-12 h_T or has both ends on the closure of one edge, where one
    sub-polygon would have no area.
    """
    ids = np.asarray(ids, dtype=int)
    vertices = np.asarray(vertices, float)
    loc_d = np.asarray(loc_d, dtype=int)
    loc_e = np.asarray(loc_e, dtype=int)
    n, nv = vertices.shape[:2]
    h_T = np.sqrt(((vertices[:, :, None] - vertices[:, None]) ** 2).sum(-1)).max(axis=(1, 2))
    chord = E - D
    lc = np.sqrt(_rowdot(chord, chord))
    short = lc < 1e-12 * h_T
    # edge j's closure is the walk positions 2j, 2j + 1 and 2j + 2: two ends
    # share one when at most one step apart, or two steps apart at vertices
    gap = np.abs(loc_e - loc_d)
    one_edge = np.minimum(gap, 2 * nv - gap) <= np.where(loc_d % 2 == 0, 2, 1)
    if (short | one_edge).any():
        i = int(np.argmax(short | one_edge))
        if short[i]:
            raise GeometryError(f"degenerate chord |DE|={lc[i]:.3e} in element {ids[i]}")
        raise GeometryError(f"degenerate chord in element {ids[i]}: both ends lie on "
                            "the closure of one edge")
    n_h = np.stack([chord[:, 1], -chord[:, 0]], axis=1) / lc[:, None]
    if plus_side is not None:
        n_h = np.where((np.asarray(plus_side(n_h, h_T)) < 0)[:, None], -n_h, n_h)

    # walk the boundary once round from D: D, the vertices and E in CCW
    # order, D again; the part up to E is one sub-polygon, the rest the other
    slot = (loc_d[:, None] + np.arange(1, 2 * nv)) % (2 * nv)
    at_e = slot == loc_e[:, None]
    walk = np.where(at_e[..., None], E[:, None], vertices[np.arange(n)[:, None], slot // 2])
    seq = np.concatenate([D[:, None], walk, D[:, None]], axis=1)
    used = np.pad((slot % 2 == 0) | at_e, ((0, 0), (1, 1)), constant_values=True)
    col = np.arange(2 * nv + 1)
    i_e = 1 + np.argmax(at_e, axis=1)[:, None]
    to_e = used & (col <= i_e)
    from_e = used & (col >= i_e)
    # the part whose farthest vertex from the chord line lies on the plus
    # side of it is the plus part
    s = np.where(to_e, ((seq - D[:, None]) @ n_h[..., None])[..., 0], 0.0)
    far = np.take_along_axis(s, np.argmax(np.abs(s), axis=1)[:, None], axis=1)
    parts = np.where((far > 0)[..., None], np.stack([to_e, from_e], axis=1),
                     np.stack([from_e, to_e], axis=1))
    polys = np.broadcast_to(seq[:, None], (n, 2) + seq.shape[1:])[parts]
    return Cuts(ids, vertices, D, E, n_h, loc_d, loc_e, polys, parts.sum(axis=2))


def cut_from_chord(vertices, loc_d, t_d, loc_e, t_e, plus_toward=None, elem_id=0) -> Cuts:
    """Cut one element along a prescribed chord, without a level set: a
    Cuts batch of one.

    loc_d/loc_e are ('edge', i) with parameter t along edge i, or ('vertex', i).
    plus_toward: a point declared to be on the plus side. Without it, n_h is
    the chord direction D->E rotated by -pi/2.
    """
    vertices = np.asarray(vertices, float)
    nv = len(vertices)

    def locate(loc, t):
        kind, i = loc
        if kind == "vertex":
            return 2 * i, vertices[i]
        return 2 * i + 1, vertices[i] + t * (vertices[(i + 1) % nv] - vertices[i])

    (pd, D), (pe, E) = locate(loc_d, t_d), locate(loc_e, t_e)
    plus_side = None
    if plus_toward is not None:
        def plus_side(n, h):
            return _rowdot(np.asarray(plus_toward, float) - D[None], n)
    return chord_cuts([elem_id], vertices[None], [pd], D[None], [pe], E[None], plus_side)
