"""Numerical integration on segments, triangles and convex polygons.

Segments use Gauss-Legendre rules. Triangles use a conical-product rule
(Gauss-Jacobi x Gauss-Legendre), exact for any requested total degree.
Convex polygons, rectangles among them, are fan-triangulated from their
centroid, any number of polygons in one call. The module returns points and
weights; callers evaluate their integrands on all points at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference region."""

    points: np.ndarray  # (n, dim)
    weights: np.ndarray  # (n,)


@lru_cache(maxsize=None)
def segment_rule(npts: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1]; exact for degree <= 2*npts - 1."""
    if npts < 1:
        raise ValueError("npts must be >= 1")
    x, w = leggauss(npts)
    return QuadratureRule((x[:, None] + 1.0) / 2.0, w / 2.0)


@lru_cache(maxsize=None)
def reference_triangle_rule(degree: int) -> QuadratureRule:
    """Conical-product rule on the triangle (0,0),(1,0),(0,1).

    Gauss-Jacobi (weight 1-u) in the collapsed direction times
    Gauss-Legendre; exact for total degree <= degree with positive weights.
    """
    from scipy.special import roots_jacobi

    n = max(1, (degree + 2) // 2)
    tj, wj = roots_jacobi(n, 1.0, 0.0)
    u = (tj + 1.0) / 2.0
    wu = wj / 4.0  # absorbs the (1-u) weight on [0,1]
    tl, wl = leggauss(n)
    v = (tl + 1.0) / 2.0
    wv = wl / 2.0
    uu, vv = np.meshgrid(u, v, indexing="ij")
    pts = np.column_stack([uu.ravel(), (vv * (1.0 - uu)).ravel()])
    wts = np.outer(wu, wv).ravel()
    return QuadratureRule(pts, wts)


def _map_triangles(tris: np.ndarray, ref: QuadratureRule):
    """Points (..., nr, 2) and weights (..., nr) of the reference rule mapped
    onto the triangles tris (..., 3, 2)."""
    a, b, c = tris[..., 0, None, :], tris[..., 1, None, :], tris[..., 2, None, :]
    pts = a + ref.points[:, :1] * (b - a) + ref.points[:, 1:] * (c - a)
    ab, ac = tris[..., 1, :] - tris[..., 0, :], tris[..., 2, :] - tris[..., 0, :]
    det = np.abs(ab[..., 0] * ac[..., 1] - ab[..., 1] * ac[..., 0])
    return pts, ref.weights * det[..., None]


def polygon_area(poly: np.ndarray):
    """Signed shoelace area (positive for counterclockwise vertices) of the
    polygons poly (..., k, 2)."""
    p = np.asarray(poly, float)
    x, y = p[..., 0], p[..., 1]
    return 0.5 * np.sum(x * np.roll(y, -1, axis=-1) - np.roll(x, -1, axis=-1) * y, axis=-1)


def _centroids(p: np.ndarray) -> np.ndarray:
    """Centroids (g, 2) of the polygons p (g, k, 2); the vertex mean where
    the area vanishes."""
    a = polygon_area(p)
    x, y = p[..., 0], p[..., 1]
    xn, yn = np.roll(x, -1, axis=-1), np.roll(y, -1, axis=-1)
    cross = x * yn - xn * y
    c = np.stack([np.sum((x + xn) * cross, axis=-1), np.sum((y + yn) * cross, axis=-1)], -1)
    flat = np.abs(a) < 1e-300
    with np.errstate(divide="ignore", invalid="ignore"):
        c = c / (6.0 * a[:, None])
    c[flat] = p[flat].mean(axis=1)
    return c


def polygons_points_weights(verts: np.ndarray, sizes: np.ndarray, degree: int):
    """Quadrature over many convex CCW polygons at once.

    verts (sum(sizes), 2) holds the vertices of the polygons back to back
    and sizes their vertex counts. Triangles take the reference triangle
    rule; larger polygons are fan-triangulated from their centroid, polygons
    with equal vertex counts in one group. Returns the points, the weights,
    polygon after polygon in input order, and each polygon's point count.
    """
    verts = np.asarray(verts, float).reshape(-1, 2)
    sizes = np.asarray(sizes, dtype=int)
    if np.any(sizes < 3):
        raise ValueError("polygon needs at least 3 vertices")
    ref = reference_triangle_rule(degree)
    counts = np.where(sizes == 3, 1, sizes) * len(ref.weights)
    first = np.cumsum(sizes) - sizes
    out_first = np.cumsum(counts) - counts
    pts = np.empty((counts.sum(), 2))
    wts = np.empty(counts.sum())
    for k in np.unique(sizes):
        sel = np.nonzero(sizes == k)[0]
        p = verts[first[sel, None] + np.arange(k)]
        if k == 3:
            tris = p[:, None]
        else:
            c = np.broadcast_to(_centroids(p)[:, None, :], p.shape)
            tris = np.stack([c, p, np.roll(p, -1, axis=1)], axis=2)
        tp, tw = _map_triangles(tris, ref)
        at = out_first[sel, None] + np.arange(counts[sel[0]])
        pts[at] = tp.reshape(len(sel), -1, 2)
        wts[at] = tw.reshape(len(sel), -1)
    return pts, wts, counts


def polygon_points_weights(poly: np.ndarray, degree: int):
    """Quadrature over one convex CCW polygon by fan triangulation from its centroid."""
    p = np.asarray(poly, float)
    pts, wts, _ = polygons_points_weights(p, [p.shape[0]], degree)
    return pts, wts
