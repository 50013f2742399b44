"""Numerical integration on segments, triangles and convex polygons.

Segments use Gauss-Legendre rules. Triangles use a conical-product rule
(Gauss-Jacobi x Gauss-Legendre), exact for any requested total degree.
Convex polygons, rectangles among them, are fan-triangulated from their
centroid. The module returns points and weights; callers evaluate their
integrands on all points at once.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import roots_jacobi


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights on a reference region."""

    points: np.ndarray  # (n, dim)
    weights: np.ndarray  # (n,)
    exact_degree: int


@lru_cache(maxsize=None)
def segment_rule(npts: int) -> QuadratureRule:
    """Gauss-Legendre rule on [0, 1]; exact for degree <= 2*npts - 1."""
    if npts < 1:
        raise ValueError("npts must be >= 1")
    x, w = leggauss(npts)
    return QuadratureRule((x[:, None] + 1.0) / 2.0, w / 2.0, 2 * npts - 1)


@lru_cache(maxsize=None)
def reference_triangle_rule(degree: int) -> QuadratureRule:
    """Conical-product rule on the triangle (0,0),(1,0),(0,1).

    Gauss-Jacobi (weight 1-u) in the collapsed direction times
    Gauss-Legendre; exact for total degree <= degree with positive weights.
    """
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
    return QuadratureRule(pts, wts, 2 * n - 1)


def triangle_points_weights(verts: np.ndarray, degree: int):
    """Physical quadrature points/weights for one triangle (3, 2)."""
    ref = reference_triangle_rule(degree)
    a, b, c = np.asarray(verts, float)
    pts = a + np.outer(ref.points[:, 0], b - a) + np.outer(ref.points[:, 1], c - a)
    det = abs((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))
    return pts, ref.weights * det


def polygon_area(poly: np.ndarray) -> float:
    """Signed shoelace area (positive for counterclockwise vertices)."""
    p = np.asarray(poly, float)
    x, y = p[:, 0], p[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polygon_centroid(poly: np.ndarray) -> np.ndarray:
    p = np.asarray(poly, float)
    a = polygon_area(p)
    if abs(a) < 1e-300:
        return p.mean(axis=0)
    x, y = p[:, 0], p[:, 1]
    cx = np.sum((x + np.roll(x, -1)) * (x * np.roll(y, -1) - np.roll(x, -1) * y))
    cy = np.sum((y + np.roll(y, -1)) * (x * np.roll(y, -1) - np.roll(x, -1) * y))
    return np.array([cx, cy]) / (6.0 * a)


def polygon_points_weights(poly: np.ndarray, degree: int):
    """Quadrature over a convex CCW polygon by fan triangulation from its centroid."""
    p = np.asarray(poly, float)
    if p.shape[0] < 3:
        raise ValueError("polygon needs at least 3 vertices")
    if p.shape[0] == 3:
        return triangle_points_weights(p, degree)
    c = polygon_centroid(p)
    pts, wts = [], []
    for i in range(p.shape[0]):
        tri = np.array([c, p[i], p[(i + 1) % p.shape[0]]])
        tp, tw = triangle_points_weights(tri, degree)
        pts.append(tp)
        wts.append(tw)
    return np.vstack(pts), np.concatenate(wts)
