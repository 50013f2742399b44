import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifelab.quadrature import (
    polygon_area,
    polygon_points_weights,
    reference_triangle_rule,
    segment_rule,
)

from conftest import edge_mean_of

UNIT_SQ = [(0, 0), (1, 0), (1, 1), (0, 1)]


def polygon_integral(f, poly, degree=6):
    pts, wts = polygon_points_weights(poly, degree)
    return float(wts @ f(pts))


def segment_integral(f, a, b, npts, split=None):
    """Integral along a -> b as the edge mean times the edge length."""
    length = np.linalg.norm(np.subtract(b, a, dtype=float))
    return edge_mean_of(f, a, b, split=split, npts=npts) * length


def monomial_integral_triangle(a, b):
    # int over reference triangle of x^a y^b = a! b! / (a+b+2)!
    return math.factorial(a) * math.factorial(b) / math.factorial(a + b + 2)


@pytest.mark.parametrize("degree", range(1, 11))
def test_reference_triangle_rule_exactness(degree):
    rule = reference_triangle_rule(degree)
    assert abs(rule.weights.sum() - 0.5) <= 1e-14
    assert np.all(rule.weights > 0)
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.dot(rule.weights, rule.points[:, 0] ** a * rule.points[:, 1] ** b)
            exact = monomial_integral_triangle(a, b)
            assert abs(val - exact) <= 1e-12 * max(1.0, abs(exact))


@pytest.mark.parametrize("degree", range(1, 11))
def test_reference_square_rule_exactness(degree):
    """The unit square has no rule of its own: rectangles are integrated by
    the fan rule of polygon_points_weights, exact to the requested degree."""
    pts, wts = polygon_points_weights(UNIT_SQ, degree)
    assert abs(wts.sum() - 1.0) <= 1e-14
    for a in range(degree + 1):
        for b in range(degree + 1 - a):
            val = np.dot(wts, pts[:, 0] ** a * pts[:, 1] ** b)
            exact = 1.0 / ((a + 1) * (b + 1))
            assert abs(val - exact) <= 1e-12


def test_segment_rule_weights_sum_to_measure():
    for n in range(1, 8):
        assert abs(segment_rule(n).weights.sum() - 1.0) <= 1e-14


def test_segment_cubic_two_points():
    val = segment_integral(lambda p: p[:, 0] ** 3, (0, 0), (1, 0), npts=2)
    assert abs(val - 0.25) <= 1e-14


def test_segment_constant_gives_length():
    val = segment_integral(lambda p: np.ones(len(p)), (1, 2), (4, 6), npts=1)
    assert abs(val - 5.0) <= 1e-14


def test_segment_sine():
    # Gauss-5 error for sin over [0, pi] is ~1.1e-7 (analytic oracle: exactly 2)
    val = segment_integral(lambda p: np.sin(p[:, 0]), (0, 0), (np.pi, 0), npts=5)
    assert abs(val - 2.0) <= 1e-6
    val7 = segment_integral(lambda p: np.sin(p[:, 0]), (0, 0), (np.pi, 0), npts=7)
    assert abs(val7 - 2.0) <= 1e-11


def test_polygon_constant_unit_square():
    assert abs(polygon_integral(lambda p: np.ones(len(p)), UNIT_SQ) - 1.0) <= 1e-14


def test_polygon_linear_on_triangle():
    tri = [(0, 0), (1, 0), (0, 1)]
    val = polygon_integral(lambda p: p[:, 0], tri)
    assert abs(val - 1.0 / 6.0) <= 1e-14


def test_polygon_quartic_on_square():
    val = polygon_integral(lambda p: p[:, 0] ** 2 * p[:, 1] ** 2, UNIT_SQ, degree=6)
    assert abs(val - 1.0 / 9.0) <= 1e-13


def test_degenerate_polygon_integrates_to_zero():
    sliver = [(0, 0), (1, 0), (0.5, 1e-17)]
    pts, wts = polygon_points_weights(sliver, 6)
    assert np.all(wts >= 0) and np.all(np.isfinite(pts))
    assert abs(polygon_integral(lambda p: np.ones(len(p)), sliver)) <= 1e-16


def test_cut_edge_constant_is_length():
    val = segment_integral(lambda p: np.ones(len(p)), (0, 0), (2, 0), npts=5)
    assert abs(val - 2.0) <= 1e-14


def test_cut_edge_split_piecewise_constant():
    val = segment_integral(lambda p: np.where(p[:, 0] > 0.5, 2.0, 1.0),
                           (0, 0), (1, 0), npts=5, split=(0.5, 0))
    assert abs(val - 1.5) <= 1e-14


def test_cut_edge_matches_composite_midpoint_oracle():
    # piecewise-linear integrand split at the edge midpoint (the straight-line
    # benchmark configuration): the 256-panel midpoint oracle is then exact
    a, b = np.array([0.25, 0.0]), np.array([0.0, 0.25])
    split = 0.5 * (a + b)
    fp = lambda p: 2.0 * (3.0 * p[..., 0] - p[..., 1] + 0.5)
    fm = lambda p: 1.0 * (-p[..., 0] + 2.0 * p[..., 1] - 0.25)
    f = lambda p: np.where(p[:, 0] > p[:, 1], fp(p), fm(p))
    val = segment_integral(f, a, b, npts=5, split=split)

    n = 256
    ts = (np.arange(n) + 0.5) / n
    pts = a + ts[:, None] * (b - a)
    length = np.linalg.norm(b - a)
    vals = np.where(pts[:, 0] > pts[:, 1], fp(pts), fm(pts))
    oracle = vals.sum() * length / n
    assert abs(val - oracle) <= 1e-10 * max(1.0, abs(oracle))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(0.05, 0.95), min_size=2, max_size=2),
       st.integers(0, 2), st.integers(0, 2))
def test_polygon_additivity_under_chord_split(ts, i, j):
    """Splitting a triangle by a chord conserves the integral of a smooth f."""
    from ifelab.geometry import cut_from_chord

    from cut_reference import as_element

    if i == j:
        j = (j + 1) % 3
    tri = np.array([(0.0, 0.0), (1.3, 0.2), (0.4, 1.1)])
    cut = as_element(cut_from_chord(tri, ("edge", i), ts[0], ("edge", j), ts[1]))
    f = lambda p: np.sin(p[:, 0]) * np.cos(p[:, 1]) + p[:, 0] ** 2

    whole = polygon_integral(f, tri, degree=8)
    parts = polygon_integral(f, cut.poly_plus, degree=8) + \
        polygon_integral(f, cut.poly_minus, degree=8)
    assert abs(whole - parts) <= 1e-10 * max(1.0, abs(whole))
    assert abs(polygon_area(cut.poly_plus) + polygon_area(cut.poly_minus)
               - polygon_area(tri)) <= 1e-12 * polygon_area(tri)
