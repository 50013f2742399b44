import numpy as np
import pytest

from ifelab.geometry import (
    INTERFACE,
    INTERIOR_MINUS,
    INTERIOR_PLUS,
    GeometryError,
    LevelSet,
    MeshResolutionError,
    build_cut,
    classify_element,
    cut_from_chord,
    edge_cut,
)
from ifelab.quadrature import polygon_area


class TestEdgeCut:
    def test_circle_crossing_on_axis(self, circle_ls):
        res = edge_cut((0, 0), (1, 0), circle_ls)
        assert res is not None and not res.snapped
        assert np.allclose(res.point, (0.5, 0.0), atol=1e-12)

    def test_no_crossing(self, circle_ls):
        assert edge_cut((0.6, 0), (1, 0), circle_ls) is None

    def test_linear_crossing(self, diagonal_ls):
        res = edge_cut((-1, 0), (1, 0), diagonal_ls)
        assert np.allclose(res.point, (0.0, 0.0), atol=1e-12)

    def test_double_crossing_raises(self, circle_ls):
        # chord passing through the disk twice
        with pytest.raises(MeshResolutionError):
            edge_cut((-1, 0.1), (1, 0.1), circle_ls)

    def test_snap_near_endpoint(self):
        ls = LevelSet(phi=lambda x: x[..., 0] - 1e-12,
                      grad=lambda x: np.broadcast_to(np.array([1.0, 0.0]),
                                                     np.asarray(x).shape).copy())
        res = edge_cut((0, 0), (1, 0), ls)
        assert res.snapped and res.endpoint == 0
        assert np.allclose(res.point, (0.0, 0.0))

    def test_requires_positive_tol(self, circle_ls):
        with pytest.raises(ValueError):
            edge_cut((0, 0), (1, 0), circle_ls, tol=0.0)


class TestClassify:
    def test_triangle_cut_by_small_circle(self):
        ls = LevelSet(phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 0.0625,
                      grad=lambda x: 2.0 * np.asarray(x, float))
        assert classify_element([(0, 0), (1, 0), (0, 1)], ls) == INTERFACE
        assert classify_element([(2, 2), (3, 2), (2, 3)], ls) == INTERIOR_PLUS
        assert classify_element([(-0.1, -0.1), (0.1, -0.1), (0.1, 0.1), (-0.1, 0.1)],
                                ls) == INTERIOR_MINUS

    def test_vertex_chord_configuration(self, diagonal_ls):
        # interface enters through a vertex and exits through the opposite edge
        tri = [(0, 0), (1, 0), (0, 1)]
        assert classify_element(tri, diagonal_ls) == INTERFACE

    def test_vertex_touch_only_is_interior(self, diagonal_ls):
        tri = [(0, 0), (1, 0), (1, -1)]  # touches x1=x2 only at the origin
        assert classify_element(tri, diagonal_ls) == INTERIOR_PLUS


class TestBuildCut:
    def test_vertical_line_through_triangle(self):
        ls = LevelSet(phi=lambda x: x[..., 0] - 0.5,
                      grad=lambda x: np.broadcast_to(np.array([1.0, 0.0]),
                                                     np.asarray(x).shape).copy())
        cut = build_cut(0, [(0, 0), (1, 0), (0, 1)], ls)
        pts = {tuple(np.round(cut.D, 12)), tuple(np.round(cut.E, 12))}
        assert pts == {(0.5, 0.0), (0.5, 0.5)}
        assert np.allclose(cut.n_h, (1.0, 0.0), atol=1e-12)
        assert cut.poly_minus.shape[0] == 4
        ref = {(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 1.0)}
        assert {tuple(np.round(p, 12)) for p in cut.poly_minus} == ref

    def test_horizontal_line_through_square(self):
        ls = LevelSet(phi=lambda x: x[..., 1] - 0.25,
                      grad=lambda x: np.broadcast_to(np.array([0.0, 1.0]),
                                                     np.asarray(x).shape).copy())
        cut = build_cut(0, [(0, 0), (1, 0), (1, 1), (0, 1)], ls)
        assert np.allclose(cut.n_h, (0.0, 1.0), atol=1e-12)
        assert abs(polygon_area(cut.poly_minus) - 0.25) <= 1e-12
        assert abs(polygon_area(cut.poly_plus) - 0.75) <= 1e-12

    def test_area_additivity_on_random_circle_cuts(self, circle_ls):
        rng = np.random.default_rng(7)
        built = 0
        while built < 1000:
            c = rng.uniform(-0.8, 0.8, size=2)
            s = rng.uniform(0.05, 0.25)
            tri = c + s * np.array([(0, 0), (1, 0), (0, 1)]) @ _rot(rng.uniform(0, 2 * np.pi))
            try:
                if classify_element(tri, circle_ls) != INTERFACE:
                    continue
                cut = build_cut(0, tri, circle_ls)
            except GeometryError:
                continue
            a = polygon_area(tri)
            ap = polygon_area(cut.poly_plus)
            am = polygon_area(cut.poly_minus)
            assert abs(ap + am - a) <= 1e-12 * a
            assert ap > 0 and am > 0
            built += 1

    def test_orientation_probed_from_interface_points(self, circle_ls):
        tri = np.array([(0.3, 0.3), (0.6, 0.3), (0.3, 0.6)])
        cut = build_cut(0, tri, circle_ls)
        eps = 1e-3 * cut.h_T
        assert circle_ls.phi(cut.D + eps * cut.n_h) > 0
        assert circle_ls.phi(cut.E + eps * cut.n_h) > 0
        # chord geometry is exact
        assert abs(cut.n_h @ (cut.E - cut.D)) <= 1e-15 * np.linalg.norm(cut.E - cut.D)
        assert np.allclose(cut.t_h, [-cut.n_h[1], cut.n_h[0]], atol=1e-15)
        assert np.allclose(cut.x_p, 0.5 * (cut.D + cut.E), atol=1e-15)

    def test_degenerate_chord_raises(self):
        tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(GeometryError):
            cut_from_chord(tri, ("edge", 0), 1e-15, ("edge", 2), 1.0 - 1e-15)


class TestBuiltinProblemGeometry:
    def test_orientation_holds_on_all_catalog_problems(self):
        """n_h points toward positive level-set values, probed at the chord
        endpoints (which lie on the interface), for every built cut."""
        from ifelab.cutting import build_layout
        from ifelab.mesh import build_uniform_tri
        from ifelab.problems import example1, example2, example3, example4

        for prob in (example1(10, 1000), example2(), example3(), example4()):
            mesh = build_uniform_tri(16)
            layout = build_layout(mesh, prob.levelset)
            for cut in layout.cuts.values():
                eps = 1e-3 * cut.h_T
                probe = float(prob.levelset.phi(cut.D + eps * cut.n_h)) \
                    + float(prob.levelset.phi(cut.E + eps * cut.n_h))
                assert probe > 0
                assert abs(np.linalg.norm(cut.n_h) - 1.0) <= 1e-15
                assert abs(cut.n_h @ (cut.E - cut.D)) <= 1e-14 * cut.h_T

    def test_cut_points_shared_not_recomputed(self, circle_ls):
        from ifelab.cutting import build_layout
        from ifelab.mesh import build_uniform_tri

        mesh = build_uniform_tri(8)
        layout = build_layout(mesh, circle_ls)
        for e, cut in layout.cuts.items():
            for gid, point in zip(cut.cut_edges[::-1], (cut.E,)):
                assert np.allclose(layout.edge_splits[gid], point, atol=0)
            if cut.loc_d[0] == "edge":
                assert np.allclose(layout.edge_splits[cut.cut_edges[0]], cut.D, atol=0)


class TestSideOfCut:
    def setup_method(self):
        ls = LevelSet(phi=lambda x: x[..., 0] - 0.5,
                      grad=lambda x: np.broadcast_to(np.array([1.0, 0.0]),
                                                     np.asarray(x).shape).copy())
        self.cut = build_cut(0, [(0, 0), (1, 0), (0, 1)], ls)

    def test_plus_side(self):
        assert self.cut.side_of((0.75, 0.1)) == 1

    def test_minus_side(self):
        assert self.cut.side_of((0.25, 0.25)) == -1

    def test_on_chord_ties_to_plus(self):
        assert self.cut.side_of((0.5, 0.25)) == 1


def _rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])
