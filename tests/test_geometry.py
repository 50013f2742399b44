import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifelab.cutting import build_layout
from ifelab.geometry import (
    INTERFACE,
    INTERIOR_MINUS,
    INTERIOR_PLUS,
    GeometryError,
    LevelSet,
    MeshResolutionError,
    cut_from_chord,
)
from ifelab.quadrature import polygon_area, polygons_points_weights

from conftest import cut_edges, edge_splits, one_element_mesh

REF_TRI = [(0, 0), (1, 0), (0, 1)]
UNIT_SQ = [(0, 0), (1, 0), (1, 1), (0, 1)]


def layout_of(verts, ls):
    """Layout of the one-element mesh on verts; its edge ids are the local
    edge numbers (edge i runs from vertex i to vertex i+1)."""
    return build_layout(one_element_mesh(verts), ls)


def _line(normal, offset):
    """Straight interface normal . x = offset, positive on the normal's side."""
    normal = np.asarray(normal, float)
    return LevelSet(phi=lambda x: np.asarray(x, float) @ normal - offset,
                    grad=lambda x: np.broadcast_to(normal, np.asarray(x).shape).copy())


class TestEdgeCut:
    def test_circle_crossing_on_axis(self, circle_ls):
        layout = layout_of(REF_TRI, circle_ls)
        assert np.allclose(edge_splits(layout)[0], (0.5, 0.0), atol=1e-12)
        assert np.allclose(edge_splits(layout)[2], (0.0, 0.5), atol=1e-12)

    def test_no_crossing(self, circle_ls):
        layout = layout_of([(0.6, 0), (1, 0), (0.6, 0.3)], circle_ls)
        assert edge_splits(layout) == {} and layout.cuts == {}
        assert layout.interface_edges.size == 0

    def test_linear_crossing(self, diagonal_ls):
        layout = layout_of([(-1, 0), (1, 0), (0, 1)], diagonal_ls)
        assert np.allclose(edge_splits(layout)[0], (0.0, 0.0), atol=1e-12)

    def test_double_crossing_raises(self, circle_ls):
        # edge 0 passes through the disk and crosses the circle twice
        with pytest.raises(MeshResolutionError):
            layout_of([(-1, 0.1), (1, 0.1), (0, 1)], circle_ls)

    def test_snap_near_endpoint(self):
        # the crossing on edge 0 sits 1e-11 from vertex 0: below the snap
        # threshold, but |phi| there is above the on-interface vertex
        # tolerance, so only the snap makes vertex 0 the chord endpoint
        ls = _line((1.0, 0.0), 1e-11)
        mesh = one_element_mesh([(0, 0), (1, 1), (-1, 1)])
        layout = build_layout(mesh, ls)
        assert 0 not in edge_splits(layout)
        cut = layout.cuts[0]
        assert cut.loc_d == ("vertex", 0) and cut.loc_e == ("edge", 1)
        assert np.array_equal(cut.D, (0.0, 0.0))
        assert cut_edges(mesh, cut) == (1,)


class TestClassify:
    def test_triangle_cut_by_small_circle(self):
        ls = LevelSet(phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 0.0625,
                      grad=lambda x: 2.0 * np.asarray(x, float))
        assert layout_of(REF_TRI, ls).classes[0] == INTERFACE
        assert layout_of([(2, 2), (3, 2), (2, 3)], ls).classes[0] == INTERIOR_PLUS
        square = [(-0.1, -0.1), (0.1, -0.1), (0.1, 0.1), (-0.1, 0.1)]
        assert layout_of(square, ls).classes[0] == INTERIOR_MINUS

    def test_vertex_chord_configuration(self, diagonal_ls):
        # interface enters through a vertex and exits through the opposite edge
        assert layout_of(REF_TRI, diagonal_ls).classes[0] == INTERFACE

    def test_vertex_touch_only_is_interior(self, diagonal_ls):
        tri = [(0, 0), (1, -1), (1, 0)]  # touches x1=x2 only at the origin
        layout = layout_of(tri, diagonal_ls)
        assert layout.classes[0] == INTERIOR_PLUS and layout.cuts == {}


class TestBuildCut:
    def test_vertical_line_through_triangle(self):
        cut = layout_of(REF_TRI, _line((1.0, 0.0), 0.5)).cuts[0]
        pts = {tuple(np.round(cut.D, 12)), tuple(np.round(cut.E, 12))}
        assert pts == {(0.5, 0.0), (0.5, 0.5)}
        assert np.allclose(cut.n_h, (1.0, 0.0), atol=1e-12)
        assert cut.poly_minus.shape[0] == 4
        ref = {(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 1.0)}
        assert {tuple(np.round(p, 12)) for p in cut.poly_minus} == ref

    def test_horizontal_line_through_square(self):
        cut = layout_of(UNIT_SQ, _line((0.0, 1.0), 0.25)).cuts[0]
        assert np.allclose(cut.n_h, (0.0, 1.0), atol=1e-12)
        assert abs(polygon_area(cut.poly_minus) - 0.25) <= 1e-12
        assert abs(polygon_area(cut.poly_plus) - 0.75) <= 1e-12

    def test_area_additivity_on_random_circle_cuts(self, circle_ls):
        rng = np.random.default_rng(7)
        built = 0
        while built < 1000:
            c = rng.uniform(-0.8, 0.8, size=2)
            s = rng.uniform(0.05, 0.25)
            tri = c + s * np.array(REF_TRI) @ _rot(rng.uniform(0, 2 * np.pi))
            try:
                layout = layout_of(tri, circle_ls)
            except GeometryError:
                continue
            if not layout.cuts:
                continue
            cut = layout.cuts[0]
            a = polygon_area(tri)
            ap = polygon_area(cut.poly_plus)
            am = polygon_area(cut.poly_minus)
            assert abs(ap + am - a) <= 1e-12 * a
            assert ap > 0 and am > 0
            built += 1

    def test_orientation_probed_from_interface_points(self, circle_ls):
        tri = np.array([(0.3, 0.3), (0.6, 0.3), (0.3, 0.6)])
        cut = layout_of(tri, circle_ls).cuts[0]
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
        splits = edge_splits(layout)
        for e, cut in layout.cuts.items():
            gids = cut_edges(mesh, cut)
            for gid, point in zip(gids[::-1], (cut.E,)):
                assert np.allclose(splits[gid], point, atol=0)
            if cut.loc_d[0] == "edge":
                assert np.allclose(splits[gids[0]], cut.D, atol=0)


class TestSideOfCut:
    def setup_method(self):
        self.cut = layout_of(REF_TRI, _line((1.0, 0.0), 0.5)).cuts[0]

    def test_plus_side(self):
        assert self.cut.side_of((0.75, 0.1)) == 1

    def test_minus_side(self):
        assert self.cut.side_of((0.25, 0.25)) == -1

    def test_on_chord_ties_to_plus(self):
        assert self.cut.side_of((0.5, 0.25)) == 1


class TestCutProperty:
    """A circle of any centre and radius over one element ends in a valid
    cut, in no cut, or in a GeometryError (MeshResolutionError included)."""

    @pytest.mark.parametrize("verts", [REF_TRI, UNIT_SQ], ids=["tri", "rect"])
    @settings(max_examples=300, deadline=None)
    @given(cx=st.floats(-0.5, 1.5), cy=st.floats(-0.5, 1.5), r=st.floats(0.05, 1.0))
    def test_circle_placements(self, verts, cx, cy, r):
        centre = np.array([cx, cy])
        ls = LevelSet(phi=lambda x: ((np.asarray(x, float) - centre) ** 2).sum(-1) - r * r,
                      grad=lambda x: 2.0 * (np.asarray(x, float) - centre))
        try:
            layout = layout_of(verts, ls)
        except GeometryError:
            return
        if not layout.cuts:
            assert layout.classes[0] != INTERFACE
            return
        cut = layout.cuts[0]
        a = polygon_area(verts)
        ap = polygon_area(cut.poly_plus)
        am = polygon_area(cut.poly_minus)
        assert abs(ap + am - a) <= 1e-12 * a
        assert ap > 0 and am > 0
        eps = 1e-3 * cut.h_T
        assert ls.phi(cut.D + eps * cut.n_h) + ls.phi(cut.E + eps * cut.n_h) > 0

    @pytest.mark.parametrize("verts", [REF_TRI, UNIT_SQ], ids=["tri", "rect"])
    @settings(max_examples=200, deadline=None)
    @given(cx=st.floats(-0.5, 1.5), cy=st.floats(-0.5, 1.5), r=st.floats(0.05, 1.0))
    def test_batched_rule_moments(self, verts, cx, cy, r):
        """The batched sub-polygon rule integrates 1, x and y over the two
        pieces of any cut to the element's moments, and 1 over each piece to
        its area."""
        centre = np.array([cx, cy])
        ls = LevelSet(phi=lambda x: ((np.asarray(x, float) - centre) ** 2).sum(-1) - r * r,
                      grad=lambda x: 2.0 * (np.asarray(x, float) - centre))
        try:
            layout = layout_of(verts, ls)
        except GeometryError:
            return
        if not layout.cuts:
            return
        cut = layout.cuts[0]
        polys = (cut.poly_plus, cut.poly_minus)
        pts, wts, counts = polygons_points_weights(np.concatenate(polys),
                                                   [len(p) for p in polys], 6)
        pieces = np.split(np.arange(len(wts)), np.cumsum(counts)[:-1])
        for poly, idx in zip(polys, pieces):
            assert abs(wts[idx].sum() - polygon_area(poly)) <= 1e-12
        moments = wts @ np.column_stack([np.ones(len(wts)), pts])
        # area, int x and int y of the reference triangle and the unit square
        exact = [0.5, 1 / 6, 1 / 6] if len(verts) == 3 else [1.0, 0.5, 0.5]
        assert np.abs(moments - exact).max() <= 1e-12


def _rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])
