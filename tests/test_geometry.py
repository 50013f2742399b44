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
    _sign_change_spans,
    cut_from_chord,
    edge_cuts_batch,
)
from ifelab.mesh import build_uniform_rect, build_uniform_tri
from ifelab.problems import example1, example2, example3, example4
from ifelab.quadrature import polygon_area, polygons_points_weights

from conftest import (
    circle_levelset,
    cut_edges,
    edge_splits,
    ellipse_levelset,
    one_element_mesh,
)
from cut_reference import as_element, as_elements, reference_layout, sign_change_spans

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
        assert edge_splits(layout) == {} and len(layout.cuts) == 0
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
        cut = as_element(layout.cuts)
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
        assert layout.classes[0] == INTERIOR_PLUS and len(layout.cuts) == 0

    @pytest.mark.parametrize("ls, ends", [
        (_line((1.0, -1.0), 0.0), (0, 2)),
        (circle_levelset(0.0, 0.0, 1.0), (1, 3)),
    ], ids=["line", "circle"])
    def test_rectangle_cut_along_diagonal(self, ls, ends):
        """An interface through two opposite vertices of a rectangle, with
        the other two on opposite sides, cuts it along that diagonal."""
        layout = layout_of(UNIT_SQ, ls)
        assert layout.classes[0] == INTERFACE and layout.interface_edges.size == 0
        assert_same_layout(layout, reference_layout(one_element_mesh(UNIT_SQ), ls))
        cut = as_element(layout.cuts)
        assert (cut.loc_d, cut.loc_e) == (("vertex", ends[0]), ("vertex", ends[1]))
        assert np.array_equal(cut.D, UNIT_SQ[ends[0]])
        assert np.array_equal(cut.E, UNIT_SQ[ends[1]])
        assert cut.splits() == {}
        assert polygon_area(cut.poly_plus) == polygon_area(cut.poly_minus) == 0.5
        assert ls.phi(cut.D + 1e-3 * cut.n_h) > 0

    def test_rectangle_tangent_touch_is_interior(self):
        """phi = (x1 - x2)^2 touches the square along its diagonal without
        changing sign: the two other vertices share a sign and the square
        stays uncut."""
        ls = LevelSet(phi=lambda x: (x[..., 0] - x[..., 1]) ** 2,
                      grad=lambda x: 2.0 * (x[..., 0] - x[..., 1])[..., None]
                      * np.array([1.0, -1.0]))
        layout = layout_of(UNIT_SQ, ls)
        assert layout.classes[0] == INTERIOR_PLUS and len(layout.cuts) == 0
        assert_same_layout(layout, reference_layout(one_element_mesh(UNIT_SQ), ls))


class TestBuildCut:
    def test_vertical_line_through_triangle(self):
        cut = as_element(layout_of(REF_TRI, _line((1.0, 0.0), 0.5)).cuts)
        pts = {tuple(np.round(cut.D, 12)), tuple(np.round(cut.E, 12))}
        assert pts == {(0.5, 0.0), (0.5, 0.5)}
        assert np.allclose(cut.n_h, (1.0, 0.0), atol=1e-12)
        assert cut.poly_minus.shape[0] == 4
        ref = {(0.0, 0.0), (0.5, 0.0), (0.5, 0.5), (0.0, 1.0)}
        assert {tuple(np.round(p, 12)) for p in cut.poly_minus} == ref

    def test_horizontal_line_through_square(self):
        cut = as_element(layout_of(UNIT_SQ, _line((0.0, 1.0), 0.25)).cuts)
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
            if not len(layout.cuts):
                continue
            cut = as_element(layout.cuts)
            a = polygon_area(tri)
            ap = polygon_area(cut.poly_plus)
            am = polygon_area(cut.poly_minus)
            assert abs(ap + am - a) <= 1e-12 * a
            assert ap > 0 and am > 0
            built += 1

    def test_orientation_probed_from_interface_points(self, circle_ls):
        tri = np.array([(0.3, 0.3), (0.6, 0.3), (0.3, 0.6)])
        cut = as_element(layout_of(tri, circle_ls).cuts)
        eps = 1e-3 * cut.h_T
        assert circle_ls.phi(cut.D + eps * cut.n_h) > 0
        assert circle_ls.phi(cut.E + eps * cut.n_h) > 0
        # chord geometry is exact
        assert abs(cut.n_h @ (cut.E - cut.D)) <= 1e-15 * np.linalg.norm(cut.E - cut.D)

    def test_degenerate_chord_raises(self):
        tri = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        with pytest.raises(GeometryError):
            cut_from_chord(tri, ("edge", 0), 1e-15, ("edge", 2), 1.0 - 1e-15)

    def test_chord_inside_one_edge_raises(self):
        """Both ends inside edge 0: the chord runs along the edge and one
        sub-polygon would have two vertices."""
        with pytest.raises(GeometryError, match="element 7: both ends lie on the closure"):
            cut_from_chord(REF_TRI, ("edge", 0), 0.2, ("edge", 0), 0.7, elem_id=7)

    @pytest.mark.parametrize("verts, loc_d, loc_e", [
        (REF_TRI, ("vertex", 0), ("edge", 0)),
        (REF_TRI, ("vertex", 1), ("edge", 0)),
        (REF_TRI, ("vertex", 0), ("edge", 2)),
        (UNIT_SQ, ("vertex", 2), ("edge", 1)),
        (UNIT_SQ, ("vertex", 3), ("edge", 3)),
        (UNIT_SQ, ("vertex", 1), ("vertex", 2)),
    ], ids=["tri-v0-e0", "tri-v1-e0", "tri-v0-e2", "rect-v2-e1", "rect-v3-e3", "rect-v1-v2"])
    def test_vertex_on_the_edge_of_E_raises(self, verts, loc_d, loc_e):
        """A vertex end on the closure of the edge that carries E."""
        with pytest.raises(GeometryError, match="element 3: both ends lie on the closure"):
            cut_from_chord(verts, loc_d, 0.0, loc_e, 0.4, elem_id=3)

    @pytest.mark.parametrize("verts, loc_d, loc_e", [
        (REF_TRI, ("edge", 0), ("edge", 1)),
        (REF_TRI, ("vertex", 2), ("edge", 0)),
        (UNIT_SQ, ("vertex", 0), ("edge", 1)),
        (UNIT_SQ, ("vertex", 0), ("vertex", 2)),
    ], ids=["tri-e0-e1", "tri-v2-e0", "rect-v0-e1", "rect-diagonal"])
    def test_chords_across_the_element_still_cut(self, verts, loc_d, loc_e):
        cuts = cut_from_chord(verts, loc_d, 0.3, loc_e, 0.4)
        plus, minus = np.split(cuts.polys, [cuts.sizes[0, 0]])
        assert cuts.sizes.min() >= 3
        assert abs(polygon_area(plus) + polygon_area(minus) - polygon_area(verts)) <= 1e-14


class TestBuiltinProblemGeometry:
    def test_orientation_holds_on_all_catalog_problems(self):
        """n_h points toward positive level-set values, probed at the chord
        endpoints (which lie on the interface), for every built cut."""
        for prob in (example1(10, 1000), example2(), example3(), example4()):
            mesh = build_uniform_tri(16)
            layout = build_layout(mesh, prob.levelset)
            for cut in as_elements(layout.cuts).values():
                eps = 1e-3 * cut.h_T
                probe = float(prob.levelset.phi(cut.D + eps * cut.n_h)) \
                    + float(prob.levelset.phi(cut.E + eps * cut.n_h))
                assert probe > 0
                assert abs(np.linalg.norm(cut.n_h) - 1.0) <= 1e-15
                assert abs(cut.n_h @ (cut.E - cut.D)) <= 1e-14 * cut.h_T

    def test_cut_points_shared_not_recomputed(self, circle_ls):
        mesh = build_uniform_tri(8)
        layout = build_layout(mesh, circle_ls)
        splits = edge_splits(layout)
        for e, cut in as_elements(layout.cuts).items():
            gids = cut_edges(mesh, cut)
            for gid, point in zip(gids[::-1], (cut.E,)):
                assert np.allclose(splits[gid], point, atol=0)
            if cut.loc_d[0] == "edge":
                assert np.allclose(splits[gids[0]], cut.D, atol=0)


class TestSideOfCut:
    def setup_method(self):
        self.cut = as_element(layout_of(REF_TRI, _line((1.0, 0.0), 0.5)).cuts)

    def test_plus_side(self):
        assert self.cut.side_of((0.75, 0.1)) == 1

    def test_minus_side(self):
        assert self.cut.side_of((0.25, 0.25)) == -1

    def test_on_chord_ties_to_plus(self):
        assert self.cut.side_of((0.5, 0.25)) == 1


def assert_same_layout(layout, ref):
    """The batched layout equals the per-element reference walk: classes,
    interface edges, crossings, cut ids, chord ends, their local positions and
    both sub-polygons bit for bit, and n_h to 1 ulp. The reference normalises
    one chord with np.linalg.norm and the batch all chords with a row-wise
    matmul dot, which round alike where both reach the same dot kernel."""
    assert np.array_equal(layout.classes, ref.classes)
    assert np.array_equal(layout.interface_edges, ref.interface_edges)
    assert np.array_equal(layout.crossings, ref.crossings)
    got = as_elements(layout.cuts)
    assert list(got) == list(ref.cuts)
    for e, cut in got.items():
        want = ref.cuts[e]
        assert (cut.loc_d, cut.loc_e) == (want.loc_d, want.loc_e)
        for name in ("vertices", "D", "E", "poly_plus", "poly_minus"):
            assert np.array_equal(getattr(cut, name), getattr(want, name)), name
        assert np.all(np.abs(cut.n_h - want.n_h) <= np.spacing(np.abs(want.n_h)))


def outcome(build, *args):
    """build(*args), or the class and message of the GeometryError it raises."""
    try:
        return build(*args)
    except GeometryError as err:
        return type(err), str(err)


class TestCutProperty:
    """A circle or an ellipse of any placement over one element ends in a
    valid cut, in no cut, or in a GeometryError (MeshResolutionError
    included), exactly as the per-element reference walk decides."""

    @staticmethod
    def check(verts, ls):
        layout = outcome(layout_of, verts, ls)
        ref = outcome(reference_layout, one_element_mesh(verts), ls)
        if isinstance(ref, tuple):
            assert layout == ref
            return
        assert not isinstance(layout, tuple), layout
        assert_same_layout(layout, ref)
        if not len(layout.cuts):
            assert layout.classes[0] != INTERFACE
            return
        cut = as_element(layout.cuts)
        a = polygon_area(verts)
        ap = polygon_area(cut.poly_plus)
        am = polygon_area(cut.poly_minus)
        assert abs(ap + am - a) <= 1e-12 * a
        assert ap > 0 and am > 0
        eps = 1e-3 * cut.h_T
        assert ls.phi(cut.D + eps * cut.n_h) + ls.phi(cut.E + eps * cut.n_h) > 0

    @pytest.mark.parametrize("verts", [REF_TRI, UNIT_SQ], ids=["tri", "rect"])
    @settings(max_examples=300, deadline=None)
    @given(cx=st.floats(-0.5, 1.5), cy=st.floats(-0.5, 1.5), r=st.floats(0.05, 1.0))
    def test_circle_placements(self, verts, cx, cy, r):
        self.check(verts, circle_levelset(cx, cy, r))

    @pytest.mark.parametrize("verts", [REF_TRI, UNIT_SQ], ids=["tri", "rect"])
    @settings(max_examples=300, deadline=None)
    @given(cx=st.floats(-0.5, 1.5), cy=st.floats(-0.5, 1.5), a=st.floats(0.05, 1.0),
           b=st.floats(0.05, 1.0), angle=st.floats(0.0, np.pi))
    def test_ellipse_placements(self, verts, cx, cy, a, b, angle):
        self.check(verts, ellipse_levelset(cx, cy, a, b, angle))

    @pytest.mark.parametrize("build", [build_uniform_tri, build_uniform_rect],
                             ids=["tri", "rect"])
    @settings(max_examples=150, deadline=None)
    @given(N=st.sampled_from([4, 8]), ellipse=st.booleans(), cx=st.floats(-1.0, 1.0),
           cy=st.floats(-1.0, 1.0), a=st.floats(0.01, 1.0), b=st.floats(0.01, 1.0),
           angle=st.floats(0.0, np.pi))
    def test_edge_band_matches_full_scan(self, build, N, ellipse, cx, cy, a, b, angle):
        """build_layout scans only a band of edges; on a mesh, circles and
        ellipses of any placement and size down to a fraction of an element
        give the layout of the full scan, or the same error. Every element
        next to an interface edge is an interface element."""
        ls = ellipse_levelset(cx, cy, a, b, angle) if ellipse else circle_levelset(cx, cy, a)
        mesh = build(N, (-1.0, 1.0, -1.0, 1.0))
        layout = outcome(build_layout, mesh, ls)
        ref = outcome(reference_layout, mesh, ls)
        if isinstance(ref, tuple):
            assert layout == ref
            return
        assert not isinstance(layout, tuple), layout
        assert_same_layout(layout, ref)
        adj = mesh.edge_elems[layout.interface_edges]
        assert np.all(layout.classes[adj[adj >= 0]] == INTERFACE)

    @pytest.mark.parametrize("verts", [REF_TRI, UNIT_SQ], ids=["tri", "rect"])
    @settings(max_examples=200, deadline=None)
    @given(cx=st.floats(-0.5, 1.5), cy=st.floats(-0.5, 1.5), r=st.floats(0.05, 1.0))
    def test_batched_rule_moments(self, verts, cx, cy, r):
        """The batched sub-polygon rule integrates 1, x and y over the two
        pieces of any cut to the element's moments, and 1 over each piece to
        its area."""
        try:
            layout = layout_of(verts, circle_levelset(cx, cy, r))
        except GeometryError:
            return
        if not len(layout.cuts):
            return
        cut = as_element(layout.cuts)
        polys = (cut.poly_plus, cut.poly_minus)
        pts, wts, counts = polygons_points_weights(layout.cuts.polys,
                                                   layout.cuts.sizes.ravel(), 6)
        pieces = np.split(np.arange(len(wts)), np.cumsum(counts)[:-1])
        for poly, idx in zip(polys, pieces):
            assert abs(wts[idx].sum() - polygon_area(poly)) <= 1e-12
        moments = wts @ np.column_stack([np.ones(len(wts)), pts])
        # area, int x and int y of the reference triangle and the unit square
        exact = [0.5, 1 / 6, 1 / 6] if len(verts) == 3 else [1.0, 0.5, 0.5]
        assert np.abs(moments - exact).max() <= 1e-12


@pytest.mark.parametrize("N", [8, 16, 32, 64, 256])
@pytest.mark.parametrize("build", [build_uniform_tri, build_uniform_rect], ids=["tri", "rect"])
@pytest.mark.parametrize("example", [example1, example2, example3, example4],
                         ids=["ex1", "ex2", "ex3", "ex4"])
def test_layout_matches_reference_walk(example, build, N):
    prob = example()
    mesh = build(N, prob.domain)
    assert_same_layout(build_layout(mesh, prob.levelset),
                       reference_layout(mesh, prob.levelset))


@pytest.mark.parametrize("N", [8, 16, 32, 64, 128, 256, 512])
@pytest.mark.parametrize("build", [build_uniform_tri, build_uniform_rect], ids=["tri", "rect"])
@pytest.mark.parametrize("example", [example1, example2, example4], ids=["ex1", "ex2", "ex4"])
def test_curved_examples_have_no_diagonal_cut(example, build, N):
    """Every cut of ex1, ex2 and ex4 ends inside an edge, so the diagonal
    rule leaves these layouts as they were without it."""
    prob = example()
    cuts = build_layout(build(N, prob.domain), prob.levelset).cuts
    assert len(cuts) and np.all(cuts.loc_e % 2 == 1)


@pytest.mark.parametrize("build", [build_uniform_tri, build_uniform_rect], ids=["tri", "rect"])
def test_layout_scans_only_a_band_of_edges(build, monkeypatch):
    """edge_cuts_batch sees the edges near the interface, a set that grows
    like N and not like the N^2 edges of the mesh, and every interface edge
    among them."""
    from ifelab import cutting

    scanned = []

    def spy(p0, p1, ls):
        scanned.append(len(p0))
        return edge_cuts_batch(p0, p1, ls)

    monkeypatch.setattr(cutting, "edge_cuts_batch", spy)
    prob = example1()
    for N in (64, 128):
        mesh = build(N, prob.domain)
        layout = build_layout(mesh, prob.levelset)
        assert len(layout.interface_edges) <= scanned[-1] < 0.15 * mesh.n_edges
    assert scanned[1] < 2.2 * scanned[0]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 40), st.integers(2, 20), st.integers(0, 2 ** 32 - 1))
def test_sign_change_spans_match_column_loop(n, k, seed):
    """The array scan gives the counts and first-change brackets of the
    column loop, zeros ignored, on sign matrices with many zeros."""
    rng = np.random.default_rng(seed)
    values = rng.choice([-2.0, -1.0, 0.0, 0.0, 0.5, 3.0], size=(n, k))
    for got, want in zip(_sign_change_spans(values), sign_change_spans(values)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _rot(a):
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s], [s, c]])
