import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ifelab.cutting import build_layout
from ifelab.geometry import INTERFACE, LevelSet
from ifelab.mesh import build_uniform_rect, build_uniform_tri

from conftest import edge_midpoints, edge_splits, interface_elements
from cut_reference import as_elements


def reference_elements(kind, N):
    """Element table built cell by cell, row by row."""
    def nid(i, j):
        return j * (N + 1) + i

    elements = []
    for j in range(N):
        for i in range(N):
            p00, p10 = nid(i, j), nid(i + 1, j)
            p01, p11 = nid(i, j + 1), nid(i + 1, j + 1)
            if kind == "tri":
                elements.append((p00, p10, p01))
                elements.append((p10, p11, p01))
            else:
                elements.append((p00, p10, p11, p01))
    return np.array(elements, dtype=np.int64)


def reference_connect(nodes, elements):
    """Edge tables by a dictionary walk over each element's local edges."""
    n_elem, nv = elements.shape
    edge_ids: dict = {}
    edges = []
    edge_elems = []
    elem_edges = np.empty((n_elem, nv), dtype=np.int64)
    for e in range(n_elem):
        conn = elements[e]
        for i in range(nv):
            a, b = int(conn[i]), int(conn[(i + 1) % nv])
            key = (a, b) if a < b else (b, a)
            eid = edge_ids.get(key)
            if eid is None:
                eid = len(edges)
                edge_ids[key] = eid
                edges.append((a, b))
                edge_elems.append([e, -1])
            else:
                edge_elems[eid][1] = e
            elem_edges[e, i] = eid
    edges = np.array(edges, dtype=np.int64)
    edge_elems = np.array(edge_elems, dtype=np.int64)

    vec = nodes[edges[:, 1]] - nodes[edges[:, 0]]
    lengths = np.linalg.norm(vec, axis=1)
    normals = np.column_stack([vec[:, 1], -vec[:, 0]]) / lengths[:, None]
    c1 = nodes[elements[edge_elems[:, 0]]].mean(axis=1)
    mid = 0.5 * (nodes[edges[:, 0]] + nodes[edges[:, 1]])
    flip = np.einsum("ij,ij->i", normals, mid - c1) < 0
    normals[flip] *= -1.0
    boundary = edge_elems[:, 1] < 0
    return edges, edge_elems, elem_edges, normals, lengths, boundary


def assert_tables_match_reference(m, kind, N):
    """m's element and edge tables equal the reference walk's bit for bit."""
    elements = reference_elements(kind, N)
    assert m.elements.dtype == elements.dtype
    assert np.array_equal(m.elements, elements)
    names = ("edges", "edge_elems", "elem_edges", "edge_normals", "edge_lengths",
             "boundary_edges")
    for name, want in zip(names, reference_connect(m.nodes, elements)):
        got = getattr(m, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def assert_normals_out_of_t1(m):
    """Unit edge normals, orthogonal to their edges, pointing out of T1."""
    vec = m.nodes[m.edges[:, 1]] - m.nodes[m.edges[:, 0]]
    dots = np.einsum("ij,ij->i", m.edge_normals, vec)
    assert np.max(np.abs(dots)) <= 1e-14
    assert np.allclose(np.linalg.norm(m.edge_normals, axis=1), 1.0, rtol=0, atol=1e-15)
    c1 = m.nodes[m.elements[m.edge_elems[:, 0]]].mean(axis=1)
    mid = edge_midpoints(m)
    assert np.all(np.einsum("ij,ij->i", m.edge_normals, mid - c1) > 0)


@pytest.mark.parametrize("kind,build", [("tri", build_uniform_tri),
                                        ("rect", build_uniform_rect)])
@pytest.mark.parametrize("N", [1, 2, 3, 7, 16])
def test_tables_match_reference_walk(kind, build, N):
    """The vectorised tables equal the element-by-element construction bit
    for bit: same edge numbering, orientation, adjacency and normals."""
    assert_tables_match_reference(build(N), kind, N)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["tri", "rect"]), N=st.integers(1, 40),
       x0=st.floats(-2.0, 2.0), y0=st.floats(-2.0, 2.0),
       width=st.floats(0.1, 4.0), height=st.floats(0.1, 4.0))
def test_tables_match_reference_walk_on_any_box(kind, N, x0, y0, width, height):
    """On boxes with hx != hy the tables still equal the reference walk bit
    for bit. The reference flips every normal that points into T1, so equal
    normals show that the first appearance's orientation needs no flip."""
    build = build_uniform_tri if kind == "tri" else build_uniform_rect
    m = build(N, (x0, x0 + width, y0, y0 + height))
    assume(m.kappa != 1.0)
    assert_tables_match_reference(m, kind, N)


@pytest.mark.parametrize("build", [build_uniform_tri, build_uniform_rect],
                         ids=["tri", "rect"])
@pytest.mark.parametrize("N", [7, 64])
def test_centroids_equal_vertex_mean_bitwise(build, N):
    """element_centroids sums the vertices one by one; on a box whose
    coordinates round, it still gives the bits of the (n, nv, 2) mean."""
    m = build(N, (-0.3, 1.7, 0.1, 2.9))
    want = m.nodes[m.elements].mean(axis=1)
    got = m.element_centroids()
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestTriMesh:
    def test_counts_n1(self):
        m = build_uniform_tri(1, (0, 1, 0, 1))
        assert m.n_elements == 2
        assert m.n_edges == 5
        assert m.boundary_edges.sum() == 4

    def test_counts_n2_against_enumeration(self):
        m = build_uniform_tri(2)
        assert m.n_elements == 8
        # enumeration oracle: count distinct vertex pairs over all elements
        pairs = set()
        for conn in m.elements:
            for i in range(3):
                a, b = int(conn[i]), int(conn[(i + 1) % 3])
                pairs.add((min(a, b), max(a, b)))
        assert len(pairs) == m.n_edges == 3 * 4 + 2 * 2

    @pytest.mark.parametrize("N", [1, 2, 3, 8, 16, 64])
    def test_edge_count_formula(self, N):
        m = build_uniform_tri(N)
        assert m.n_edges == 3 * N * N + 2 * N
        assert m.nodes.shape[0] == (N + 1) ** 2
        assert m.n_elements == 2 * N * N

    def test_interior_edges_have_two_elements(self):
        m = build_uniform_tri(8)
        interior = ~m.boundary_edges
        assert np.all(m.edge_elems[interior, 1] >= 0)
        assert np.all(m.edge_elems[m.boundary_edges, 1] == -1)

    def test_t1_has_smaller_id(self):
        m = build_uniform_tri(5)
        interior = ~m.boundary_edges
        assert np.all(m.edge_elems[interior, 0] < m.edge_elems[interior, 1])

    def test_edge_normals(self):
        assert_normals_out_of_t1(build_uniform_tri(4))

    def test_h(self):
        m = build_uniform_tri(8)
        assert abs(m.h - np.sqrt(2.0) * 0.25) <= 1e-15

    def test_deterministic_rebuild(self):
        a = build_uniform_tri(6)
        b = build_uniform_tri(6)
        assert np.array_equal(a.nodes, b.nodes)
        assert np.array_equal(a.elements, b.elements)
        assert np.array_equal(a.edges, b.edges)


class TestRectMesh:
    def test_counts_n1(self):
        m = build_uniform_rect(1, (0, 1, 0, 1))
        assert m.n_elements == 1
        assert m.n_edges == 4
        assert m.kappa == 1.0

    def test_counts_n2(self):
        m = build_uniform_rect(2)
        assert m.n_elements == 4
        assert m.n_edges == 2 * 2 * 3

    def test_uniform_edge_lengths(self):
        m = build_uniform_rect(4)
        assert np.allclose(m.edge_lengths, 0.5)

    @pytest.mark.parametrize("box", [(-1.0, 1.0, -1.0, 1.0), (-0.3, 1.7, 0.1, 2.9)])
    def test_edge_normals(self, box):
        assert_normals_out_of_t1(build_uniform_rect(4, box))


class TestDofMap:
    def test_one_dof_per_edge_boundary_constrained(self):
        """The constrained set is exactly the edges on the box boundary,
        which are the edges with a single adjacent element."""
        for m in (build_uniform_tri(3), build_uniform_rect(3)):
            x0, x1, y0, y1 = m.box
            ends = m.nodes[m.edges]  # (n_edges, 2 endpoints, 2)
            on_box = np.zeros(m.n_edges, dtype=bool)
            for axis, bound in ((0, x0), (0, x1), (1, y0), (1, y1)):
                on_box |= np.all(ends[..., axis] == bound, axis=1)
            assert m.boundary_edges.shape == (m.n_edges,)
            assert np.array_equal(m.boundary_edges, on_box)
            assert np.array_equal(m.boundary_edges, m.edge_elems[:, 1] < 0)


class TestInterfaceEdges:
    def test_circle_neighbors_are_interface(self, circle_ls):
        m = build_uniform_tri(8)
        layout = build_layout(m, circle_ls)
        assert layout.interface_edges.size > 0
        for eid in layout.interface_edges:
            for t in m.edge_elems[eid]:
                if t >= 0:
                    assert layout.classes[t] == INTERFACE

    def test_interface_outside_domain(self):
        ls = LevelSet(phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 100.0,
                      grad=lambda x: 2.0 * np.asarray(x, float))
        m = build_uniform_tri(4)
        layout = build_layout(m, ls)
        assert layout.interface_edges.size == 0
        assert interface_elements(layout).size == 0

    def test_straight_diagonal_interface(self, diagonal_ls):
        # interface along x1 = x2 crosses one diagonal edge per diagonal cell
        N = 8
        m = build_uniform_tri(N)
        layout = build_layout(m, diagonal_ls)
        assert layout.interface_edges.size == N
        mids = edge_midpoints(m)[layout.interface_edges]
        assert np.allclose(mids[:, 0], mids[:, 1], atol=1e-14)
        # the crossings sit at the diagonal-edge midpoints
        splits = edge_splits(layout)
        for eid in layout.interface_edges:
            q = splits[int(eid)]
            assert np.allclose(q, mids[list(layout.interface_edges).index(eid)], atol=1e-10)
        # 2 vertex-chord interface elements per diagonal cell
        assert interface_elements(layout).size == 2 * N
        cuts = as_elements(layout.cuts)
        for e in interface_elements(layout):
            cut = cuts[int(e)]
            assert cut.loc_d[0] == "vertex"
            # chord lies on the interface itself
            assert abs(diagonal_ls.phi(cut.x_p)) <= 1e-14

    def test_closed_polyline_on_circle(self, circle_ls):
        m = build_uniform_tri(8)
        layout = build_layout(m, circle_ls)
        counts = {}
        for D, E in zip(layout.cuts.D, layout.cuts.E):
            for p in (D, E):
                key = tuple(np.round(p, 9))
                counts[key] = counts.get(key, 0) + 1
        assert counts and all(v == 2 for v in counts.values())
