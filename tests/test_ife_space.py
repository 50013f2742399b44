import numpy as np
import pytest

from ifelab.cutting import build_layout
from ifelab.experiments import random_cut, random_triangle
from ifelab.geometry import cut_from_chord
from ifelab.ife_space import (
    CR,
    RQ1,
    edge_means,
    evaluate,
    ife_local_basis_cr_sm,
    ife_local_basis_direct,
    sm_geometry_checks,
    standard_local_basis,
)

from conftest import (
    basis_at,
    edge_mean_of,
    edge_splits,
    jump_correction_local,
    one_element_mesh,
    standard_at,
    table_basis_at,
)
from cut_reference import as_element, take

REF_TRI = np.array([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
UNIT_SQ = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])


def delta_residual(basis, npts=5):
    """max_ij |N_j(phi_i) - delta_ij| using split-edge quadrature."""
    cut = as_element(basis.cut)
    verts = cut.vertices
    nv = len(verts)
    splits = cut.splits()
    worst = 0.0
    for i in range(basis.n_dofs):
        for j in range(nv):
            a, b = verts[j], verts[(j + 1) % nv]
            mean = edge_mean_of(lambda p, i=i: basis_at(basis, p)[0][..., i], a, b,
                                split=splits.get(j), npts=npts)
            worst = max(worst, abs(mean - (1.0 if i == j else 0.0)))
    return worst


def constraint_residuals(basis):
    cut = as_element(basis.cut)
    val = lambda c, x: evaluate(c, x, basis.center, basis.kappa)[0]
    grad = lambda c, x: evaluate(c, x, basis.center, basis.kappa)[1]
    out = 0.0
    for plus, minus in basis.coef:
        out = max(out, abs(val(plus, cut.D) - val(minus, cut.D)))
        out = max(out, abs(val(plus, cut.E) - val(minus, cut.E)))
        out = max(out, abs(basis.beta_c_plus * (grad(plus, cut.x_p) @ cut.n_h)
                           - basis.beta_c_minus * (grad(minus, cut.x_p) @ cut.n_h)))
        if basis.n_dofs == 4:  # rq1
            out = max(out, abs(plus[3] - minus[3]))
    return out


class TestStandardBasis:
    def test_cr_closed_form_on_reference_triangle(self):
        lam = standard_local_basis(REF_TRI)
        # edge 1 is the hypotenuse (1,0)->(0,1); dual basis is 2(x+y)-1
        pts = np.array([[0.3, 0.1], [0.0, 0.0], [0.5, 0.5]])
        hyp = standard_at(lam, REF_TRI, pts)[0][:, 1]
        assert np.allclose(hyp, 2 * (pts[:, 0] + pts[:, 1]) - 1, atol=1e-14)
        for i in range(3):
            for j in range(3):
                a, b = REF_TRI[j], REF_TRI[(j + 1) % 3]
                mean = edge_mean_of(lambda p: standard_at(lam, REF_TRI, p)[0][..., i], a, b)
                assert abs(mean - (i == j)) <= 1e-13

    def test_no_element_with_other_vertex_counts(self):
        pentagon = np.array([(0.0, 0.0), (1.0, 0.0), (1.5, 0.8), (0.5, 1.4), (-0.5, 0.8)])
        with pytest.raises(ValueError, match="5 vertices"):
            standard_local_basis(pentagon)

    def test_rq1_partition_of_unity(self):
        lam = standard_local_basis(UNIT_SQ)
        pts = np.random.default_rng(0).uniform(0, 1, size=(20, 2))
        total = standard_at(lam, UNIT_SQ, pts)[0].sum(axis=-1)
        assert np.allclose(total, 1.0, atol=1e-13)

    def test_duality_on_random_elements(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tri = random_triangle(rng)
            lam = standard_local_basis(tri)
            for i in range(3):
                for j in range(3):
                    mean = edge_mean_of(lambda p: standard_at(lam, tri, p)[0][..., i],
                                        tri[j], tri[(j + 1) % 3])
                    assert abs(mean - (i == j)) <= 1e-12
        for _ in range(50):
            c = rng.uniform(-2, 2, 2)
            w, h = rng.uniform(0.2, 3.0, 2)
            rect = np.array([c, c + (w, 0), c + (w, h), c + (0, h)])
            lam = standard_local_basis(rect, kappa=w / h)
            for i in range(4):
                for j in range(4):
                    mean = edge_mean_of(lambda p: standard_at(lam, rect, p, w / h)[0][..., i],
                                        rect[j], rect[(j + 1) % 4])
                    assert abs(mean - (i == j)) <= 1e-12


class TestDFunctional:
    """The last coefficient of an array is the d functional: the multiple of
    the bubble dx^2 - kappa^2 dy^2 in the function."""

    @staticmethod
    def d_of(coef, kappa, h=0.5):
        """d recovered from values alone: the second difference along x."""
        c = np.array([0.3, -0.2])
        x = np.array([c - (h, 0.0), c, c + (h, 0.0)])
        v, _ = evaluate(coef, x, c, kappa)
        return (v[0] - 2.0 * v[1] + v[2]) / (2.0 * h * h)

    def test_pure_bubble(self):
        assert abs(self.d_of(np.array([0.0, 0.0, 0.0, 1.0]), 2.0) - 1.0) <= 1e-14

    def test_linear(self):
        assert abs(self.d_of(np.array([3.0, 2.0, 0.0, 0.0]), 1.0)) <= 1e-14
        assert np.all(standard_local_basis(REF_TRI)[:, 3] == 0.0)

    def test_scaled(self):
        assert abs(self.d_of(np.array([0.0, 0.0, 1.0, 5.0]), 0.7) - 5.0) <= 1e-13


class TestDirectBasis:
    def test_kind_must_fit_the_element(self):
        """The element's vertex count decides its space; a kind that does
        not fit it raises instead of being ignored."""
        cut = cut_from_chord(REF_TRI, ("edge", 0), 0.5, ("edge", 1), 0.5)
        with pytest.raises(ValueError, match="does not fit"):
            ife_local_basis_direct(cut, RQ1, 1.0, 2.0)

    def test_equal_coefficients_recover_standard_rq1(self):
        cut = cut_from_chord(UNIT_SQ, ("edge", 0), 0.5, ("edge", 2), 0.3,
                             plus_toward=(0.9, 0.9))
        basis = ife_local_basis_direct(cut, RQ1, 2.5, 2.5)
        lam = standard_local_basis(UNIT_SQ)
        pts = np.random.default_rng(1).uniform(0, 1, size=(30, 2))
        assert np.allclose(basis_at(basis, pts)[0], standard_at(lam, UNIT_SQ, pts)[0],
                           atol=1e-12)

    def test_partition_of_unity_coefficients(self):
        rng = np.random.default_rng(5)
        tri = random_triangle(rng)
        cut = random_cut(rng, tri)
        basis = ife_local_basis_direct(cut, CR, 7.0, 0.03)
        for piece in range(2):
            a, b, c, _ = basis.coef[:, piece].sum(axis=0)
            assert abs(a - 1.0) <= 1e-10 and abs(b) <= 1e-10 and abs(c) <= 1e-10

    @pytest.mark.parametrize("kind", [CR, RQ1])
    def test_delta_property_1000_random_cuts(self, kind):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            if kind == CR:
                elem = random_triangle(rng, max_angle_deg=160)
                i, j = rng.choice(3, size=2, replace=False)
            else:
                c = rng.uniform(-2, 2, 2)
                w, h = rng.uniform(0.3, 2.0, 2)
                elem = np.array([c, c + (w, 0), c + (w, h), c + (0, h)])
                i, j = rng.choice(4, size=2, replace=False)
            cut = cut_from_chord(elem, ("edge", int(i)), rng.uniform(0.05, 0.95),
                                 ("edge", int(j)), rng.uniform(0.05, 0.95))
            ratio = 10 ** rng.uniform(-3, 3)
            kappa = 1.0 if kind == CR else w / h
            basis = ife_local_basis_direct(cut, kind, ratio, 1.0, kappa=kappa)
            assert delta_residual(basis, npts=3) <= 1e-10
            assert constraint_residuals(basis) <= 1e-10 * max(1.0, ratio)

    def test_rq1_partition_of_unity_on_cut(self):
        cut = cut_from_chord(UNIT_SQ, ("edge", 0), 0.4, ("edge", 2), 0.7,
                             plus_toward=(0.9, 0.9))
        basis = ife_local_basis_direct(cut, RQ1, 500.0, 0.2)
        for piece in range(2):
            a, b, c, d = basis.coef[:, piece].sum(axis=0)
            assert abs(a - 1.0) <= 1e-10
            assert abs(b) + abs(c) + abs(d) <= 1e-10

    def test_vertex_chord_basis(self, diagonal_ls):
        tri = np.array([(0.0, 0.0), (0.25, 0.0), (0.0, 0.25)])
        cut = build_layout(one_element_mesh(tri), diagonal_ls).cuts
        assert as_element(cut).loc_d[0] == "vertex"
        basis = ife_local_basis_direct(cut, CR, 2.0, 1.0)
        assert delta_residual(basis) <= 1e-10


class TestBatchedSolve:
    @pytest.mark.parametrize("kind", [CR, RQ1])
    @pytest.mark.parametrize("example", ["ex1", "ex2", "ex3", "ex4"])
    def test_cut_table_equals_per_element_solve(self, kind, example):
        """The batched solve behind the cut table reproduces the one-element
        dense solve bit for bit; on triangles it agrees with the closed form
        to the stress test's bound."""
        from ifelab.assembly import build_context
        from ifelab.mesh import build_uniform_rect, build_uniform_tri
        from ifelab.problems import get_example

        prob = get_example(example)
        mesh = (build_uniform_tri if kind == CR else build_uniform_rect)(16, prob.domain)
        ctx = build_context(prob, mesh, kind)
        tab = ctx.cut_table
        assert np.array_equal(ctx.layout.cuts.ids, tab.ids)
        cuts = [take(ctx.layout.cuts, i) for i in range(len(tab.ids))]
        for cut, coef, (bp, bm) in zip(cuts, tab.coef, tab.beta_c):
            dense = ife_local_basis_direct(cut, kind, bp, bm, kappa=mesh.kappa)
            assert np.array_equal(coef, dense.coef)
            if kind == CR:
                sm = ife_local_basis_cr_sm(cut, bp, bm).coef
                assert np.abs(coef - sm).max() <= 1e-11 * max(1.0, np.abs(sm).max())

    @pytest.mark.filterwarnings("ignore:badly conditioned local system")
    def test_singular_element_named(self, circle_ls):
        """A zeroed DOF row makes the second element's system singular; the
        error names that element, not the batch."""
        from ifelab.ife_space import UnisolvenceError, _dof_rows, _solve_local
        from ifelab.mesh import build_uniform_tri

        cuts = build_layout(build_uniform_tri(8), circle_ls).cuts
        rows = _dof_rows(cuts, 1.0)
        rows[1, 0] = 0.0
        with pytest.raises(UnisolvenceError, match=rf"element {cuts.ids[1]}$"):
            _solve_local(cuts, np.tile([1.0, 2.0], (len(cuts), 1)), 1.0, rows)

    @pytest.mark.parametrize("kind", [CR, RQ1])
    def test_row_sum_singular_to_roundoff_named(self, kind):
        """A DOF row replaced by the sum of two others leaves the LU pivots
        nonzero but the condition number far above COND_MAX: the element is
        named instead of being solved with a warning."""
        from ifelab.ife_space import UnisolvenceError, _dof_rows, _solve_local
        from ifelab.mesh import build_uniform_rect, build_uniform_tri
        from ifelab.problems import example4

        prob = example4()
        mesh = (build_uniform_tri if kind == CR else build_uniform_rect)(16, prob.domain)
        cuts = build_layout(mesh, prob.levelset).cuts
        rows = _dof_rows(cuts, mesh.kappa)
        rows[1, 0] = rows[1, 1] + rows[1, 2]
        beta = np.tile([1.0, 10.0], (len(cuts), 1))
        with pytest.raises(UnisolvenceError, match=rf"element {cuts.ids[1]}$"):
            _solve_local(cuts, beta, mesh.kappa, rows)

    def test_solve_under_numpy1_rhs_rule(self, circle_ls, monkeypatch):
        """NumPy 1.x reads a right-hand side with one dimension fewer than a
        stack of matrices as a stack of vectors; the batched solves of the
        bases and of the edge liftings must give the same coefficients under
        that rule."""
        from ifelab.assembly import (build_context, build_edge_table, lift_trace,
                                     lifting_stability_ratio)
        from ifelab.mesh import build_uniform_tri
        from ifelab.problems import example4

        solve = np.linalg.solve

        def solve_numpy1(a, b):
            b = np.asarray(b)
            if b.ndim == a.ndim - 1:
                return solve(a, b[..., None])[..., 0]
            return solve(a, b)

        layout = build_layout(build_uniform_tri(8), circle_ls)
        cuts = [take(layout.cuts, i) for i in range(4)]
        ref = [ife_local_basis_direct(c, CR, 2.0, 1.0).coef for c in cuts]
        prob = example4()
        ctx = build_context(prob, build_uniform_tri(8, prob.domain), CR)
        edges = build_edge_table(ctx, ctx.layout.interface_edges)
        trace = lambda p: np.sin(3 * p[..., 0]) + p[..., 1] ** 2
        lifted, moments = lift_trace(edges, trace), edges.lift(edges.T_mat)
        ratios = lifting_stability_ratio(ctx, edges)
        monkeypatch.setattr(np.linalg, "solve", solve_numpy1)
        for cut, coef in zip(cuts, ref):
            assert np.array_equal(ife_local_basis_direct(cut, CR, 2.0, 1.0).coef, coef)
        assert np.array_equal(lift_trace(edges, trace), lifted)
        assert np.array_equal(edges.lift(edges.T_mat), moments)
        assert np.array_equal(lifting_stability_ratio(ctx, edges), ratios)


class TestEdgeMeans:
    def test_matches_per_edge_means(self, circle_ls):
        """The batched means equal edge_mean_of edge by edge, cut edges split
        at their crossing, for a function that jumps across the interface."""
        from ifelab.mesh import build_uniform_rect

        f = lambda p: np.where(circle_ls.phi(p) > 0, np.sin(3 * p[..., 0]) + p[..., 1] ** 2,
                               2.0 - p[..., 0] * p[..., 1])
        mesh = build_uniform_rect(8)
        layout = build_layout(mesh, circle_ls)
        splits = edge_splits(layout)
        ids = np.arange(1, mesh.n_edges, 2)
        got = edge_means(f, mesh, layout, ids)
        p0 = mesh.nodes[mesh.edges[ids, 0]]
        p1 = mesh.nodes[mesh.edges[ids, 1]]
        ref = [edge_mean_of(f, a, b, split=splits.get(int(e))) for e, a, b in zip(ids, p0, p1)]
        assert any(int(e) in splits for e in ids)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestLinearReproduction:
    def test_interpolant_reproduces_global_linears(self, circle_ls):
        """With equal coefficients the immersed space contains linears, and
        the edge-mean interpolant reproduces them pointwise."""
        from ifelab.assembly import build_context
        from ifelab.ife_space import interpolate_ife
        from ifelab.mesh import build_uniform_tri
        from ifelab.problems import ProblemSpec
        u = lambda x: 1.0 + 2.0 * x[..., 0] - 3.0 * x[..., 1]
        gu = lambda x: np.broadcast_to(np.array([2.0, -3.0]),
                                       np.asarray(x, float).shape).copy()
        one = lambda x: np.ones(np.asarray(x, float).shape[:-1])
        zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
        fields = lambda x: (zero(x), u(x), gu(x))
        prob = ProblemSpec(name="linear", levelset=circle_ls, domain=(-1, 1, -1, 1),
                           beta_plus=one, beta_minus=one, fields_plus=fields,
                           fields_minus=fields)
        mesh = build_uniform_tri(8)
        ctx = build_context(prob, mesh, CR)
        dofs = interpolate_ife(prob, mesh, ctx.layout)
        rng = np.random.default_rng(0)
        for e in range(0, mesh.n_elements, 7):
            verts = mesh.element_vertices(e)
            pts = (verts[0] + np.outer(rng.uniform(0, 1, 5), verts[1] - verts[0]) / 2
                   + np.outer(rng.uniform(0, 1, 5), verts[2] - verts[0]) / 2)
            c = dofs[mesh.elem_edges[e]]
            if ctx.cut_table.row[e] >= 0:
                vals = table_basis_at(ctx, e, pts)[0] @ c
            else:
                vals = standard_at(standard_local_basis(verts), verts, pts)[0] @ c
            assert np.abs(vals - u(pts)).max() <= 1e-12


class TestClosedFormAgainstDense:
    def test_equal_coefficients_give_standard_basis(self):
        rng = np.random.default_rng(2)
        tri = random_triangle(rng)
        cut = random_cut(rng, tri)
        basis = ife_local_basis_cr_sm(cut, 4.0, 4.0)
        lam = standard_local_basis(tri)
        pts = tri.mean(axis=0) + rng.uniform(-0.05, 0.05, size=(20, 2))
        ref = standard_at(lam, tri, pts)[0]
        for piece in range(2):
            vals, _ = evaluate(basis.coef[:, piece], pts[:, None, :], basis.center)
            assert np.allclose(vals, ref, atol=1e-11)

    def test_gamma_delta_in_unit_interval(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            tri = random_triangle(rng)
            cut = random_cut(rng, tri)
            ratio = 10 ** rng.uniform(-3, 3)
            gd, k1k2, margin = sm_geometry_checks(cut, ratio, 1.0)
            assert -1e-12 <= gd <= 1.0 + 1e-12
            assert abs(gd - k1k2) <= 1e-10
            assert margin >= -1e-12

    def test_agreement_with_dense_solve_on_obtuse_triangles(self):
        rng = np.random.default_rng(23)
        checked = 0
        while checked < 1000:
            tri = random_triangle(rng, max_angle_deg=175.0)
            cut = random_cut(rng, tri)
            bp = 10 ** rng.uniform(-1.5, 1.5)
            bm = bp * 10 ** rng.uniform(-3, 3)
            sm = ife_local_basis_cr_sm(cut, bp, bm)
            dense = ife_local_basis_direct(cut, CR, bp, bm)
            x, y = sm.coef, dense.coef
            assert np.all(np.abs(x - y) <= 1e-11 * np.maximum(1.0, np.maximum(abs(x), abs(y))))
            checked += 1

    def test_vertex_chord_agreement(self, diagonal_ls):
        tri = np.array([(0.5, 0.5), (0.75, 0.5), (0.5, 0.75)])
        cut = build_layout(one_element_mesh(tri), diagonal_ls).cuts
        sm = ife_local_basis_cr_sm(cut, 2.0, 1.0)
        dense = ife_local_basis_direct(cut, CR, 2.0, 1.0)
        pts = tri.mean(axis=0) + np.random.default_rng(0).uniform(-0.05, 0.05, (10, 2))
        assert np.allclose(basis_at(sm, pts)[0], basis_at(dense, pts)[0], atol=1e-11)


class TestBasisBoundedness:
    # calibrated once over the seeded stream below; the constants absorb the
    # coefficient-pair amplification (1 + max(ratio, 1/ratio)) that the
    # gradient bound legitimately carries, so near-degenerate cuts are held
    # to the same ceiling as balanced ones
    VALUE_BOUND = 40.0
    GRAD_BOUND = 35.0

    def test_uniform_bound_including_degenerate_cuts(self):
        rng = np.random.default_rng(31)
        grid = np.stack(np.meshgrid(np.linspace(0, 1, 10), np.linspace(0, 1, 10),
                                    indexing="ij"), axis=-1).reshape(-1, 2)

        def sup_norms(tri, cut, basis):
            # barycentric sample grid mapped into the triangle
            pts = (tri[0] + np.outer(grid[:, 0], tri[1] - tri[0])
                   + np.outer(grid[:, 1] * (1 - grid[:, 0]), tri[2] - tri[0]))
            h = as_element(cut).h_T
            vals, grads = basis_at(basis, pts)
            return np.max(np.abs(vals)), h * np.max(np.linalg.norm(grads, axis=-1))

        for balanced in (True, False):
            for _ in range(500):
                tri = random_triangle(rng, max_angle_deg=120)
                if balanced:
                    cut = random_cut(rng, tri)
                else:
                    # sliver cutting off less than 1e-3 of the element area
                    i = int(rng.integers(3))
                    cut = cut_from_chord(tri, ("edge", int(i)), rng.uniform(0.99, 0.999),
                                         ("edge", int((i + 1) % 3)), rng.uniform(0.001, 0.01))
                ratio = 10 ** rng.uniform(-3, 3)
                basis = ife_local_basis_direct(cut, CR, ratio, 1.0)
                wv, wg = sup_norms(tri, cut, basis)
                amp = 1.0 + max(ratio, 1.0 / ratio)
                assert wv <= self.VALUE_BOUND
                assert wg <= self.GRAD_BOUND * amp


class TestJumpCorrection:
    def _mk(self, rng):
        tri = random_triangle(rng)
        return random_cut(rng, tri)

    @staticmethod
    def correction(cut, kind, bp, bm, g_D, g_N):
        """The correction on the dense basis, with its value and gradient
        functions per piece; g_D and g_N are evaluated at (D, E)."""
        basis = ife_local_basis_direct(cut, kind, bp, bm)
        ends = np.concatenate([cut.D, cut.E])
        coef = jump_correction_local(basis, g_D(ends), g_N(ends))
        val = lambda c, x: evaluate(c, x, basis.center)[0]
        grad = lambda c, x: evaluate(c, x, basis.center)[1]
        return coef, val, grad

    def test_zero_data_gives_zero(self):
        rng = np.random.default_rng(41)
        cut = self._mk(rng)
        zero = lambda x: 0.0
        (plus, minus), _, _ = self.correction(cut, CR, 3.0, 1.0, zero, zero)
        for p in (plus, minus):
            assert abs(p[0]) + abs(p[1]) + abs(p[2]) <= 1e-12

    def test_constant_value_jump(self):
        rng = np.random.default_rng(43)
        cut = self._mk(rng)
        one = lambda x: 1.0
        zero = lambda x: 0.0
        (plus, minus), val, _ = self.correction(cut, CR, 2.0, 2.0, one, zero)
        cut = as_element(cut)
        assert abs((val(plus, cut.D) - val(minus, cut.D)) - 1.0) <= 1e-11
        assert abs((val(plus, cut.E) - val(minus, cut.E)) - 1.0) <= 1e-11
        verts = cut.vertices
        splits = cut.splits()
        field = lambda p: np.where(cut.side_of(p) > 0, val(plus, p), val(minus, p))
        for j in range(3):
            mean = edge_mean_of(field, verts[j], verts[(j + 1) % 3], split=splits.get(j))
            assert abs(mean) <= 1e-11

    @pytest.mark.parametrize("kind", [CR, RQ1])
    def test_all_defining_equations(self, kind):
        rng = np.random.default_rng(47)
        if kind == CR:
            elem = random_triangle(rng)
            cut = random_cut(rng, elem)
        else:
            elem = UNIT_SQ
            cut = cut_from_chord(elem, ("edge", 0), 0.35, ("edge", 1), 0.6)
        gd = lambda x: np.log(x[..., 0] ** 2 + x[..., 1] ** 2 + 1.3) - np.sin(x[..., 0])
        gn = lambda x: np.cos(x[..., 0] + x[..., 1])
        bp, bm = 2.7, 0.4
        (plus, minus), val, grad = self.correction(cut, kind, bp, bm, gd, gn)
        cut = as_element(cut)
        assert abs((val(plus, cut.D) - val(minus, cut.D)) - gd(cut.D)) <= 1e-10
        assert abs((val(plus, cut.E) - val(minus, cut.E)) - gd(cut.E)) <= 1e-10
        flux = bp * (grad(plus, cut.x_p) @ cut.n_h) - bm * (grad(minus, cut.x_p) @ cut.n_h)
        assert abs(flux - 0.5 * (gn(cut.D) + gn(cut.E))) <= 1e-10
        if kind == RQ1:
            assert abs(plus[3] - minus[3]) <= 1e-12
        field = lambda p: np.where(cut.side_of(p) > 0, val(plus, p), val(minus, p))
        verts = cut.vertices
        splits = cut.splits()
        for j in range(len(verts)):
            mean = edge_mean_of(field, verts[j], verts[(j + 1) % len(verts)],
                                split=splits.get(j))
            assert abs(mean) <= 1e-10
