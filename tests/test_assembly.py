from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ifelab.assembly import (
    BLOCK_POINTS,
    EDGE_NPTS,
    VOLUME_DEGREE,
    AssembledSystem,
    AssemblyError,
    SolverError,
    SolverMemoryError,
    _eliminate,
    _independent_set,
    assemble,
    assemble_rhs,
    build_context,
    build_edge_table,
    build_jump_correction,
    build_lifting_block,
    lift_trace,
    lifting_stability_ratio,
    solve,
    solve_spd,
)
from ifelab.geometry import INTERIOR_MINUS, INTERIOR_PLUS, GeometryError, LevelSet
from ifelab.ife_space import evaluate, standard_local_basis
from ifelab.mesh import build_uniform_rect, build_uniform_tri
from ifelab.problems import ProblemSpec, example1, example2, example3, example4
from ifelab.quadrature import polygon_area, polygon_points_weights, segment_rule

from conftest import (
    circle_levelset,
    edge_splits,
    ellipse_levelset,
    lifted_field,
    standard_at,
)
from cut_reference import as_element, as_elements


def far_levelset():
    """Interface entirely outside the computational domain."""
    return LevelSet(phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 100.0,
                    grad=lambda x: 2.0 * np.asarray(x, float))


def poisson_far_problem():
    from ifelab.problems import ProblemSpec
    zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
    one = lambda x: np.ones(np.asarray(x, float).shape[:-1])
    gzero = lambda x: np.zeros(np.asarray(x, float).shape)
    return ProblemSpec(
        name="poisson", levelset=far_levelset(), domain=(0.0, 1.0, 0.0, 1.0),
        beta_plus=one, beta_minus=one, f_plus=one, f_minus=one,
        u_plus=zero, u_minus=zero, grad_u_plus=gzero, grad_u_minus=gzero,
        g_D=zero, g_N=zero, g_boundary=zero)


class TestVolumeAssembly:
    def test_plain_equals_reference_cr_stiffness(self):
        """With the interface outside the domain the method degenerates to
        the standard nonconforming stiffness matrix."""
        prob = poisson_far_problem()
        mesh = build_uniform_tri(4, prob.domain)
        ctx = build_context(prob, mesh, "cr")
        sys_ = assemble(ctx, "plain")
        A = sp.lil_matrix((mesh.n_edges, mesh.n_edges))
        for e in range(mesh.n_elements):
            verts = mesh.element_vertices(e)
            lam = standard_local_basis(verts)
            area = polygon_area(verts)
            conn = mesh.elem_edges[e]
            _, grads = standard_at(lam, verts, verts.mean(axis=0))
            for i in range(3):
                gi = grads[i]
                for j in range(3):
                    gj = grads[j]
                    A[conn[i], conn[j]] += area * float(gi @ gj)
        A = A.tocsr()
        free = sys_.free
        diff = abs(A[free][:, free] - sys_.matrix).max()
        assert diff <= 1e-12 * abs(A).max()

    def test_rhs_unit_source_against_elementwise_oracle(self):
        prob = poisson_far_problem()
        mesh = build_uniform_tri(2, prob.domain)
        ctx = build_context(prob, mesh, "cr")
        b = assemble_rhs(ctx, "plain")
        oracle = np.zeros(mesh.n_edges)
        for e in range(mesh.n_elements):
            verts = mesh.element_vertices(e)
            lam = standard_local_basis(verts)
            pts, wts = polygon_points_weights(verts, 6)
            vals, _ = standard_at(lam, verts, pts)
            for i, conn in enumerate(mesh.elem_edges[e]):
                oracle[conn] += wts @ vals[:, i]
        assert np.abs(b - oracle).max() <= 1e-14

    def test_zero_data_gives_zero_rhs(self):
        from dataclasses import replace
        prob = poisson_far_problem()
        zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
        prob = replace(prob, f_plus=zero, f_minus=zero)
        mesh = build_uniform_tri(3, prob.domain)
        ctx = build_context(prob, mesh, "cr")
        sys_ = assemble(ctx, "plain")
        assert np.all(sys_.rhs == 0.0)
        assert np.all(sys_.constrained_values == 0.0)


class TestElementKind:
    @pytest.mark.parametrize("build, kind", [(build_uniform_tri, "rq1"),
                                             (build_uniform_rect, "cr")],
                             ids=["tri-rq1", "rect-cr"])
    def test_kind_must_fit_the_mesh(self, build, kind):
        """The mesh decides the element; build_context checks kind against
        its vertex count before any work."""
        prob = example4()
        with pytest.raises(ValueError, match="does not fit"):
            build_context(prob, build(8, prob.domain), kind)


class TestMethodStructure:
    def setup_method(self):
        self.prob = example1(10.0, 1000.0)
        self.mesh = build_uniform_tri(8)
        self.ctx = build_context(self.prob, self.mesh, "cr")

    def test_symmetry_all_methods(self):
        for method in ("plain", "new", "ppifem"):
            sys_ = assemble(self.ctx, method)
            asym = abs(sys_.matrix - sys_.matrix.T).max()
            assert asym <= 1e-12 * abs(sys_.matrix).max()

    def test_coercivity_against_volume_form(self):
        A = assemble(self.ctx, "new").matrix
        V = assemble(self.ctx, "plain").matrix
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal(A.shape[0])
            av = float(v @ (A @ v))
            vv = float(v @ (V @ v))
            assert av >= 0.5 * vv - 1e-10 * vv

    def test_plain_vs_new_differ_only_near_interface_edges(self):
        Anew = assemble(self.ctx, "new").matrix
        Apl = assemble(self.ctx, "plain").matrix
        D = (Anew - Apl).tocoo()
        scale = abs(Anew).max()
        allowed = set()
        for eid in self.ctx.layout.interface_edges:
            for t in self.mesh.edge_elems[eid]:
                if t >= 0:
                    allowed.update(int(d) for d in self.mesh.elem_edges[t])
        free = self.ctx.mesh.boundary_edges
        fmap = np.nonzero(~free)[0]
        for i, j, v in zip(D.row, D.col, D.data):
            if abs(v) > 1e-13 * scale:
                assert int(fmap[i]) in allowed and int(fmap[j]) in allowed

    def test_sparsity_stencil(self):
        A = assemble(self.ctx, "new").matrix.tocsr()
        mesh = self.mesh
        fmap = np.nonzero(~mesh.boundary_edges)[0]
        # edges reachable by sharing an element, plus across interface edges
        neighbors = [set() for _ in range(mesh.n_edges)]
        for e in range(mesh.n_elements):
            conn = [int(d) for d in mesh.elem_edges[e]]
            for d in conn:
                neighbors[d].update(conn)
        for eid in self.ctx.layout.interface_edges:
            union = set()
            for t in mesh.edge_elems[eid]:
                if t >= 0:
                    union.update(int(d) for d in mesh.elem_edges[t])
            for d in union:
                neighbors[d].update(union)
        for row in range(A.shape[0]):
            cols = A.indices[A.indptr[row]:A.indptr[row + 1]]
            vals = A.data[A.indptr[row]:A.indptr[row + 1]]
            for c, v in zip(cols, vals):
                if abs(v) > 1e-13 * abs(A).max():
                    assert int(fmap[c]) in neighbors[int(fmap[row])]

    def test_consistency_term_symmetric_alone(self):
        """The edge consistency term is symmetric by itself (stabilization
        removed), so either stabilization preserves symmetry."""
        from ifelab.assembly import _edge_matrices
        edges = build_edge_table(self.ctx, self.ctx.layout.interface_edges)
        T = edges.T_mat
        B = _edge_matrices(edges, "new", None) - 4.0 * T.transpose(0, 2, 1) @ edges.lift(T)
        scale = np.maximum(1.0, np.abs(B).max(axis=(1, 2)))
        assert np.all(np.abs(B - B.transpose(0, 2, 1)).max(axis=(1, 2)) <= 1e-12 * scale)

    def test_fixed_point_reassembly(self):
        sys1 = assemble(self.ctx, "new")
        x1, _ = solve_spd(sys1)
        ctx2 = build_context(self.prob, build_uniform_tri(8), "cr")
        sys2 = assemble(ctx2, "new")
        x2, _ = solve_spd(sys2)
        assert np.abs(x1 - x2).max() <= 1e-10 * max(1.0, np.abs(x1).max())


class TestLifting:
    def setup_method(self):
        self.prob = example1(10.0, 1000.0)
        self.mesh = build_uniform_tri(8)
        self.ctx = build_context(self.prob, self.mesh, "cr")
        self.edges = build_edge_table(self.ctx, self.ctx.layout.interface_edges)

    def test_zero_trace_lifts_to_zero(self):
        c = lift_trace(self.edges, lambda p: np.zeros(p.shape[:-1]))
        assert c.shape == self.edges.psi.shape[:2]
        assert np.abs(c).max() == 0.0

    def test_definition_residual(self):
        """The lifted field satisfies its defining identity against every
        basis field, re-integrated independently over the elements."""
        trace = lambda p: np.sin(3 * p[..., 0]) + p[..., 1] ** 2
        tab = self.ctx.cut_table
        nb = tab.coef.shape[1] - 1
        coeffs = lift_trace(self.edges, trace)
        for elems, c, M in zip(self.edges.elems, coeffs, self.edges.M):
            lhs = np.zeros(len(c))
            for off, t in zip((0, nb), elems[elems >= 0]):
                sel, r = lifted_field(self.ctx, elems, c, t)
                for k in range(nb):
                    w = tab.grads[sel, k]
                    lhs[off + k] = tab.wts[sel] @ (tab.beta[sel] * np.einsum("qi,qi->q", r, w))
            rhs = (M @ c.reshape(2, nb, 1)).ravel()  # the assembled moments, slot by slot
            scale = max(1.0, np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_orthogonal_basis_cross_check(self):
        """Tangent/weighted-normal fields give a diagonal Gram and the same
        lifted field as the gradient-basis solve."""
        trace = lambda p: p[..., 0] - 0.3 * p[..., 1]
        i_edge = 1
        eid = self.edges.edge_ids[i_edge]
        elems = self.edges.elems[i_edge]
        assert np.all(elems >= 0)
        pts, wq = self.edges.pts[i_edge], self.edges.wq[i_edge]
        n_e = self.mesh.edge_normals[eid]
        # per element, the constant fields (plus piece, minus piece): the
        # chord tangent, and the chord normal scaled so beta w . n_h is
        # continuous across the chord
        tab = self.ctx.cut_table
        fields = {}
        for t in elems:
            n_h = self.ctx.layout.cuts.n_h[tab.row[t]]
            t_h = np.array([-n_h[1], n_h[0]])
            bp, bm = tab.beta_c[tab.row[t]]
            fields[t] = [(t_h, t_h), (bm * n_h, bp * n_h)]

        # Gram and edge moments of those fields by direct quadrature
        M_o = np.zeros((4, 4))
        b_o = np.zeros(4)
        for i, t in enumerate(elems):
            own = tab.owner == tab.row[t]
            wbeta = [tab.wts[own & (tab.piece == pc)] @ tab.beta[own & (tab.piece == pc)]
                     for pc in (0, 1)]
            side = as_element(self.ctx.layout.cuts, tab.row[t]).side_of(pts)
            beta = np.where(side > 0, self.prob.beta_plus(pts), self.prob.beta_minus(pts))
            for k, (wk_p, wk_m) in enumerate(fields[t]):
                for l, (wl_p, wl_m) in enumerate(fields[t]):
                    M_o[2 * i + k, 2 * i + l] = wbeta[0] * (wk_p @ wl_p) \
                        + wbeta[1] * (wk_m @ wl_m)
                w = np.where((side > 0)[:, None], wk_p, wk_m)
                b_o[2 * i + k] = wq @ (0.5 * beta * (w @ n_e) * trace(pts))
        offdiag = M_o - np.diag(np.diag(M_o))
        assert np.abs(offdiag).max() <= 1e-12 * np.abs(M_o).max()

        c_grad = lift_trace(self.edges, trace)[i_edge]
        c_o = np.linalg.solve(M_o, b_o)
        for i, t in enumerate(elems):
            sel, f_grad = lifted_field(self.ctx, elems, c_grad, t)
            side = as_element(self.ctx.layout.cuts, tab.row[t]).side_of(tab.pts[sel])
            f_orth = np.zeros_like(f_grad)
            for k, (wp, wm) in enumerate(fields[t]):
                f_orth += c_o[2 * i + k] * np.where((side > 0)[:, None], wp, wm)
            scale = max(1.0, np.abs(f_grad).max())
            assert np.abs(f_grad - f_orth).max() <= 1e-11 * scale

    def test_stability_ratio_envelope(self):
        """The measured lifting stability constant does not grow with
        refinement (h-independence), within a calibrated ceiling."""
        maxima = {}
        for N in (8, 16, 32, 64):
            ctx = build_context(self.prob, build_uniform_tri(N), "cr")
            edges = build_edge_table(ctx, ctx.layout.interface_edges)
            maxima[N] = lifting_stability_ratio(ctx, edges).max()
        envelope = max(maxima[8], maxima[16], maxima[32])
        assert maxima[64] <= 1.05 * envelope
        assert max(maxima.values()) <= 25.0


class TestSolver:
    def test_identity_one_iteration(self):
        n = 10
        b = np.arange(1.0, n + 1)
        sys_ = AssembledSystem(sp.identity(n, format="csr"), b,
                               np.arange(n), np.array([], dtype=int),
                               np.array([]), n)
        x, it = solve_spd(sys_)
        assert it == 0
        assert np.allclose(x, b, atol=1e-15)

    def test_diagonal_matrix_factors_nothing(self, monkeypatch):
        """Every DOF of a diagonal matrix is eliminated, so x = b / diag(A)
        and SuperLU is never called."""
        import scipy.sparse.linalg

        def no_splu(*args, **kwargs):
            raise AssertionError("splu called on an empty Schur complement")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
        d = np.array([2.0, 4.0, 0.5])
        sys_ = AssembledSystem(sp.diags(d, format="csr"), np.ones(3), np.arange(3),
                               np.array([], dtype=int), np.array([]), 3)
        x, _ = solve_spd(sys_)
        np.testing.assert_array_equal(x, 1.0 / d)

    def test_two_by_two_analytic(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        sys_ = AssembledSystem(A, np.array([3.0, 3.0]), np.arange(2),
                               np.array([], dtype=int), np.array([]), 2)
        x, _ = solve_spd(sys_)
        assert np.allclose(x, [1.0, 1.0], atol=1e-12)

    def test_indefinite_detected(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalues 3, -1
        sys_ = AssembledSystem(A, np.array([1.0, -1.0]), np.arange(2),
                               np.array([], dtype=int), np.array([]), 2)
        with pytest.raises(SolverError, match="not SPD"):
            solve_spd(sys_)

    def test_indefinite_with_positive_energy_detected(self):
        """x.Ax = 6 > 0 at the solution x = (1, 1), so no curvature test on
        the solve would notice; the pivot signs do."""
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        sys_ = AssembledSystem(A, np.array([3.0, 3.0]), np.arange(2),
                               np.array([], dtype=int), np.array([]), 2)
        with pytest.raises(SolverError, match="not SPD"):
            solve_spd(sys_)

    def test_rtol_validation(self):
        A = sp.identity(2, format="csr")
        sys_ = AssembledSystem(A, np.ones(2), np.arange(2),
                               np.array([], dtype=int), np.array([]), 2)
        with pytest.raises(ValueError):
            solve_spd(sys_, rtol=0.0)

    def test_nonconvergence_reports_achieved_residual(self):
        """A singular matrix with a positive diagonal raises SolverError
        carrying a residual, not the factorization's bare RuntimeError."""
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        sys_ = AssembledSystem(A, np.array([1.0, 2.0]), np.arange(2),
                               np.array([], dtype=int), np.array([]), 2)
        with pytest.raises(SolverError) as exc:
            solve_spd(sys_)
        assert exc.value.residual is not None and exc.value.residual > 0

    @pytest.mark.parametrize("raised, memory", [
        (RuntimeError("Factor is exactly singular"), False),
        (RuntimeError("SUPERLU_MALLOC fails for buf in intMalloc()"), True),
        (RuntimeError("Not enough memory to perform factorization."), True),
        (MemoryError(), True),
    ], ids=["singular", "superlu-malloc", "not-enough-memory", "memory-error"])
    def test_factorization_failures_are_typed(self, monkeypatch, raised, memory):
        """An allocation failure in the factorization raises SolverMemoryError;
        a singular factor stays a plain SolverError saying so."""
        import scipy.sparse.linalg

        def failing_splu(*args, **kwargs):
            raise raised

        monkeypatch.setattr(scipy.sparse.linalg, "splu", failing_splu)
        # a ring of 8, every DOF of the same degree: one round eliminates
        # DOF 0 alone (12.5%, under a quarter), so a 7 x 7 Schur complement
        # reaches splu
        i = np.arange(8)
        A = sp.csr_matrix((np.full(8, -1.0), (i, (i + 1) % 8)), shape=(8, 8))
        A = (A + A.T + 4.0 * sp.identity(8)).tocsr()
        sys_ = AssembledSystem(A, np.ones(8), i, np.array([], dtype=int), np.array([]), 8)
        with pytest.raises(SolverError) as exc:
            solve_spd(sys_)
        assert isinstance(exc.value, SolverMemoryError) == memory
        assert ("out of memory" if memory else "matrix singular") in str(exc.value)
        assert exc.value.residual == 1.0

    def test_example1_n64_residual_recheck(self):
        prob = example1(10.0, 1000.0)
        ctx = build_context(prob, build_uniform_tri(64), "cr")
        sys_ = assemble(ctx, "new")
        x, it = solve_spd(sys_, rtol=1e-12)
        res = np.linalg.norm(sys_.rhs - sys_.matrix @ x) / np.linalg.norm(sys_.rhs)
        assert res <= 1e-11
        assert it == 0

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 40), structure=st.sampled_from(["random", "diagonal", "ring"]),
           density=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
    def test_condensed_solve_equals_dense_solve(self, n, structure, density, seed):
        """On random sparse matrices made SPD by diagonal dominance, the
        eliminated DOFs are pairwise non-adjacent and the condensed solve
        equals the dense one. A diagonal matrix puts every DOF in the set. On
        a ring, where every DOF has the same degree, the set is only DOF 0:
        the least key is always chosen, so it is never empty."""
        rng = np.random.default_rng(seed)
        i = np.arange(n)
        mask = np.zeros((n, n), dtype=bool)
        if structure == "random":
            mask = np.triu(rng.random((n, n)) < density, 1)
        elif structure == "ring":
            mask[i, (i + 1) % n] = True
            mask[i, i] = False
        off = np.where(mask | mask.T, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
        off = np.triu(off, 1) + np.triu(off, 1).T
        dense = off + np.diag(np.abs(off).sum(axis=1) + rng.uniform(0.1, 1.0, n))
        A = sp.csr_matrix(dense)
        b = rng.standard_normal(n)
        ind = _independent_set(A)
        assert np.count_nonzero(dense[np.ix_(ind, ind)]) == ind.sum()
        if structure == "diagonal":
            assert ind.all()
        if structure == "ring":
            assert np.flatnonzero(ind).tolist() == [0]
        x, _ = solve_spd(AssembledSystem(A, b, i, np.array([], dtype=int),
                                         np.array([]), n))
        ref = np.linalg.solve(dense, b)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_indefinite_schur_complement_detected(self):
        """A has a unit diagonal, so diag(A) and the eliminated block A_II = 1
        are positive, but S = [[0.5, 0.8], [0.8, 0.5]] is indefinite; the
        pivots of S find A's one negative eigenvalue."""
        A = np.array([[1.0, 0.0, 0.5, 0.5],
                      [0.0, 1.0, 0.5, -0.5],
                      [0.5, 0.5, 1.0, 0.8],
                      [0.5, -0.5, 0.8, 1.0]])
        assert np.linalg.eigvalsh(A)[0] < 0 < np.linalg.eigvalsh(A)[1]
        assert _independent_set(sp.csr_matrix(A)).tolist() == [True, True, False, False]
        sys_ = AssembledSystem(sp.csr_matrix(A), np.ones(4), np.arange(4),
                               np.array([], dtype=int), np.array([]), 4)
        with pytest.raises(SolverError, match="not SPD"):
            solve_spd(sys_)

    def test_eliminated_cr_dofs_are_pairwise_non_adjacent(self):
        """On the right-triangle mesh the eliminated set is the legs away
        from the interface: about two thirds of the free DOFs, no two of
        them coupled."""
        ctx = build_context(example1(10.0, 1000.0), build_uniform_tri(16), "cr")
        A = assemble(ctx, "new").matrix
        ind = _independent_set(A)
        block = A[ind][:, ind]
        assert block.nnz == ind.sum() and np.all(block.diagonal() > 0)
        assert 0.5 < ind.mean() < 2.0 / 3.0

    def test_rounds_eliminate_diagonal_blocks(self):
        """On ex1 new cr each round's set is pairwise non-adjacent in that
        round's own Schur complement, recomputed here, so its block is the
        diagonal d. Two rounds are taken: the legs, then, keyed by the
        checkerboard colour, at least 40% of the diagonals left; a third
        would take under a quarter."""
        ctx = build_context(example1(10.0, 1000.0), build_uniform_tri(32), "cr")
        system = assemble(ctx, "new")
        rounds, S = _eliminate(system.matrix, system.colour)
        M = system.matrix
        removed = []
        for I, R, d, _ in rounds:
            scale = abs(M).max()
            assert np.all(d > 0)
            assert abs(M[I][:, I] - sp.diags(d)).max() <= 1e-12 * scale
            removed.append(len(I) / M.shape[0])
            B = M[R][:, I]
            M = M[R][:, R] - B @ sp.diags(1.0 / d) @ B.T
        assert len(rounds) == 2 and removed[0] > 0.6 and removed[1] >= 0.4
        assert M.shape == S.shape and abs(M - S).max() <= 1e-12 * abs(S).max()

    def test_rq1_runs_one_round(self):
        """On rq1 almost every DOF has the same degree and every edge
        midpoint lies on a grid line (colour 0), so the first round takes
        under a quarter of the DOFs and no second round runs."""
        prob = example4()
        ctx = build_context(prob, build_uniform_rect(32, prob.domain), "rq1")
        system = assemble(ctx, "new")
        assert not system.colour.any()
        rounds, S = _eliminate(system.matrix, system.colour)
        assert len(rounds) == 1
        assert 0 < len(rounds[0][0]) < 0.25 * system.matrix.shape[0]
        assert S.shape[0] == len(rounds[0][1])

    def test_cancelled_schur_row_is_not_spd(self, monkeypatch):
        """The Schur complement of [[1, 1], [1, 1]] on DOF 1 cancels to an
        empty row. Its zero diagonal raises before the next round's key and
        before SuperLU, with the residual of x = 0."""
        import scipy.sparse.linalg

        def no_splu(*args, **kwargs):
            raise AssertionError("splu called on a cancelled Schur complement")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", no_splu)
        A = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]]))
        sys_ = AssembledSystem(A, np.array([1.0, 2.0]), np.arange(2),
                               np.array([], dtype=int), np.array([]), 2)
        with pytest.raises(SolverError, match="not SPD") as exc:
            solve_spd(sys_)
        assert exc.value.residual == 1.0

    @pytest.mark.parametrize("failing, step", [
        ("elimination", "the elimination"), ("solve", "the solve"),
        ("U", "the pivot check")])
    def test_allocation_failures_are_typed(self, monkeypatch, failing, step):
        """An allocation failure anywhere in solve_spd raises
        SolverMemoryError with the achieved residual: 1.0 before a solution
        is formed, the true residual once it is, as when reading lu.U for
        the pivot check (it copies the factors) runs out of memory."""
        import scipy.sparse.linalg

        from ifelab import assembly

        real_splu = scipy.sparse.linalg.splu

        class Factors:
            def __init__(self, lu):
                self.lu = lu

            def __getattr__(self, name):
                if name == failing:
                    raise MemoryError()
                return getattr(self.lu, name)

        def no_memory(*args, **kwargs):
            raise MemoryError()

        monkeypatch.setattr(scipy.sparse.linalg, "splu",
                            lambda *a, **k: Factors(real_splu(*a, **k)))
        if failing == "elimination":
            monkeypatch.setattr(assembly, "_independent_set", no_memory)
        prob = example4()
        ctx = build_context(prob, build_uniform_rect(8, prob.domain), "rq1")
        system = assemble(ctx, "new", correction=build_jump_correction(ctx))
        with pytest.raises(SolverMemoryError, match=f"out of memory in {step}") as exc:
            solve_spd(system)
        if failing == "U":
            assert 0.0 <= exc.value.residual <= 1e-12
        else:
            assert exc.value.residual == 1.0
        # the load vector is computed at the factorization, after the elimination
        assert system.pending == (failing == "elimination")


class TestRotatedBilinearSolve:
    def test_new_method_converges_on_rectangles(self):
        from ifelab.mesh import build_uniform_rect
        prob = example1(10.0, 1000.0)
        errs = []
        for N in (8, 16, 32):
            ctx = build_context(prob, build_uniform_rect(N), "rq1")
            dofs, corr = solve(ctx, "new")
            from ifelab.experiments import error_norms
            errs.append(error_norms(ctx, dofs, corr))
        l2s = [e[0] for e in errs]
        h1s = [e[1] for e in errs]
        assert l2s[2] < l2s[1] < l2s[0]
        assert h1s[2] < h1s[1] < h1s[0]
        # asymptotic second/first order; coarse levels only need the trend
        assert np.log2(l2s[1] / l2s[2]) > 1.2
        assert np.log2(h1s[1] / h1s[2]) > 0.6


def boundary_cut_problem():
    """Circle centred on the domain boundary, so that some interface edges
    lie on the boundary itself."""
    ls = LevelSet(
        phi=lambda x: (x[..., 0] - 1.0) ** 2 + (x[..., 1] - 0.03) ** 2 - 0.16,
        grad=lambda x: 2.0 * (np.asarray(x, float) - np.array([1.0, 0.03])))
    zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
    one = lambda x: np.ones(np.asarray(x, float).shape[:-1])
    gzero = lambda x: np.zeros(np.asarray(x, float).shape)
    return ProblemSpec(name="boundary-cut", levelset=ls, domain=(-1, 1, -1, 1),
                       beta_plus=one, beta_minus=lambda x: 7.0 * one(x),
                       f_plus=one, f_minus=one, u_plus=zero, u_minus=zero,
                       grad_u_plus=gzero, grad_u_minus=gzero,
                       g_D=zero, g_N=zero, g_boundary=zero)


class TestBoundaryInterfaceEdges:
    def test_interface_through_domain_boundary(self):
        """A circle centered on the boundary produces interface edges on the
        boundary itself; single-trace convention keeps the system SPD."""
        prob = boundary_cut_problem()
        mesh = build_uniform_tri(8)
        ctx = build_context(prob, mesh, "cr")
        boundary_iface = [int(e) for e in ctx.layout.interface_edges
                          if mesh.boundary_edges[e]]
        assert boundary_iface, "expected interface edges on the domain boundary"
        sys_ = assemble(ctx, "new")
        x, it = solve_spd(sys_)
        assert it == 0
        res = np.linalg.norm(sys_.rhs - sys_.matrix @ x)
        assert res <= 1e-11 * np.linalg.norm(sys_.rhs)


class TestNonhomogeneousJumps:
    def test_full_system_residual_example4(self):
        prob = example4()
        ctx = build_context(prob, build_uniform_tri(8), "cr")
        correction = build_jump_correction(ctx)
        sys_ = assemble(ctx, "new", correction=correction)
        x, _ = solve_spd(sys_, rtol=1e-13)
        res = np.linalg.norm(sys_.rhs - sys_.matrix @ x)
        assert res <= 1e-10 * max(1.0, np.linalg.norm(sys_.rhs))

    def test_solve_bundles_correction(self):
        prob = example4()
        ctx = build_context(prob, build_uniform_tri(8), "cr")
        dofs, correction = solve(ctx, "new")
        assert correction is not None and len(correction) == len(ctx.layout.cuts)

    def test_homogeneous_problem_has_no_correction(self):
        prob = example3()
        ctx = build_context(prob, build_uniform_tri(8), "cr")
        dofs, correction = solve(ctx, "new")
        assert correction is None


def reference_edge_correction(ctx, method, field):
    """Interface-edge terms of the bilinear form with the piecewise field of
    coefficients field (n_cut, 2, 4), rows as in ctx.cut_table, as trial
    function, against every test function. Walked edge by edge, sub-segment
    by sub-segment and basis function by basis function, re-deciding sides
    and re-evaluating beta at every step; the edge's DOFs are the union of
    its elements' edges, each listed once, and the walk builds its own
    gradient-space map D and moment matrix T, so it shares no layout with
    EdgeTable. For the jump correction this vector is subtracted from the
    load."""
    mesh = ctx.mesh
    tab = ctx.cut_table
    rule = segment_rule(EDGE_NPTS)
    out = np.zeros(mesh.n_edges)
    m = tab.coef.shape[1]
    nb = m - 1

    def piece_at(coef, t, pts):
        """Value and gradient at pts of one piece's coefficients on element t."""
        return evaluate(coef, pts, tab.centers[tab.row[t]], mesh.kappa)

    splits = edge_splits(ctx.layout)
    for eid in ctx.layout.interface_edges:
        eid = int(eid)
        elements = [int(t) for t in mesh.edge_elems[eid] if t >= 0]
        union = list(dict.fromkeys(int(d) for t in elements for d in mesh.elem_edges[t]))
        dim = nb * len(elements)
        # D[k, a]: coefficient of w_k = grad(phi_k) in grad(phi_a) on the
        # element of w_k; an element's last basis gradient is minus the sum
        # of the others. M: the elements' weighted Gram matrices.
        D = np.zeros((dim, len(union)))
        M = np.zeros((dim, dim))
        for i, t in enumerate(elements):
            blk = slice(i * nb, (i + 1) * nb)
            M[blk, blk] = tab.M[tab.row[t]]
            for j, d in enumerate(mesh.elem_edges[t]):
                D[blk, union.index(int(d))] = np.eye(nb)[j] if j < nb else -1.0
        n_e = mesh.edge_normals[eid]
        a, b = mesh.nodes[mesh.edges[eid]]
        split = splits[eid]
        avg = 1.0 if len(elements) == 1 else 0.5
        T = np.zeros((dim, len(union)))      # int {beta w_k . n} [phi_a]
        tJ = np.zeros(dim)                   # moments of [u]
        bJ = np.zeros(len(union))            # int {beta grad(u) . n} [phi_a]
        jJ = np.zeros(len(union))            # int [u][phi_a]
        for p, q in [(a, split), (split, b)]:
            seg_len = float(np.linalg.norm(q - p))
            if seg_len == 0.0:
                continue
            pts = p + rule.points * (q - p)
            wts = rule.weights * seg_len
            juJ = np.zeros(len(wts))
            avgJ = np.zeros(len(wts))
            psi = np.zeros((dim, len(wts)))
            jump = np.zeros((len(union), len(wts)))
            for i, (sgn, t) in enumerate(zip((1.0, -1.0), elements)):
                row = tab.row[t]
                side = int(as_element(ctx.layout.cuts, row).side_of(pts.mean(axis=0)))
                s = 0 if side > 0 else 1
                beta = ctx.prob.beta_plus(pts) if side > 0 else ctx.prob.beta_minus(pts)
                vJ, gJ = piece_at(field[row, s], t, pts)
                juJ += sgn * vJ
                avgJ += avg * beta * (gJ @ n_e)
                for j, d in enumerate(mesh.elem_edges[t]):
                    pv, w = piece_at(tab.coef[row, j, s], t, pts)
                    jump[union.index(int(d))] += sgn * pv
                    if j < nb:
                        psi[i * nb + j] = avg * beta * (w @ n_e)
            tJ += psi @ (wts * juJ)
            bJ += jump @ (wts * avgJ)
            jJ += jump @ (wts * juJ)
            T += (psi * wts) @ jump.T
        contrib = -(bJ + D.T @ tJ)
        if method == "new":
            contrib += 4.0 * T.T @ np.linalg.solve(M, tJ)
        else:
            eta = 10.0 * max(float(ctx.prob.beta_plus(split)), float(ctx.prob.beta_minus(split)))
            contrib += (eta / mesh.edge_lengths[eid]) * jJ
        out[union] += contrib
    return out


class TestCorrectionAction:
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @pytest.mark.parametrize("N", [8, 16])
    @pytest.mark.parametrize("method", ["new", "ppifem"])
    def test_matches_reference_walk(self, kind, N, method):
        """The edge terms of the jump correction, formed against the stored
        trace table, match the per-point reference walk."""
        prob = example4()
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(prob, build(N, prob.domain), kind)
        correction = build_jump_correction(ctx)
        b = assemble_rhs(ctx, method, correction=correction)
        # "plain" subtracts only the volume part of the correction action
        ref = (assemble_rhs(ctx, "plain", correction=correction)
               - reference_edge_correction(ctx, method, correction))
        assert np.abs(b - ref).max() <= 1e-12 * np.abs(ref).max()


class TestEdgeMatrices:
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @pytest.mark.parametrize("example", ["ex1", "ex4", "boundary"])
    @pytest.mark.parametrize("method", ["new", "ppifem"])
    def test_match_reference_walk(self, example, kind, method):
        """The edge terms of the assembled matrix, applied to a random DOF
        vector that is zero on the boundary, equal the per-point reference
        walk with the field of that vector as trial function."""
        ctx = TestEdgeTable.context(example, kind, N=8)
        plain = assemble(ctx, "plain")
        x = np.zeros(plain.n_dofs)
        x[plain.free] = np.random.default_rng(3).standard_normal(len(plain.free))
        tab = ctx.cut_table
        field = np.einsum("cjpk,cj->cpk", tab.coef, x[ctx.mesh.elem_edges[tab.ids]])
        got = (assemble(ctx, method).matrix - plain.matrix) @ x[plain.free]
        ref = reference_edge_correction(ctx, method, field)[plain.free]
        if example == "boundary":
            assert ctx.mesh.boundary_edges[ctx.layout.interface_edges].any()
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


def counting(prob, calls: Counter):
    """Copy of prob whose callable fields count their calls in calls[name]."""
    def wrap(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    return replace(prob, **{f.name: wrap(f.name, getattr(prob, f.name))
                            for f in fields(prob) if callable(getattr(prob, f.name))})


class TestProblemCalls:
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    def test_call_counts_independent_of_mesh(self, kind):
        """The context, the jump correction and the assembly call each
        problem callable once per table, not once or twice per cut element,
        so the counts at N=8 and N=16 agree."""
        counts = []
        for N in (8, 16):
            calls = Counter()
            prob = counting(example4(), calls)
            build = build_uniform_tri if kind == "cr" else build_uniform_rect
            ctx = build_context(prob, build(N, prob.domain), kind)
            # the load vector is pending until its first read
            assemble(ctx, "plain", correction=build_jump_correction(ctx)).rhs
            counts.append(calls)
        assert counts[0]["f_plus"] > 0 and counts[0]["g_N"] > 0
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @pytest.mark.parametrize("method", ["new", "ppifem"])
    @pytest.mark.parametrize("corrected", [False, True], ids=["plain-load", "corrected"])
    def test_edge_form_call_counts_independent_of_mesh(self, kind, method, corrected):
        """The edge terms, and the edge half of the jump-correction action,
        evaluate beta once for all interface edges, so the counts at N=8 and
        N=16 agree."""
        counts = []
        for N in (8, 16):
            calls = Counter()
            prob = counting(example4(), calls)
            build = build_uniform_tri if kind == "cr" else build_uniform_rect
            ctx = build_context(prob, build(N, prob.domain), kind)
            correction = build_jump_correction(ctx) if corrected else None
            assemble(ctx, method, correction=correction).rhs
            counts.append(calls)
        assert counts[0]["beta_plus"] > 0
        assert counts[0] == counts[1]


class TestClassBlocks:
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    def test_blocks_do_not_change_results(self, kind, monkeypatch):
        """Uncut elements evaluated in blocks of a few elements, the last one
        partial and most on one side of the interface, give the matrix, load
        and error norms of one block per class."""
        from ifelab import assembly
        from ifelab.experiments import error_norms

        prob = example1(10.0, 1000.0)
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(prob, build(16, prob.domain), kind)
        out = []
        for block_points in (10 ** 9, 7 * len(ctx.classes[0].wts) + 1):
            monkeypatch.setattr(assembly, "BLOCK_POINTS", block_points)
            system = assemble(ctx, "new")
            x, _ = solve_spd(system)
            out.append((system.matrix, system.rhs, error_norms(ctx, system.expand(x))))
        (A0, b0, e0), (A1, b1, e1) = out
        assert len(list(ctx.classes[0].blocks())) > 1
        assert abs(A0 - A1).max() == 0.0
        np.testing.assert_array_equal(b0, b1)
        np.testing.assert_allclose(e1, e0, rtol=1e-13)

    @pytest.mark.parametrize("N", [2, 64])
    @pytest.mark.parametrize("kind, nq", [("cr", 16), ("rq1", 64)])
    def test_blocks_are_the_broadcast_points_over_ids_in_order(self, kind, nq, N):
        """Each block's points are shifts[s, None, :] + pts[None] bit for bit,
        and the slices cover ids exactly once, in order. At N=2 every class
        is shorter than one block; at N=64 some class spans several blocks
        and ends on a partial one."""
        prob = example1(10.0, 1000.0)
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(prob, build(N, prob.domain), kind)
        counts = []
        for cl in ctx.classes:
            assert len(cl.wts) == nq
            blocks = list(cl.blocks())
            counts.append((len(blocks), len(cl.ids[blocks[-1][0]])))
            stop = 0
            for s, pts in blocks:
                assert s.start == stop
                stop = min(s.stop, len(cl.ids))
                want = cl.shifts[s, None, :] + cl.pts[None]
                assert pts.shape == want.shape == (stop - s.start, nq, 2)
                assert np.array_equal(pts.view(np.int64), want.view(np.int64))
            assert stop == len(cl.ids)
        step = BLOCK_POINTS // nq
        if N == 2:
            assert all(n == 1 and last < step for n, last in counts)
        else:
            assert any(n > 1 and 0 < last < step for n, last in counts)


class TestClassSides:
    @pytest.mark.parametrize("N", [16, 64])
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @pytest.mark.parametrize("example", [example1, example2, example4],
                             ids=["ex1", "ex2", "ex4"])
    def test_class_side_is_the_sign_of_phi_at_every_point(self, example, kind, N):
        """Each ClassCtx holds uncut elements of one layout side, and phi >= 0
        at every one of their quadrature points exactly on the plus side. So
        the side's f, beta and u branches are the ones that the sign of phi
        at each point would pick. ex3 is left out: on rectangles the squares
        whose diagonal is the interface touch it only at two vertices, stay
        uncut and take the plus side whole (f+- = 0 there, so its loads do not
        change)."""
        prob = example()
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(prob, build(N, prob.domain), kind)
        assert {cl.side for cl in ctx.classes} == {INTERIOR_PLUS, INTERIOR_MINUS}
        for cl in ctx.classes:
            assert np.all(ctx.layout.classes[cl.ids] == cl.side)
            for _, pts in cl.blocks():
                assert np.all((prob.levelset.phi(pts) >= 0) == (cl.side == INTERIOR_PLUS))


def interface_problem(ls, beta_minus):
    """Unit source, zero data, beta+ = 1 where ls is positive and beta_minus
    where it is negative."""
    zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
    one = lambda x: np.ones(np.asarray(x, float).shape[:-1])
    gzero = lambda x: np.zeros(np.asarray(x, float).shape)
    return ProblemSpec(name="placement", levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
                       beta_plus=one, beta_minus=lambda x: beta_minus * one(x),
                       f_plus=one, f_minus=one, u_plus=zero, u_minus=zero,
                       grad_u_plus=gzero, grad_u_minus=gzero,
                       g_D=zero, g_N=zero, g_boundary=zero)


class TestSolveProperty:
    """Every circle or ellipse placement at N=8 either raises a typed
    GeometryError (MeshResolutionError among them) or assembles a symmetric
    'new' matrix that solves and is coercive with factor 1/2 against
    'plain'."""

    @staticmethod
    def check(kind, ls, log_ratio):
        prob = interface_problem(ls, 10.0 ** log_ratio)
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        try:
            ctx = build_context(prob, build(8, prob.domain), kind)
        except GeometryError:
            return
        new = assemble(ctx, "new")
        A, V = new.matrix, assemble(ctx, "plain").matrix
        assert abs(A - A.T).max() <= 1e-12 * abs(A).max()
        solve_spd(new)
        x = np.random.default_rng(0).standard_normal((A.shape[0], 8))
        scale = abs(A).max() * (x * x).sum(axis=0)
        energy_new = (x * (A @ x)).sum(axis=0)
        energy_plain = (x * (V @ x)).sum(axis=0)
        assert np.all(energy_new >= 0.5 * energy_plain - 1e-12 * scale)

    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @settings(max_examples=25, deadline=None)
    @given(cx=st.floats(-0.4, 0.4), cy=st.floats(-0.4, 0.4), r=st.floats(0.1, 0.8),
           log_ratio=st.floats(-3.0, 3.0))
    def test_circle_placements(self, kind, cx, cy, r, log_ratio):
        self.check(kind, circle_levelset(cx, cy, r), log_ratio)

    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @settings(max_examples=25, deadline=None)
    @given(cx=st.floats(-0.4, 0.4), cy=st.floats(-0.4, 0.4), a=st.floats(0.1, 0.8),
           b=st.floats(0.1, 0.8), angle=st.floats(0.0, np.pi), log_ratio=st.floats(-3.0, 3.0))
    def test_ellipse_placements(self, kind, cx, cy, a, b, angle, log_ratio):
        self.check(kind, ellipse_levelset(cx, cy, a, b, angle), log_ratio)


class TestEdgeTable:
    CASES = [("ex1", "cr"), ("ex1", "rq1"), ("ex4", "cr"), ("ex4", "rq1"),
             ("boundary", "cr"), ("boundary", "rq1")]

    @staticmethod
    def context(example, kind, N=16):
        prob = {"ex1": lambda: example1(10.0, 1000.0), "ex3": example3, "ex4": example4,
                "boundary": boundary_cut_problem}[example]()
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        return build_context(prob, build(N, prob.domain), kind)

    @pytest.mark.parametrize("example, kind", CASES)
    def test_rows_match_single_edge_blocks(self, example, kind):
        """Every row of the stacked table, its stacked lifting solve and its
        stability ratio equal those of its edge's table built alone, on
        interior edges and on edges with one adjacent element; the empty
        element slot of the latter holds no DOF, zero traces and an identity
        Gram block, and lifts to exactly zero."""
        ctx = self.context(example, kind)
        eids = ctx.layout.interface_edges
        edges = build_edge_table(ctx, eids)
        two = edges.elems[:, 1] >= 0
        assert two.any()
        if example == "boundary":
            assert not two.all()
        arrays = ("elems", "rows", "sign", "dofs", "pts", "wq", "piece", "beta", "psi",
                  "jump", "T_mat", "M", "J", "length", "beta_gamma")
        lifted = edges.lift(edges.T_mat)
        ratios = lifting_stability_ratio(ctx, edges)
        for i, eid in enumerate(eids):
            alone = build_lifting_block(ctx, int(eid))
            assert alone.edge_ids.tolist() == [eid]
            ref = alone.lift(alone.T_mat)[0]
            assert np.abs(lifted[i] - ref).max() <= 1e-13 * np.abs(ref).max()
            assert abs(ratios[i] - lifting_stability_ratio(ctx, alone)[0]) <= 1e-13 * ratios[i]
            for name in arrays:
                a, b = getattr(edges, name)[i], getattr(alone, name)[0]
                assert a.shape == b.shape, name
                assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max()), name
        # the edge's own DOF fills one slot of each element
        m = ctx.cut_table.coef.shape[1]
        assert np.all((edges.dofs == eids[:, None]).sum(axis=1) == np.where(two, 2, 1))
        one = ~two
        assert np.all(edges.dofs[one, m:] == -1)
        assert np.all(edges.jump[one, m:] == 0.0)
        assert np.all(edges.psi[one, m - 1:] == 0.0)
        assert np.all(edges.M[one, 1] == np.eye(m - 1))
        assert np.all(lifted[one, m - 1:] == 0.0)

    def test_ill_conditioned_gram_names_the_edge(self):
        """A singular lifting Gram matrix on one element, or one scaled by
        1e-13, stops the build with an AssemblyError that names an edge of
        that element. The scaled block alone stays well conditioned, but the
        block-diagonal Gram over both elements of an edge does not, and that
        is the matrix the guard judges."""
        for scale in (0.0, 1e-13):
            ctx = self.context("ex1", "cr", N=8)
            eid = int(ctx.layout.interface_edges[3])
            t = int(ctx.mesh.edge_elems[eid, 0])
            assert ctx.mesh.edge_elems[eid, 1] >= 0
            ctx.cut_table.M[ctx.cut_table.row[t]] *= scale
            if scale:
                assert np.linalg.cond(ctx.cut_table.M[ctx.cut_table.row[t]]) <= 1e12
            with pytest.raises(AssemblyError, match=r"ill-conditioned on edge \d+") as exc:
                build_edge_table(ctx, ctx.layout.interface_edges)
            named = int(str(exc.value).split("edge ")[1].split()[0])
            assert t in ctx.mesh.edge_elems[named]
            with pytest.raises(AssemblyError, match=f"edge {eid}"):
                build_lifting_block(ctx, eid)

    def test_no_interface_edges(self):
        """ex3 on rectangles is cut only along element diagonals, so it has
        no interface edges; its edge table is empty and lifts to an empty
        array."""
        ctx = self.context("ex3", "rq1")
        assert len(ctx.cut_table.ids) and not len(ctx.layout.interface_edges)
        edges = build_edge_table(ctx, ctx.layout.interface_edges)
        lifted = edges.lift(edges.T_mat)
        assert lifted.shape == (0, 6, 8) and edges.M.shape == (0, 2, 3, 3)
        assert lifting_stability_ratio(ctx, edges).shape == (0,)

    def test_rejects_edges_without_a_crossing(self):
        ctx = self.context("ex1", "cr", N=8)
        eid = int(np.setdiff1d(np.arange(ctx.mesh.n_edges), ctx.layout.interface_edges)[0])
        with pytest.raises(AssemblyError, match=f"edge {eid} is not an interface edge"):
            build_lifting_block(ctx, eid)


class TestCutQuadrature:
    @pytest.mark.parametrize("example", ["ex1", "ex2", "ex3", "ex4"])
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    def test_batched_rule_equals_per_polygon_rule(self, example, kind):
        """The cut table's batched sub-polygon quadrature is, point for point,
        the one-polygon rule of every sub-polygon in turn; at N=16 the cuts
        include triangles, quadrilaterals, 5-gons and vertex chords."""
        prob = example1(10.0, 1000.0) if example == "ex1" else \
            {"ex2": example2, "ex3": example3, "ex4": example4}[example]()
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(prob, build(16, prob.domain), kind)
        tab = ctx.cut_table
        rules = [polygon_points_weights(poly, VOLUME_DEGREE)
                 for c in as_elements(ctx.layout.cuts).values()
                 for poly in (c.poly_plus, c.poly_minus)]
        pts = np.concatenate([np.zeros((0, 2))] + [p for p, _ in rules])
        wts = np.concatenate([np.zeros(0)] + [w for _, w in rules])
        np.testing.assert_array_equal(tab.pts, pts)
        np.testing.assert_array_equal(tab.wts, wts)


def full_lu_solve(system: AssembledSystem) -> np.ndarray:
    """Reference solve: SuperLU on the whole free matrix, with solve_spd's
    ordering and pivot options but no elimination."""
    from scipy.sparse.linalg import splu

    lu = splu(system.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
              options={"SymmetricMode": True})
    return lu.solve(system.rhs)


class TestSolverAgreement:
    """The gate for any change to solve_spd: on every example, element and
    method, its solution equals the full factorization's and its true
    residual meets solve_spd's own bound."""
    PROBLEMS = {"ex1": lambda: example1(10.0, 1000.0), "ex2": example2, "ex3": example3,
                "ex4": example4, "boundary": boundary_cut_problem}

    @pytest.mark.parametrize("method", ["plain", "new", "ppifem"])
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @pytest.mark.parametrize("example", list(PROBLEMS))
    def test_solve_equals_full_factorization(self, example, kind, method):
        prob = self.PROBLEMS[example]()
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(prob, build(16, prob.domain), kind)
        correction = None if prob.homogeneous_jumps else build_jump_correction(ctx)
        system = assemble(ctx, method, correction=correction)
        x, _ = solve_spd(system)
        ref = full_lu_solve(system)
        assert np.linalg.norm(x - ref) <= 1e-9 * np.linalg.norm(ref)
        A, b = system.matrix, system.rhs
        bnorm = np.linalg.norm(b)
        residual = np.linalg.norm(b - A @ x) / bnorm
        floor = np.finfo(float).eps * np.linalg.norm(abs(A) @ np.abs(x)) / bnorm
        assert residual <= 10.0 * (1e-12 + floor)


@pytest.fixture
def load_worker(monkeypatch):
    """solve_spd computes the load vector on its worker at every size, not
    only alongside factorizations of LOAD_WORKER_DOFS DOFs or more."""
    from ifelab import assembly

    monkeypatch.setattr(assembly, "LOAD_WORKER_DOFS", 0)


class TestPendingLoad:
    """assemble leaves the load vector pending; its first reader, or
    solve_spd's worker thread while SuperLU factors, computes it."""

    @pytest.mark.parametrize("method", ["plain", "new", "ppifem"])
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @pytest.mark.parametrize("example", ["ex1", "ex2", "ex3", "ex4"])
    def test_rhs_is_the_load_vector_with_the_boundary_lift(self, load_worker, example, kind,
                                                           method):
        """Read directly or computed by solve_spd's worker, rhs is bit for
        bit assemble_rhs on the free DOFs minus the lift of the boundary
        values, A_fc g_c. A_fc comes from the same assembly on the mesh with
        no boundary edges, where every DOF is free."""
        prob = TestSolverAgreement.PROBLEMS[example]()
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        mesh = build(16, prob.domain)
        ctx = build_context(prob, mesh, kind)
        correction = None if prob.homogeneous_jumps else build_jump_correction(ctx)
        open_mesh = replace(mesh, boundary_edges=np.zeros_like(mesh.boundary_edges))
        full = assemble(replace(ctx, mesh=open_mesh), method, correction=correction).matrix
        read, solved = (assemble(ctx, method, correction=correction) for _ in range(2))
        assert read.pending and solved.pending
        solve_spd(solved)
        assert not solved.pending
        b = assemble_rhs(ctx, method, correction=correction)
        free, constrained = read.free, read.constrained
        want = b[free] - full[free][:, constrained] @ read.constrained_values
        assert read.rhs.tobytes() == want.tobytes()
        assert solved.rhs.tobytes() == want.tobytes()

    @staticmethod
    def armed_source(fail):
        """ex1 whose source calls fail(x) once armed, after validation,
        recording whether it ran on the main thread."""
        import threading

        from ifelab import experiments

        prob = example1(10.0, 1000.0)
        armed, threads = [], []

        def source(real):
            def f(x):
                if armed:
                    threads.append(threading.current_thread() is threading.main_thread())
                    return fail(x)
                return real(x)
            return f

        prob = replace(prob, f_plus=source(prob.f_plus), f_minus=source(prob.f_minus))
        experiments._ensure_validated(prob)
        armed.append(True)
        return prob, threads

    @pytest.mark.parametrize("on_worker", [True, False], ids=["worker", "calling-thread"])
    def test_load_error_keeps_its_type_and_names_the_row(self, monkeypatch, on_worker):
        """An error of the load vector surfaces from run_convergence with its
        own type, naming the example and N, whether the worker computed it
        or, for a Schur complement under LOAD_WORKER_DOFS (this one has a
        few hundred DOFs), the calling thread did."""
        from ifelab import assembly
        from ifelab.experiments import run_convergence

        if on_worker:
            monkeypatch.setattr(assembly, "LOAD_WORKER_DOFS", 0)

        class SourceError(Exception):
            pass

        def fail(x):
            raise SourceError("bad source")

        prob, threads = self.armed_source(fail)
        with pytest.raises(SourceError, match=r"^ex1\(beta\+=10,beta-=1000\), N=8: bad source$"):
            run_convergence(prob, "new", "cr", [8])
        assert threads == [not on_worker]

    def test_worker_honours_the_callers_errstate(self, load_worker):
        """numpy's errstate is context-local, so the worker runs in a copy of
        the caller's context: a division by zero in the source raises there
        under divide="raise", as it does when rhs is read serially."""
        from ifelab.experiments import run_convergence

        prob, threads = self.armed_source(lambda x: np.ones(x.shape[:-1]) / np.zeros(x.shape[:-1]))
        with np.errstate(divide="raise"):
            with pytest.raises(FloatingPointError, match=r"N=8: divide by zero"):
                run_convergence(prob, "new", "cr", [8])
            assert threads == [False]
            ctx = build_context(prob, build_uniform_tri(8), "cr")
            with pytest.raises(FloatingPointError, match="divide by zero"):
                assemble(ctx, "new").rhs
        assert threads[1:] == [True]

    def test_load_vector_computed_once_under_frequent_switches(self, load_worker):
        """With a 10 us switch interval the worker and the calling thread
        trade the interpreter lock often. The load vector is still computed
        once per solve, with the callbacks of one serial read, and the
        solution is bit for bit the serial one."""
        import sys

        calls = Counter()
        prob = counting(example4(), calls)
        ctx = build_context(prob, build_uniform_tri(16, prob.domain), "cr")
        correction = build_jump_correction(ctx)
        serial = assemble(ctx, "new", correction=correction)
        before = calls.copy()
        serial.rhs
        per_read = calls - before
        x_serial, _ = solve_spd(serial)
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _ in range(5):
                system = assemble(ctx, "new", correction=correction)
                before = calls.copy()
                x, _ = solve_spd(system)
                assert calls - before == per_read
                assert x.tobytes() == x_serial.tobytes()
        finally:
            sys.setswitchinterval(old)
