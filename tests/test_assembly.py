from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ifelab.assembly import (
    EDGE_NPTS,
    VOLUME_DEGREE,
    AssembledSystem,
    AssemblyError,
    SolverError,
    SolverMemoryError,
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
from ifelab.geometry import GeometryError, LevelSet
from ifelab.ife_space import evaluate, standard_local_basis
from ifelab.mesh import build_uniform_rect, build_uniform_tri
from ifelab.problems import ProblemSpec, example1, example2, example3, example4
from ifelab.quadrature import polygon_area, polygon_points_weights, segment_rule

from conftest import edge_splits, lifted_field, standard_at


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
            lam = standard_local_basis(verts, "cr")
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
            lam = standard_local_basis(verts, "cr")
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
        from ifelab.assembly import _edge_matrices, build_edge_table
        edges = build_edge_table(self.ctx, self.ctx.layout.interface_edges)
        mats = _edge_matrices(edges, "new", None)
        for i, mat in enumerate(mats):
            block = edges.block(i)
            u = len(block.union_dofs)
            S = 4.0 * block.T_mat.T @ np.linalg.solve(block.M, block.T_mat)
            B = mat[:u, :u] - S
            assert np.abs(B - B.T).max() <= 1e-12 * max(1.0, np.abs(B).max())

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
        self.edges = [int(e) for e in self.ctx.layout.interface_edges]

    def test_zero_trace_lifts_to_zero(self):
        block = build_lifting_block(self.ctx, self.edges[0])
        c = lift_trace(block, lambda p: np.zeros(len(p)))
        assert np.abs(c).max() == 0.0

    def test_definition_residual(self):
        """The lifted field satisfies its defining identity against every
        basis field, re-integrated independently over the elements."""
        trace = lambda p: np.sin(3 * p[..., 0]) + p[..., 1] ** 2
        tab = self.ctx.cut_table
        for eid in self.edges:
            block = build_lifting_block(self.ctx, eid)
            c = lift_trace(block, trace)
            lhs = np.zeros(block.M.shape[0])
            off = 0
            for t in block.elements:
                nb = tab.coef.shape[1] - 1
                sel, r = lifted_field(self.ctx, block, c, t)
                for k in range(nb):
                    w = tab.grads[sel, k]
                    lhs[off + k] = tab.wts[sel] @ (tab.beta[sel] * np.einsum("qi,qi->q", r, w))
                off += nb
            rhs = block.M @ c  # the assembled moments
            scale = max(1.0, np.abs(rhs).max())
            assert np.abs(lhs - rhs).max() <= 1e-10 * scale

    def test_orthogonal_basis_cross_check(self):
        """Tangent/weighted-normal fields give a diagonal Gram and the same
        lifted field as the gradient-basis solve."""
        trace = lambda p: p[..., 0] - 0.3 * p[..., 1]
        eid = self.edges[1]
        block = build_lifting_block(self.ctx, eid)
        n_e = self.mesh.edge_normals[eid]
        # per element, the constant fields (plus piece, minus piece): the
        # chord tangent, and the chord normal scaled so beta w . n_h is
        # continuous across the chord
        tab = self.ctx.cut_table
        fields = {}
        for t in block.elements:
            cut = self.ctx.layout.cuts[t]
            bp, bm = tab.beta_c[tab.row[t]]
            fields[t] = [(cut.t_h, cut.t_h), (bm * cut.n_h, bp * cut.n_h)]

        # Gram and edge moments of those fields by direct quadrature
        dim = 2 * len(block.elements)
        M_o = np.zeros((dim, dim))
        b_o = np.zeros(dim)
        for i, t in enumerate(block.elements):
            own = tab.owner == tab.row[t]
            wbeta = [tab.wts[own & (tab.piece == pc)] @ tab.beta[own & (tab.piece == pc)]
                     for pc in (0, 1)]
            side = self.ctx.layout.cuts[t].side_of(block.pts)
            beta = np.where(side > 0, self.prob.beta_plus(block.pts),
                            self.prob.beta_minus(block.pts))
            for k, (wk_p, wk_m) in enumerate(fields[t]):
                for l, (wl_p, wl_m) in enumerate(fields[t]):
                    M_o[2 * i + k, 2 * i + l] = wbeta[0] * (wk_p @ wl_p) \
                        + wbeta[1] * (wk_m @ wl_m)
                w = np.where((side > 0)[:, None], wk_p, wk_m)
                b_o[2 * i + k] = block.wq @ (0.5 * beta * (w @ n_e) * trace(block.pts))
        offdiag = M_o - np.diag(np.diag(M_o))
        assert np.abs(offdiag).max() <= 1e-12 * np.abs(M_o).max()

        c_grad = lift_trace(block, trace)
        c_o = np.linalg.solve(M_o, b_o)
        for i, t in enumerate(block.elements):
            sel, f_grad = lifted_field(self.ctx, block, c_grad, t)
            side = self.ctx.layout.cuts[t].side_of(tab.pts[sel])
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
            maxima[N] = max(lifting_stability_ratio(build_lifting_block(ctx, int(e)))
                            for e in ctx.layout.interface_edges)
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
        sys_ = AssembledSystem(sp.identity(2, format="csr"), np.ones(2), np.arange(2),
                               np.array([], dtype=int), np.array([]), 2)
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


def reference_edge_correction(ctx, method, correction):
    """Edge half of the jump-correction action, walked sub-segment by
    sub-segment and basis function by basis function, re-deciding sides and
    re-evaluating beta at every step; the returned vector is subtracted from
    the load."""
    mesh = ctx.mesh
    tab = ctx.cut_table
    rule = segment_rule(EDGE_NPTS)
    out = np.zeros(mesh.n_edges)

    def piece_at(coef, t, pts):
        """Value and gradient at pts of one piece's coefficients on element t."""
        return evaluate(coef, pts, tab.centers[tab.row[t]], mesh.kappa)

    splits = edge_splits(ctx.layout)
    for eid in ctx.layout.interface_edges:
        eid = int(eid)
        block = build_lifting_block(ctx, eid)
        n_e = mesh.edge_normals[eid]
        a, b = mesh.nodes[mesh.edges[eid]]
        split = splits.get(eid)
        segs = [(a, b)] if split is None else [(a, split), (split, b)]
        avg = 1.0 if len(block.elements) == 1 else 0.5
        tJ = np.zeros(block.M.shape[0])       # moments of [uJ]
        bJ = np.zeros(len(block.union_dofs))  # int {beta grad(uJ) . n} [phi_a]
        jJ = np.zeros(len(block.union_dofs))  # int [uJ][phi_a]
        for p, q in segs:
            seg_len = float(np.linalg.norm(q - p))
            if seg_len == 0.0:
                continue
            pts = p + rule.points * (q - p)
            wts = rule.weights * seg_len
            juJ = np.zeros(len(wts))
            avgJ = np.zeros(len(wts))
            for sgn, t in zip((1.0, -1.0), block.elements):
                side = int(ctx.layout.cuts[t].side_of(pts.mean(axis=0)))
                beta = ctx.prob.beta_plus(pts) if side > 0 else ctx.prob.beta_minus(pts)
                vJ, gJ = piece_at(correction[tab.row[t], 0 if side > 0 else 1], t, pts)
                juJ += sgn * vJ
                avgJ += avg * beta * (gJ @ n_e)
            off = 0
            for t in block.elements:
                coef = tab.coef[tab.row[t]]
                side = int(ctx.layout.cuts[t].side_of(pts.mean(axis=0)))
                beta = ctx.prob.beta_plus(pts) if side > 0 else ctx.prob.beta_minus(pts)
                for k in range(len(coef) - 1):
                    _, w = piece_at(coef[k, 0 if side > 0 else 1], t, pts)
                    tJ[off + k] += wts @ (avg * beta * (w @ n_e) * juJ)
                off += len(coef) - 1
            for sgn, t in zip((1.0, -1.0), block.elements):
                coef = tab.coef[tab.row[t]]
                side = int(ctx.layout.cuts[t].side_of(pts.mean(axis=0)))
                loc = [int(np.nonzero(block.union_dofs == d)[0][0])
                       for d in mesh.elem_edges[t]]
                for i in range(len(coef)):
                    pv, _ = piece_at(coef[i, 0 if side > 0 else 1], t, pts)
                    bJ[loc[i]] += wts @ (avgJ * sgn * pv)
                    jJ[loc[i]] += wts @ (juJ * sgn * pv)
        contrib = -(bJ + block.D_mat.T @ tJ)
        if method == "new":
            contrib += 4.0 * block.T_mat.T @ np.linalg.solve(block.M, tJ)
        else:
            xg = block.x_gamma
            eta = 10.0 * max(float(ctx.prob.beta_plus(xg)), float(ctx.prob.beta_minus(xg)))
            contrib += (eta / block.length) * jJ
        out[block.union_dofs] += contrib
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
            assemble(ctx, "plain", correction=build_jump_correction(ctx))
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
            assemble(ctx, method, correction=correction)
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


def circle_problem(cx, cy, r, beta_minus):
    """Unit source, zero data, beta+ = 1 outside the circle and beta_minus inside."""
    c = np.array([cx, cy])
    ls = LevelSet(phi=lambda x: ((np.asarray(x, float) - c) ** 2).sum(-1) - r * r,
                  grad=lambda x: 2.0 * (np.asarray(x, float) - c))
    zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
    one = lambda x: np.ones(np.asarray(x, float).shape[:-1])
    gzero = lambda x: np.zeros(np.asarray(x, float).shape)
    return ProblemSpec(name="circle", levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
                       beta_plus=one, beta_minus=lambda x: beta_minus * one(x),
                       f_plus=one, f_minus=one, u_plus=zero, u_minus=zero,
                       grad_u_plus=gzero, grad_u_minus=gzero,
                       g_D=zero, g_N=zero, g_boundary=zero)


class TestSolveProperty:
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @settings(max_examples=25, deadline=None)
    @given(cx=st.floats(-0.4, 0.4), cy=st.floats(-0.4, 0.4), r=st.floats(0.1, 0.8),
           log_ratio=st.floats(-3.0, 3.0))
    def test_circle_placements(self, kind, cx, cy, r, log_ratio):
        """Every circle placement at N=8 either raises a typed GeometryError
        (MeshResolutionError among them) or assembles a symmetric 'new'
        matrix that solves and is coercive with factor 1/2 against 'plain'."""
        prob = circle_problem(cx, cy, r, 10.0 ** log_ratio)
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


class TestEdgeTable:
    CASES = [("ex1", "cr"), ("ex1", "rq1"), ("ex4", "cr"), ("ex4", "rq1"),
             ("boundary", "cr"), ("boundary", "rq1")]

    @staticmethod
    def context(example, kind, N=16):
        prob = {"ex1": lambda: example1(10.0, 1000.0), "ex4": example4,
                "boundary": boundary_cut_problem}[example]()
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        return build_context(prob, build(N, prob.domain), kind)

    @pytest.mark.parametrize("example, kind", CASES)
    def test_rows_match_single_edge_blocks(self, example, kind):
        """Every row of the stacked table, and its stacked lifting solve,
        equals the lifting block of its edge built alone, on interior edges
        and on edges with one adjacent element; the padded slots of the
        latter are zero."""
        ctx = self.context(example, kind)
        eids = ctx.layout.interface_edges
        edges = build_edge_table(ctx, eids)
        two = edges.elems[:, 1] >= 0
        assert two.any()
        if example == "boundary":
            assert not two.all()
        arrays = ("rows", "union_dofs", "pts", "wq", "piece", "beta", "psi", "jump",
                  "T_mat", "D_mat", "M", "G", "J", "P", "x_gamma")
        lifted = edges.lift(edges.T_mat)
        for i, eid in enumerate(eids):
            row, alone = edges.block(i), build_lifting_block(ctx, int(eid))
            assert row.edge_id == alone.edge_id == eid
            assert row.elements == alone.elements
            d, u = alone.T_mat.shape
            ref = alone.lift(alone.T_mat)
            assert np.abs(lifted[i, :d, :u] - ref).max() <= 1e-13 * np.abs(ref).max()
            assert np.all(lifted[i, d:] == 0.0)
            for name in arrays:
                a, b = getattr(row, name), getattr(alone, name)
                assert a.shape == b.shape, name
                assert np.abs(a - b).max() <= 1e-13 * max(1.0, np.abs(b).max()), name
            for name in ("length", "beta_gamma"):
                assert abs(getattr(row, name) - getattr(alone, name)) \
                    <= 1e-13 * abs(getattr(alone, name))
        one = ~two
        nb = ctx.cut_table.coef.shape[1] - 1
        assert np.all(edges.union[one, nb + 1:] == -1)
        for name in ("psi", "M"):
            assert np.all(getattr(edges, name)[one, nb:] == 0.0)
        assert np.all(edges.jump[one, nb + 1:] == 0.0)

    def test_ill_conditioned_gram_names_the_edge(self):
        """A singular lifting Gram matrix on one element stops the build with
        an AssemblyError that names an edge of that element."""
        ctx = self.context("ex1", "cr", N=8)
        eid = int(ctx.layout.interface_edges[3])
        t = int(ctx.mesh.edge_elems[eid, 0])
        ctx.cut_table.M[ctx.cut_table.row[t]] = 0.0
        with pytest.raises(AssemblyError, match=r"ill-conditioned on edge \d+") as exc:
            build_edge_table(ctx, ctx.layout.interface_edges)
        named = int(str(exc.value).split("edge ")[1].split()[0])
        assert t in ctx.mesh.edge_elems[named]
        with pytest.raises(AssemblyError, match=f"edge {eid}"):
            build_lifting_block(ctx, eid)

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
                 for c in ctx.layout.cuts.values() for poly in (c.poly_plus, c.poly_minus)]
        pts = np.concatenate([np.zeros((0, 2))] + [p for p, _ in rules])
        wts = np.concatenate([np.zeros(0)] + [w for _, w in rules])
        np.testing.assert_array_equal(tab.pts, pts)
        np.testing.assert_array_equal(tab.wts, wts)
