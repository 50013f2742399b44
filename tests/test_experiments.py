import numpy as np
import pytest

from ifelab import experiments

from ifelab import assembly
from ifelab.assembly import assemble, build_context, build_jump_correction, solve_spd
from ifelab.experiments import (
    ConvergenceTable,
    basis_stress_test,
    emit,
    error_norms,
    interpolation_convergence,
    n_sequence,
    run_convergence,
)
from ifelab.geometry import LevelSet
from ifelab.ife_space import evaluate, interpolate_ife
from ifelab.mesh import build_uniform_rect, build_uniform_tri
from ifelab.problems import (
    ProblemSpec,
    ValidationError,
    example1,
    example2,
    example3,
    example4,
)

from conftest import check_monotone, corrupted_source, side_field


def quadratic_far_problem():
    """u = x*y on [-1,1]^2 with the interface outside; beta = 1."""
    ls = LevelSet(phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 100.0,
                  grad=lambda x: 2.0 * np.asarray(x, float))
    u = lambda x: x[..., 0] * x[..., 1]
    gu = lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1)
    zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
    one = lambda x: np.ones(np.asarray(x, float).shape[:-1])
    fields = lambda x: (zero(x), u(x), gu(x))
    return ProblemSpec(name="quadratic", levelset=ls, domain=(-1, 1, -1, 1),
                       beta_plus=one, beta_minus=one, fields_plus=fields, fields_minus=fields)


class TestErrorNorms:
    def test_exact_interpolant_on_straight_interface(self):
        prob = example3()
        mesh = build_uniform_tri(8)
        ctx = build_context(prob, mesh, "cr")
        dofs = interpolate_ife(prob, mesh, ctx.layout)
        l2, h1 = error_norms(ctx, dofs)
        assert l2 <= 1e-10 and h1 <= 1e-10

    def test_zero_field_gives_analytic_norms(self):
        # ||xy||_L2 = 2/3 and |xy|_H1 = sqrt(8/3) on [-1,1]^2
        prob = quadratic_far_problem()
        ctx = build_context(prob, build_uniform_tri(4), "cr")
        l2, h1 = error_norms(ctx, np.zeros(ctx.mesh.n_edges))
        assert abs(l2 - 2.0 / 3.0) <= 1e-10
        assert abs(h1 - np.sqrt(8.0 / 3.0)) <= 1e-10

    def test_error_homogeneity(self):
        # on the straight-interface problem the interpolant is exact, so a
        # DOF perturbation is the whole error and scales linearly
        prob = example3()
        mesh = build_uniform_tri(4)
        ctx = build_context(prob, mesh, "cr")
        dofs = interpolate_ife(prob, mesh, ctx.layout)
        rng = np.random.default_rng(3)
        delta = rng.standard_normal(mesh.n_edges)
        l2a, h1a = error_norms(ctx, dofs + delta)
        l2b, h1b = error_norms(ctx, dofs + 2.0 * delta)
        assert abs(l2b - 2.0 * l2a) <= 1e-9 * l2a
        assert abs(h1b - 2.0 * h1a) <= 1e-9 * h1a

    @pytest.mark.parametrize("shape", [(37, 16), (1000,)], ids=["block", "cut"])
    def test_squared_errors_equal_reduction_form_bitwise(self, shape):
        """Adding the two gradient components explicitly gives the bits of
        the .sum(-1) reduction, on uncut-block and cut-table shapes."""
        rng = np.random.default_rng(11)
        wts = rng.uniform(0.0, 1e-3, shape[-1:])
        beta, ue, uh = (rng.standard_normal(shape) for _ in range(3))
        due, duh = (rng.standard_normal(shape + (2,)) for _ in range(2))
        want = (float(np.sum(wts * (ue - uh) ** 2)),
                float(np.sum(wts * beta * ((due - duh) ** 2).sum(-1))))
        got = experiments._squared_errors(wts, beta, ue, due, uh, duh)
        assert np.array(got).view(np.int64).tolist() == np.array(want).view(np.int64).tolist()


def pointwise_error_norms(ctx, dofs, correction=None):
    """The error norms summed point by point on every element, uncut ones
    included: error_norms before it split the uncut sums at the projections,
    kept as its oracle."""
    mesh, prob = ctx.mesh, ctx.prob
    l2 = h1 = 0.0
    for cl in ctx.classes:
        fields = cl.branch(prob.fields_plus, prob.fields_minus)
        u, grad = (lambda x: fields(x)[1]), (lambda x: fields(x)[2])
        beta = cl.branch(prob.beta_plus, prob.beta_minus)
        pts = cl.shifts[:, None, :] + cl.pts[None]
        c = dofs[mesh.elem_edges[cl.ids]]
        dd = (grad(pts) - np.einsum("em,qmd->eqd", c, cl.grads)) ** 2
        l2 += float(np.sum(cl.wts * (u(pts) - c @ cl.vals.T) ** 2))
        h1 += float(np.sum(cl.wts * beta(pts) * (dd[..., 0] + dd[..., 1])))
    tab = ctx.cut_table
    c = dofs[mesh.elem_edges[tab.ids]][tab.owner]
    uh = np.einsum("qm,qm->q", c, tab.vals)
    duh = np.einsum("qm,qmd->qd", c, tab.grads)
    if correction is not None:
        vJ, gJ = evaluate(correction[tab.owner, tab.piece], tab.pts,
                          tab.centers[tab.owner], mesh.kappa)
        uh, duh = uh + vJ, duh + gJ
    plus = tab.piece == 0
    dl2, dh1 = experiments._squared_errors(
        tab.wts, tab.beta, side_field(prob, plus, tab.pts, 1),
        side_field(prob, plus, tab.pts, 2), uh, duh)
    return float(np.sqrt(l2 + dl2)), float(np.sqrt(h1 + dh1))


class TestUncutSplit:
    """error_norms takes the uncut elements' sums from the exact solution's
    projections (assembly.uncut_pass) and the DOFs' quadratic forms."""

    PROBLEMS = {"ex1": example1, "ex2": example2, "ex3": example3, "ex4": example4}

    @staticmethod
    def solved(example, kind, N=16, method="new"):
        prob = TestUncutSplit.PROBLEMS[example]()
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(prob, build(N, prob.domain), kind)
        correction = None if prob.homogeneous_jumps else build_jump_correction(ctx)
        system = assemble(ctx, method, correction=correction)
        x, _ = solve_spd(system)
        return ctx, system.expand(x), correction

    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    @pytest.mark.parametrize("example", ["ex1", "ex2", "ex3", "ex4"])
    def test_split_matches_pointwise_sums(self, example, kind):
        """On the solution and on random DOF vectors, the errors agree with
        the pointwise sums to 1e-12 relative; ex3's solution, whose error is
        at roundoff, to 1e-15 absolute."""
        ctx, x, correction = self.solved(example, kind)
        got, want = error_norms(ctx, x, correction), pointwise_error_norms(ctx, x, correction)
        if example == "ex3":
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12)
        rng = np.random.default_rng(5)
        for scale in (1.0, 1e-3):
            y = x + scale * rng.standard_normal(x.shape)
            np.testing.assert_allclose(error_norms(ctx, y, correction),
                                       pointwise_error_norms(ctx, y, correction), rtol=1e-12)

    @pytest.mark.parametrize("worker", [True, False], ids=["worker", "serial"])
    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    def test_load_pass_leaves_the_standalone_split(self, monkeypatch, kind, worker):
        """The split that the load vector's pass leaves on the context, on
        assemble's worker or on the calling thread, gives the errors of the
        split that error_norms computes itself, bit for bit."""
        monkeypatch.setattr(assembly, "LOAD_WORKER_DOFS", 0 if worker else 10 ** 9)
        prob = example4()
        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(prob, build(16, prob.domain), kind)
        correction = build_jump_correction(ctx)
        system = assemble(ctx, "new", correction=correction)
        if not worker:
            assert ctx.residuals is None  # the pass waits for the first read
        x, _ = solve_spd(system)
        assert ctx.residuals is not None
        x = system.expand(x)
        got = error_norms(ctx, x, correction)
        fresh = build_context(prob, ctx.mesh, kind, layout=ctx.layout)
        want = error_norms(fresh, x, correction)
        assert np.array(got).tobytes() == np.array(want).tobytes()


class TestConvergenceTable:
    def test_rates_from_error_column(self):
        t = ConvergenceTable()
        t.add(8, 0.25, 100, 4e-2, 8e-1, 0.1)
        t.add(16, 0.125, 400, 1e-2, 4e-1, 0.2)
        assert t.rows[0].l2_rate is None and t.rows[0].h1_rate is None
        assert abs(t.rows[1].l2_rate - 2.0) <= 1e-12
        assert abs(t.rows[1].h1_rate - 1.0) <= 1e-12

    def test_monotone_check_with_floor(self):
        t = ConvergenceTable()
        t.add(8, 0.25, 100, 1e-15, 1e-14, 0.0)
        t.add(16, 0.125, 400, 3e-15, 2e-14, 0.0)  # roundoff floor wiggle
        assert check_monotone(t)
        t2 = ConvergenceTable()
        t2.add(8, 0.25, 100, 1e-2, 1e-1, 0.0)
        t2.add(16, 0.125, 400, 2e-2, 5e-2, 0.0)
        assert not check_monotone(t2)

    def test_n_list_validation(self):
        with pytest.raises(ValueError):
            run_convergence(example3(), "new", "cr", [8, 12])
        with pytest.raises(ValueError):
            run_convergence(example3(), "new", "cr", [1024])


class TestEmit:
    def _table(self, n_rows):
        t = ConvergenceTable(meta={"example": "demo"})
        err = 4e-2
        for k in range(n_rows):
            N = 8 * 2 ** k
            t.add(N, 2.0 / N, 3 * N * N, err, err * 10, 0.25)
            err /= 4.0
        return t

    def test_single_row_csv(self):
        text = emit(self._table(1))
        lines = text.split("\n")
        assert lines[0] == "N,h,dofs,L2_err,L2_rate,H1_err,H1_rate,cg_iters,seconds"
        cells = lines[1].split(",")
        assert len(cells) == 9
        assert cells[4] == "" and cells[6] == ""
        assert text.endswith("\n") and "\r" not in text

    def test_two_row_rate_formatting(self):
        text = emit(self._table(2))
        row2 = text.strip().split("\n")[2].split(",")
        assert row2[4] == "2.000"

    def test_table_shaped_like_reference_run(self):
        text = emit(self._table(8))
        lines = [l for l in text.strip().split("\n") if l]
        assert len(lines) == 9  # header + 8 data rows
        assert all(len(l.split(",")) == 9 for l in lines)

    def test_four_significant_digits(self):
        text = emit(self._table(1))
        cells = text.strip().split("\n")[1].split(",")
        assert cells[3] == "4.000E-02"

    def test_text_format_aligned(self):
        text = emit(self._table(2), "text")
        assert "demo" in text
        assert "2.00" in text

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError):
            emit(ConvergenceTable())


def test_n_sequence_doubles_up_to_nmax():
    assert n_sequence(8, 64) == [8, 16, 32, 64]
    assert n_sequence(8, 63) == [8, 16, 32]
    assert n_sequence(5, 5) == [5]
    for nmin, nmax in ((0, 8), (16, 8)):
        with pytest.raises(ValueError):
            n_sequence(nmin, nmax)


class TestRunConvergence:
    def test_unknown_element_kind_raises(self):
        with pytest.raises(ValueError, match="'bogus' does not fit"):
            run_convergence(example4(), "new", "bogus", [8])

    def test_exact_case_small(self):
        t = run_convergence(example3(), "new", "cr", [8, 16])
        assert all(r.l2 <= 1e-10 and r.h1 <= 1e-10 for r in t.rows)
        assert check_monotone(t)

    def test_exact_case_rectangles(self):
        """ex3's interface runs through opposite vertices of the rectangles on
        the grid diagonal; cut along it, they reproduce the piecewise-linear
        solution to roundoff, as the triangles do."""
        t = run_convergence(example3(), "new", "rq1", [8, 16, 32, 64, 128, 256])
        assert max(r.l2 for r in t.rows) <= 1e-10
        assert max(r.h1 for r in t.rows) <= 1e-10

    def test_interpolation_table(self):
        t = interpolation_convergence(example3(), "cr", [8, 16])
        assert all(r.l2 <= 1e-10 for r in t.rows)
        assert all(r.iters == 0 for r in t.rows)

    @pytest.mark.parametrize("step, study", [
        ("solve", lambda prob: run_convergence(prob, "new", "cr", [4, 8])),
        ("interpolate_ife", lambda prob: interpolation_convergence(prob, "cr", [4, 8]))])
    def test_row_errors_name_example_and_n(self, monkeypatch, step, study):
        """Both studies share one row loop, so an error raised in any row
        names the example and the N of that row."""
        real = getattr(experiments, step)
        calls = []

        def fail_on_second_row(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise ArithmeticError("boom")
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, step, fail_on_second_row)
        prob = example3()
        with pytest.raises(ArithmeticError, match=rf"^{prob.name}, N=8: boom$"):
            study(prob)

    @pytest.mark.parametrize("step, study", [
        ("solve", lambda prob: run_convergence(prob, "new", "cr", [4, 8])),
        ("interpolate_ife", lambda prob: interpolation_convergence(prob, "cr", [4, 8]))])
    @pytest.mark.parametrize("fault", ["array-memory", "solver-residual"])
    def test_row_errors_keep_type_and_payload(self, monkeypatch, step, study, fault):
        """A row's error is raised again as the same object. numpy's
        _ArrayMemoryError, whose constructor needs a shape and a dtype and
        whose message is built from them, keeps its type and gets the
        example and N as a note; a SolverError keeps its residual."""
        from ifelab.assembly import SolverError

        real = getattr(experiments, step)
        calls, raised = [], []

        def fail_on_second_row(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                try:
                    if fault == "solver-residual":
                        raise SolverError("stalled", residual=1e-3)
                    np.empty(2 ** 62, dtype=np.uint8)  # 4 EiB: the allocation fails at once
                except Exception as err:
                    raised.append(err)
                    raise
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, step, fail_on_second_row)
        prob = example3()
        with pytest.raises(Exception) as exc:
            study(prob)
        assert exc.value is raised[0]
        if fault == "solver-residual":
            assert str(exc.value) == f"{prob.name}, N=8: stalled"
            assert exc.value.residual == 1e-3
        else:
            assert isinstance(exc.value, MemoryError)
            assert str(exc.value).startswith("Unable to allocate")
            assert exc.value.__notes__ == [f"{prob.name}, N=8"]

    def test_renamed_copy_validated_after_original(self):
        """A spec derived from a validated one keeps its name but not its
        validation: a wrong source term is caught, not solved."""
        prob = example1()
        run_convergence(prob, "new", "cr", [8])
        wrong = corrupted_source(prob, offset=1.0)
        assert wrong.name == prob.name
        with pytest.raises(ValidationError):
            run_convergence(wrong, "new", "cr", [8])

    def test_same_spec_validated_once(self, monkeypatch):
        calls = []
        real = experiments.validate
        monkeypatch.setattr(experiments, "validate",
                            lambda p: calls.append(p) or real(p))
        prob = example3()
        run_convergence(prob, "new", "cr", [4])
        run_convergence(prob, "plain", "cr", [4])
        interpolation_convergence(prob, "cr", [4])
        assert calls == [prob]


class TestBasisStress:
    def test_small_run_passes(self):
        rep = basis_stress_test(seed=1, count=100)
        assert rep.ok, rep.to_text()
        assert rep.worst_delta <= 1e-10
        assert rep.worst_agreement <= 1e-11
        assert rep.gamma_delta_min >= -1e-12
        assert rep.gamma_delta_max <= 1.0 + 1e-12
        assert rep.min_bound_margin >= -1e-12

    def test_determinism(self):
        a = basis_stress_test(seed=42, count=50)
        b = basis_stress_test(seed=42, count=50)
        assert a.to_text() == b.to_text()

    def test_angles_reach_requested_range(self):
        rep = basis_stress_test(seed=1, count=200, max_angle_deg=175.0)
        assert rep.max_angle_seen > 170.0

    def test_count_validation(self):
        with pytest.raises(ValueError):
            basis_stress_test(count=0)
