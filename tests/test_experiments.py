import dataclasses

import numpy as np
import pytest

from ifelab import experiments

from ifelab.assembly import build_context
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
from ifelab.ife_space import interpolate_ife
from ifelab.mesh import build_uniform_tri
from ifelab.problems import ProblemSpec, ValidationError, example1, example3, example4

from conftest import check_monotone


def quadratic_far_problem():
    """u = x*y on [-1,1]^2 with the interface outside; beta = 1."""
    ls = LevelSet(phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 100.0,
                  grad=lambda x: 2.0 * np.asarray(x, float))
    u = lambda x: x[..., 0] * x[..., 1]
    gu = lambda x: np.stack([x[..., 1], x[..., 0]], axis=-1)
    zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
    one = lambda x: np.ones(np.asarray(x, float).shape[:-1])
    return ProblemSpec(name="quadratic", levelset=ls, domain=(-1, 1, -1, 1),
                       beta_plus=one, beta_minus=one, f_plus=zero, f_minus=zero,
                       u_plus=u, u_minus=u, grad_u_plus=gu, grad_u_minus=gu,
                       g_D=zero, g_N=zero, g_boundary=u)


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

    def test_renamed_copy_validated_after_original(self):
        """A spec derived from a validated one keeps its name but not its
        validation: a wrong source term is caught, not solved."""
        prob = example1()
        run_convergence(prob, "new", "cr", [8])
        wrong = dataclasses.replace(prob, f_plus=lambda x: prob.f_plus(x) + 1.0)
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
