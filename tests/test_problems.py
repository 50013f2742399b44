import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ifelab.problems import (
    ValidationError,
    example1,
    example2,
    example3,
    example4,
    get_example,
    interface_points,
    validate,
)

from conftest import corrupted_source, grad_u_exact
from ex1_reference import ETA, R0, masked_fields


class TestExample1:
    def setup_method(self):
        self.prob = example1(10.0, 1000.0)

    def test_continuity_across_interface(self):
        pts = interface_points(self.prob.levelset, self.prob.domain)
        gap = self.prob.fields_plus(pts)[1] - self.prob.fields_minus(pts)[1]
        assert np.max(np.abs(gap)) <= 1e-10

    def test_tangential_derivative_nonzero(self):
        pts = interface_points(self.prob.levelset, self.prob.domain)
        n = self.prob.levelset.unit_normal(pts)
        t = np.column_stack([-n[:, 1], n[:, 0]])
        gt = np.einsum("ij,ij->i", grad_u_exact(self.prob, pts), t)
        assert np.max(np.abs(gt)) > 0.1

    def test_compact_support(self):
        rng = np.random.default_rng(0)
        ang = rng.uniform(0, 2 * np.pi, 100)
        r = rng.uniform(0.95, 1.0, 100)
        pts = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
        assert np.all(self.prob.u_exact(pts) == 0.0)
        inner = np.column_stack([0.04 * np.cos(ang), 0.04 * np.sin(ang)])
        assert np.all(self.prob.u_exact(inner) == 0.0)

    def test_validates(self):
        rep = validate(self.prob)
        assert rep.ok and rep.jump_value_residual <= 1e-10

    def test_swapped_contrast_validates(self):
        assert validate(example1(1000.0, 10.0)).ok

    @pytest.mark.parametrize("beta", [(10.0, 1000.0), (1000.0, 10.0)], ids=["10-1000", "1000-10"])
    def test_fields_match_masked_reference_bitwise(self, beta):
        """u, grad u and f of both sides, computed at every point and selected
        with np.where, equal the masked evaluation bit for bit (signed zeros
        included) and raise no RuntimeWarning: on 1e5 random points, at r = 0
        and on both sides of the edges of the bump's support."""
        rng = np.random.default_rng(3)
        support = []
        for r in (R0 - ETA * (1.0 - 1e-12), R0 + ETA * (1.0 - 1e-12), R0 - ETA, R0 + ETA):
            for toward in (0.0, 2.0):
                steps = [r]
                for _ in range(6):
                    steps.append(np.nextafter(steps[-1], toward))
                support += steps
        support = np.array(support)
        ang = rng.uniform(0.0, 2.0 * np.pi, len(support))
        pts = np.concatenate([
            rng.uniform(-1.0, 1.0, (100_000, 2)), np.zeros((1, 2)),
            np.column_stack([support, np.zeros_like(support)]),
            np.column_stack([np.zeros_like(support), -support]),
            support[:, None] * np.column_stack([np.cos(ang), np.sin(ang)])])
        prob = example1(*beta)
        for side, b in (("plus", beta[0]), ("minus", beta[1])):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                f, u, grad = getattr(prob, "fields_" + side)(pts)
            for value, ref in zip((u, grad, f), masked_fields(b)):
                want = ref(pts)
                assert value.shape == want.shape
                assert np.array_equal(value.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    def test_fields_on_class_blocks_match_masked_reference_bitwise(self, kind):
        """The (e, nq, 2) point blocks that the uncut-element passes build
        give, through the fields of both sides, the masked reference's u,
        grad u and f bit for bit."""
        from ifelab.assembly import build_context
        from ifelab.mesh import build_uniform_rect, build_uniform_tri

        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(self.prob, build(32, self.prob.domain), kind)
        for cl in ctx.classes:
            for _, pts in cl.blocks():
                assert pts.ndim == 3
                for side, b in (("plus", 10.0), ("minus", 1000.0)):
                    f, u, grad = getattr(self.prob, "fields_" + side)(pts)
                    for got, ref in zip((u, grad, f), masked_fields(b)):
                        want = ref(pts)
                        assert got.shape == want.shape
                        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestExample2:
    def setup_method(self):
        self.prob = example2()

    def test_u_vanishes_on_interface(self):
        pts = interface_points(self.prob.levelset, self.prob.domain)
        assert np.max(np.abs(self.prob.fields_plus(pts)[1])) <= 1e-10
        assert np.max(np.abs(self.prob.fields_minus(pts)[1])) <= 1e-10

    def test_flux_jump_small(self):
        rep = validate(self.prob)
        assert rep.jump_flux_residual <= 1e-8

    def test_tangential_derivative_zero(self):
        pts = interface_points(self.prob.levelset, self.prob.domain)
        n = self.prob.levelset.unit_normal(pts)
        t = np.column_stack([-n[:, 1], n[:, 0]])
        for g in (self.prob.fields_plus(pts)[2], self.prob.fields_minus(pts)[2]):
            assert np.max(np.abs(np.einsum("ij,ij->i", g, t))) <= 1e-8


class TestExample3:
    def setup_method(self):
        self.prob = example3()

    def test_source_is_zero(self):
        pts = np.random.default_rng(1).uniform(-1, 1, size=(50, 2))
        assert np.all(self.prob.f(pts) == 0.0)

    def test_jump_zero_on_interface(self):
        t = np.linspace(-0.9, 0.9, 33)
        pts = np.column_stack([t, t])
        gap = self.prob.fields_plus(pts)[1] - self.prob.fields_minus(pts)[1]
        assert np.max(np.abs(gap)) <= 1e-14

    def test_flux_equals_one_both_sides(self):
        t = np.linspace(-0.9, 0.9, 17)
        pts = np.column_stack([t, t])
        n = self.prob.levelset.unit_normal(pts)
        fp = self.prob.beta_plus(pts) * np.einsum("ij,ij->i", self.prob.fields_plus(pts)[2], n)
        fm = self.prob.beta_minus(pts) * np.einsum("ij,ij->i", self.prob.fields_minus(pts)[2], n)
        assert np.allclose(fp, 1.0, atol=1e-14)
        assert np.allclose(fm, 1.0, atol=1e-14)

    def test_validates_tightly(self):
        rep = validate(self.prob)
        assert rep.jump_value_residual <= 1e-12
        assert rep.jump_flux_residual <= 1e-12


class TestExample4:
    def setup_method(self):
        self.prob = example4()

    def test_value_jump_oracle_point(self):
        # direct evaluation of the two solution branches at (0.5, 0)
        val = self.prob.g_D(np.array([0.5, 0.0]))
        assert abs(val - (np.log(0.25) - np.sin(0.5))) <= 1e-14

    def test_flux_jump_nonzero(self):
        pts = interface_points(self.prob.levelset, self.prob.domain)
        assert np.min(np.abs(self.prob.g_N(pts))) > 1e-3

    def test_tangential_derivative_nonzero(self):
        # the log branch is radial (zero tangential derivative); the sine
        # branch carries the suboptimality trigger
        pts = interface_points(self.prob.levelset, self.prob.domain)
        n = self.prob.levelset.unit_normal(pts)
        t = np.column_stack([-n[:, 1], n[:, 0]])
        gt = max(np.max(np.abs(np.einsum("ij,ij->i", fields(pts)[2], t)))
                 for fields in (self.prob.fields_plus, self.prob.fields_minus))
        assert gt > 0.1

    def test_source_consistency(self):
        rep = validate(self.prob)
        assert rep.ok and rep.source_residual <= 1e-5


class TestValidateNegativeControl:
    def test_corrupted_source_fails(self):
        bad = corrupted_source(example3(), offset=1.0)  # f=0 is exact; any offset breaks
        with pytest.raises(ValidationError):
            validate(bad)

    def test_scaled_source_fails(self):
        bad = corrupted_source(example1(10.0, 1000.0), scale=1.01)
        with pytest.raises(ValidationError):
            validate(bad)

    def test_gradient_shifted_along_the_interface_fails(self):
        """grad u of ex3's minus side shifted by 1e-3 (1, 1), along the
        interface tangent: the jumps of u and of the flux still hold and f
        is unchanged, so only the check of grad u against finite
        differences of u sees it."""
        prob = example3()
        real = prob.fields_minus

        def shifted(x):
            f, u, grad = real(x)
            return f, u, grad + 1e-3

        rep = validate(replace(prob, fields_minus=shifted), strict=False)
        assert rep.failures == ["grad u inconsistent with finite differences of u"]
        assert rep.gradient_residual > 1e-4
        assert rep.jump_flux_residual <= 1e-12 and rep.source_residual <= 1e-5
        assert validate(prob).gradient_residual <= 1e-10

    @pytest.mark.parametrize("case", ["scalar-grad", "scalar-f", "pair", "nan-u"])
    def test_malformed_fields_are_reported(self, case):
        """Fields of the wrong shape, not a triple, or not finite on the
        sample points fail validation with a message naming the side and
        the field, not with a numpy error in a later check."""
        prob = example4()
        real = prob.fields_plus

        def broken(x):
            f, u, grad = real(x)
            return {"scalar-grad": (f, u, grad[..., 0]), "scalar-f": (1.0, u, grad),
                    "pair": (f, u), "nan-u": (f, u * np.nan, grad)}[case]

        rep = validate(replace(prob, fields_plus=broken), strict=False)
        want = {"scalar-grad": "grad u on side + has shape (100,) on 100 points, not (100, 2)",
                "scalar-f": "f on side + has shape () on 100 points, not (100,)",
                "pair": "fields on side + do not return the tuple (f, u, grad u)",
                "nan-u": "u on side + is not finite at every sample point"}[case]
        assert rep.failures == [want]
        with pytest.raises(ValidationError, match="FAILED: " + re.escape(want)):
            validate(replace(prob, fields_plus=broken))

    def test_false_homogeneous_jumps_declaration_fails(self):
        """ex4 declared with homogeneous jumps would skip the jump
        correction and the chord load and solve the wrong problem; validate
        rejects the declaration, and so run_convergence does not run."""
        from ifelab.experiments import run_convergence

        prob = replace(example4(), homogeneous_jumps=True)
        rep = validate(prob, strict=False)
        assert rep.failures == [
            "[u] is nonzero on the interface, but homogeneous_jumps is set",
            "[beta grad u . n] is nonzero on the interface, but homogeneous_jumps is set"]
        assert rep.jump_value_residual > 1.0 and rep.jump_flux_residual > 1.0
        with pytest.raises(ValidationError, match="homogeneous_jumps is set"):
            run_convergence(prob, "new", "cr", [16])

    def test_get_example_rejects_unknown(self):
        with pytest.raises(KeyError):
            get_example("ex9")


class TestDerivedData:
    def test_replaced_fields_move_the_jumps_and_the_dirichlet_data(self):
        """The jumps and the Dirichlet data are traces of the fields, so
        adding the linear function a . x + c to ex4's plus-side u (and a to
        its gradient) adds it to g_D, adds beta_plus a . n to g_N and adds
        its edge means, the values at the edge midpoints, to the
        constrained values: ex4's boundary lies on the plus side."""
        from ifelab.assembly import assemble, build_context
        from ifelab.mesh import build_uniform_tri

        prob = example4()
        a, c = np.array([0.3, -0.7]), 0.25
        real = prob.fields_plus

        def shifted(x):
            f, u, grad = real(x)
            return f, u + x @ a + c, grad + a

        moved = replace(prob, fields_plus=shifted)
        pts = interface_points(prob.levelset, prob.domain)
        n = prob.levelset.unit_normal(pts)
        np.testing.assert_allclose(moved.g_D(pts) - prob.g_D(pts), pts @ a + c,
                                   rtol=0, atol=1e-13)
        np.testing.assert_allclose(moved.g_N(pts) - prob.g_N(pts),
                                   prob.beta_plus(pts) * (n @ a), rtol=0, atol=1e-13)
        mesh = build_uniform_tri(8, prob.domain)
        old, new = (assemble(build_context(p, mesh, "cr"), "new") for p in (prob, moved))
        mid = mesh.nodes[mesh.edges[old.constrained]].mean(axis=1)
        np.testing.assert_allclose(new.constrained_values - old.constrained_values,
                                   mid @ a + c, rtol=0, atol=1e-13)
