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

from conftest import grad_u_exact
from ex1_reference import ETA, R0, masked_fields


class TestExample1:
    def setup_method(self):
        self.prob = example1(10.0, 1000.0)

    def test_continuity_across_interface(self):
        pts = interface_points(self.prob.levelset, self.prob.domain, 64)
        gap = self.prob.u_plus(pts) - self.prob.u_minus(pts)
        assert np.max(np.abs(gap)) <= 1e-10

    def test_tangential_derivative_nonzero(self):
        pts = interface_points(self.prob.levelset, self.prob.domain, 64)
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
        and on both sides of the edges of the bump's support. So do the
        three fields of each side's joint callable."""
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
                got = [getattr(prob, name + side)(pts) for name in ("u_", "grad_u_", "f_")]
                f, u, grad = getattr(prob, "fields_" + side)(pts)
            for new in (got, [u, grad, f]):
                for value, ref in zip(new, masked_fields(b)):
                    want = ref(pts)
                    assert value.shape == want.shape
                    assert np.array_equal(value.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind", ["cr", "rq1"])
    def test_fields_on_class_blocks_match_masked_reference_bitwise(self, kind):
        """The (e, nq, 2) point blocks that the uncut-element passes build
        give, through u, grad u and f of both sides, the masked reference's
        values bit for bit."""
        from ifelab.assembly import build_context
        from ifelab.mesh import build_uniform_rect, build_uniform_tri

        build = build_uniform_tri if kind == "cr" else build_uniform_rect
        ctx = build_context(self.prob, build(32, self.prob.domain), kind)
        for cl in ctx.classes:
            for _, pts in cl.blocks():
                assert pts.ndim == 3
                for side, b in (("plus", 10.0), ("minus", 1000.0)):
                    for name, ref in zip(("u_", "grad_u_", "f_"), masked_fields(b)):
                        got = getattr(self.prob, name + side)(pts)
                        want = ref(pts)
                        assert got.shape == want.shape
                        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestExample2:
    def setup_method(self):
        self.prob = example2()

    def test_u_vanishes_on_interface(self):
        pts = interface_points(self.prob.levelset, self.prob.domain, 64)
        assert np.max(np.abs(self.prob.u_plus(pts))) <= 1e-10
        assert np.max(np.abs(self.prob.u_minus(pts))) <= 1e-10

    def test_flux_jump_small(self):
        rep = validate(self.prob)
        assert rep.jump_flux_residual <= 1e-8

    def test_tangential_derivative_zero(self):
        pts = interface_points(self.prob.levelset, self.prob.domain, 64)
        n = self.prob.levelset.unit_normal(pts)
        t = np.column_stack([-n[:, 1], n[:, 0]])
        for g in (self.prob.grad_u_plus(pts), self.prob.grad_u_minus(pts)):
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
        assert np.max(np.abs(self.prob.u_plus(pts) - self.prob.u_minus(pts))) <= 1e-14

    def test_flux_equals_one_both_sides(self):
        t = np.linspace(-0.9, 0.9, 17)
        pts = np.column_stack([t, t])
        n = self.prob.levelset.unit_normal(pts)
        fp = self.prob.beta_plus(pts) * np.einsum("ij,ij->i", self.prob.grad_u_plus(pts), n)
        fm = self.prob.beta_minus(pts) * np.einsum("ij,ij->i", self.prob.grad_u_minus(pts), n)
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
        pts = interface_points(self.prob.levelset, self.prob.domain, 64)
        assert np.min(np.abs(self.prob.g_N(pts))) > 1e-3

    def test_tangential_derivative_nonzero(self):
        # the log branch is radial (zero tangential derivative); the sine
        # branch carries the suboptimality trigger
        pts = interface_points(self.prob.levelset, self.prob.domain, 64)
        n = self.prob.levelset.unit_normal(pts)
        t = np.column_stack([-n[:, 1], n[:, 0]])
        gt = max(np.max(np.abs(np.einsum("ij,ij->i", g(pts), t)))
                 for g in (self.prob.grad_u_plus, self.prob.grad_u_minus))
        assert gt > 0.1

    def test_source_consistency(self):
        rep = validate(self.prob)
        assert rep.ok and rep.source_residual <= 1e-5


class TestValidateNegativeControl:
    def test_corrupted_source_fails(self):
        prob = example3()
        f_bad = lambda x: prob.u_plus(x) * 0 + 1.0  # f=0 is exact; any offset breaks
        bad = replace(prob, f_plus=f_bad)
        with pytest.raises(ValidationError):
            validate(bad)

    def test_scaled_source_fails(self):
        prob = example1(10.0, 1000.0)
        fp = prob.f_plus
        bad = replace(prob, f_plus=lambda x: 1.01 * fp(x))
        with pytest.raises(ValidationError):
            validate(bad)

    def test_disagreeing_joint_fields_fail(self):
        """A joint (f, u, grad u) callable must give the three closures'
        values: one off by 1e-9 in u is rejected, and so is the joint
        callable of ex1 kept beside a replaced u."""
        prob = example1(10.0, 1000.0)
        joint = prob.fields_minus

        def off(x):
            f, u, grad = joint(x)
            return f, u * (1.0 + 1e-9), grad

        for bad in (replace(prob, fields_minus=off),
                    replace(prob, u_plus=lambda x: 2.0 * prob.u_plus(x))):
            rep = validate(bad, strict=False)
            assert not rep.ok and rep.fields_residual > 1e-12
            assert "joint fields callable disagrees with f, u and grad u" in rep.failures
            with pytest.raises(ValidationError):
                validate(bad)
        assert validate(prob).fields_residual == 0.0

    def test_fields_default_to_the_closures(self):
        """Without a joint callable, fields(plus) calls the side's f, u and
        grad u in turn."""
        prob = example2()
        assert prob.fields_plus is None and prob.fields_minus is None
        x = np.random.default_rng(2).uniform(-1.0, 1.0, (50, 2))
        for plus, closures in ((True, (prob.f_plus, prob.u_plus, prob.grad_u_plus)),
                               (False, (prob.f_minus, prob.u_minus, prob.grad_u_minus))):
            for got, fn in zip(prob.fields(plus)(x), closures):
                assert got.tobytes() == fn(x).tobytes()

    def test_get_example_rejects_unknown(self):
        with pytest.raises(KeyError):
            get_example("ex9")
