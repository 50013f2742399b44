"""Built-in interface problems with manufactured solutions.

Each problem packages a level set, piecewise diffusion coefficients and one
callable per side that gives the exact fields (f, u, grad u) of that side.
The exact solution is the only solution data: the interface jumps and the
Dirichlet data are its own traces. `validate` certifies a spec before any
convergence run: the shapes and finiteness of each side's fields, grad u and
the level-set gradient against finite differences, zero jumps at sampled
interface points when the spec declares them homogeneous, and the source
against a 4th-order finite-difference discretization of the flux divergence.

All field callables are vectorized over trailing (..., 2) point arrays.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geometry import LevelSet, edge_cuts_batch


class ValidationError(RuntimeError):
    def __init__(self, report):
        super().__init__("problem validation failed:\n" + report.summary())
        self.report = report


def piecewise(phi_vals, plus_fn, minus_fn, x):
    """Evaluate the scalar plus_fn where phi >= 0 and minus_fn elsewhere,
    without calling either callable outside its own subdomain; points all on
    one side are passed to its callable whole, without a gather."""
    x = np.asarray(x, float)
    out = np.empty(x.shape[:-1])
    plus = np.asarray(phi_vals) >= 0
    for m, f in ((plus, plus_fn), (~plus, minus_fn)):
        if m.size and m.all():
            out[...] = f(x)
        elif m.any():
            out[m] = f(x[m])
    return out


@dataclass(frozen=True)
class ProblemSpec:
    """An interface problem and its manufactured solution.

    fields_plus and fields_minus map points x (..., 2) to the exact fields
    (f, u, grad u) of their side, of shapes (...), (...) and (..., 2). They
    are the only description of the solution: the load vector, the error
    norms, the interpolant and validate all take their component from them.
    They are called on whole blocks of one side's points and, on the cut
    elements, a little beyond the interface, where the chord and the
    interface disagree, so each must extend smoothly across it. The jumps
    across the interface (g_D, g_N) and the Dirichlet data (u_exact on the
    boundary) are their traces.

    homogeneous_jumps declares both jumps zero, so that the jump correction
    and the chord load are skipped; validate checks the declaration. It is
    not worked out from the fields, whose jumps are zero only to roundoff.
    """

    name: str
    levelset: LevelSet
    domain: tuple
    beta_plus: Callable
    beta_minus: Callable
    fields_plus: Callable
    fields_minus: Callable
    homogeneous_jumps: bool = True
    # restricts where the finite-difference source oracle samples; needed when
    # high derivatives blow up in a thin shell (compactly supported bumps)
    fd_sample_filter: Optional[Callable] = None
    fd_step: float = 1e-3

    def _component(self, i: int):
        """Component i of each side's fields, as two callables."""
        return (lambda x: self.fields_plus(x)[i]), (lambda x: self.fields_minus(x)[i])

    def u_exact(self, x):
        x = np.asarray(x, float)
        return piecewise(self.levelset.phi(x), *self._component(1), x)

    def f(self, x):
        """The source at x, each point taking the branch of its own sign of
        phi. The load vector calls it on the cut elements only, whose
        sub-polygons follow the chord rather than the interface; every uncut
        element lies on one side and takes that side's fields whole."""
        x = np.asarray(x, float)
        return piecewise(self.levelset.phi(x), *self._component(0), x)

    def g_D(self, x):
        """The value jump [u] = u_plus - u_minus at x."""
        return self.fields_plus(x)[1] - self.fields_minus(x)[1]

    def g_N(self, x):
        """The flux jump [beta grad u . n] at x, n the unit normal of the
        level set, pointing into the plus side."""
        x = np.asarray(x, float)
        n = self.levelset.unit_normal(x)
        return self.beta_plus(x) * np.einsum("...i,...i->...", self.fields_plus(x)[2], n) \
            - self.beta_minus(x) * np.einsum("...i,...i->...", self.fields_minus(x)[2], n)


def example1(beta_p: float = 10.0, beta_m: float = 1000.0) -> ProblemSpec:
    """Circular interface r = 0.5 with a compactly supported bump solution.

    u = j(r) v(r) sin(theta) with v = 1 + (r^2 - r0^2)/beta side-wise; the
    solution is continuous with continuous flux across the circle while its
    tangential derivative does not vanish there.
    """
    if beta_p <= 0 or beta_m <= 0:
        raise ValueError("coefficients must be positive")
    r0, eta = 0.5, 0.45

    ls = LevelSet(phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - r0 ** 2,
                  grad=lambda x: 2.0 * np.asarray(x, float))

    def radial(x, beta):
        """r and R, R', R'' of R = j v, where j is the C-infinity bump in the
        radial variable."""
        r = np.hypot(x[..., 0], x[..., 1])
        w = (r - r0) / eta
        inside = np.abs(w) < 1.0 - 1e-12
        # s = 1 off the support keeps every step finite (and clear of pow's
        # slow path for a negative base); np.where discards those lanes
        w2 = w ** 2
        s = np.where(inside, 1.0 - w2, 1.0)
        g = np.exp(-1.0 / s)
        j = np.where(inside, g, 0.0)
        v = 1.0 + (r ** 2 - r0 ** 2) / beta
        s2 = s ** 2
        q1 = -2.0 * w / s2
        j1 = np.where(inside, g * q1 / eta, 0.0)
        v1 = 2.0 * r / beta
        q2 = -2.0 / s2 - 8.0 * w2 / s ** 3
        j2 = np.where(inside, g * (q1 ** 2 + q2) / eta ** 2, 0.0)
        v2 = 2.0 / beta
        return r, j * v, j1 * v + j * v1, j2 * v + 2.0 * j1 * v1 + j * v2

    def make(beta):
        def fields(x):
            """(f, u, grad u) from one evaluation of radial, sin and cos. Every
            field divides by r at every point and, where r = 0 occurs,
            selects with np.where, which drops the 0/0 there."""
            x = np.asarray(x, float)
            r, R, R1, R2 = radial(x, beta)
            m = r > 0
            sel = (lambda a: a) if m.all() else (lambda a: np.where(m, a, 0.0))
            with np.errstate(divide="ignore", invalid="ignore"):
                sin, cos, Rr = x[..., 1] / r, x[..., 0] / r, R / r
                return (sel(-beta * (R2 + R1 / r - R / r ** 2) * sin),
                        sel(R * x[..., 1] / r),
                        np.stack([sel(sin * cos * (R1 - Rr)),
                                  sel(R1 * sin ** 2 + Rr * cos ** 2)], axis=-1))
        return fields

    shell = lambda x: np.abs((np.hypot(x[..., 0], x[..., 1]) - r0) / eta)
    return ProblemSpec(
        name=f"ex1(beta+={beta_p:g},beta-={beta_m:g})",
        levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
        beta_plus=lambda x: np.full(np.asarray(x, float).shape[:-1], float(beta_p)),
        beta_minus=lambda x: np.full(np.asarray(x, float).shape[:-1], float(beta_m)),
        fields_plus=make(beta_p), fields_minus=make(beta_m),
        fd_sample_filter=lambda x: (shell(x) < 0.85) | (shell(x) > 1.05),
        fd_step=2e-4)


def example2() -> ProblemSpec:
    """Non-convex quartic interface with variable coefficients; u = phi/beta
    vanishes on the interface, so its tangential derivative is zero there and
    every method converges optimally."""

    def phi(x):
        x1, x2 = x[..., 0], x[..., 1]
        rho = x1 ** 2 + x2 ** 2
        return (3.0 * rho - x1) ** 2 - rho + 0.02

    def grad_phi(x):
        x1, x2 = x[..., 0], x[..., 1]
        rho = x1 ** 2 + x2 ** 2
        gx = 2.0 * (3.0 * rho - x1) * (6.0 * x1 - 1.0) - 2.0 * x1
        gy = 12.0 * x2 * (3.0 * rho - x1) - 2.0 * x2
        return np.stack([gx, gy], axis=-1)

    def lap_phi(x):
        x1, x2 = x[..., 0], x[..., 1]
        rho = x1 ** 2 + x2 ** 2
        return 2.0 * (6.0 * x1 - 1.0) ** 2 + 72.0 * x2 ** 2 + 24.0 * (3.0 * rho - x1) - 4.0

    ls = LevelSet(phi=phi, grad=grad_phi)

    bp = lambda x: 300.0 * (2.0 + np.sin(6.0 * (x[..., 0] + x[..., 1])))
    bm = lambda x: 2.0 + np.cos(6.0 * (x[..., 0] + x[..., 1]))
    gbp = lambda x: 1800.0 * np.cos(6.0 * (x[..., 0] + x[..., 1]))[..., None] * np.ones(2)
    gbm = lambda x: -6.0 * np.sin(6.0 * (x[..., 0] + x[..., 1]))[..., None] * np.ones(2)
    lbp = lambda x: -21600.0 * np.sin(6.0 * (x[..., 0] + x[..., 1]))
    lbm = lambda x: -72.0 * np.cos(6.0 * (x[..., 0] + x[..., 1]))

    def make(beta, gbeta, lbeta):
        def fields(x):
            """(f, u, grad u), grad u computed once for itself and for f."""
            b, p, gb = beta(x), phi(x), gbeta(x)
            gu = grad_phi(x) / b[..., None] - (p / b ** 2)[..., None] * gb
            u = p / b
            return -lap_phi(x) + np.einsum("...i,...i->...", gu, gb) + u * lbeta(x), u, gu
        return fields

    return ProblemSpec(
        name="ex2", levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
        beta_plus=bp, beta_minus=bm,
        fields_plus=make(bp, gbp, lbp), fields_minus=make(bm, gbm, lbm))


def example3() -> ProblemSpec:
    """Straight interface x1 = x2 with a piecewise-linear solution; the flux
    across the interface equals 1 from both sides while the tangential
    derivative is nonzero, so the penalty-free scheme degrades."""
    s = 1.0 / np.sqrt(2.0)
    bp, bm = 2.0, 1.0

    ls = LevelSet(
        phi=lambda x: (x[..., 0] - x[..., 1]) * s,
        grad=lambda x: np.broadcast_to(np.array([s, -s]), np.asarray(x, float).shape).copy())

    def make(beta):
        gu = np.array([s + s / beta, s - s / beta])

        def fields(x):
            x = np.asarray(x, float)
            u = (x[..., 0] + x[..., 1]) * s + (x[..., 0] - x[..., 1]) * s / beta
            return np.zeros(x.shape[:-1]), u, np.broadcast_to(gu, x.shape).copy()
        return fields

    return ProblemSpec(
        name="ex3", levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
        beta_plus=lambda x: np.full(np.asarray(x, float).shape[:-1], bp),
        beta_minus=lambda x: np.full(np.asarray(x, float).shape[:-1], bm),
        fields_plus=make(bp), fields_minus=make(bm))


def example4() -> ProblemSpec:
    """Circular interface with nonhomogeneous value and flux jumps and
    variable coefficients on both sides."""
    ls = LevelSet(phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 0.25,
                  grad=lambda x: 2.0 * np.asarray(x, float))

    bp = lambda x: np.sin(x[..., 0] + x[..., 1]) + 2.0
    bm = lambda x: np.cos(x[..., 0] + x[..., 1]) + 2.0

    def fields_plus(x):
        x = np.asarray(x, float)
        s = x[..., 0] + x[..., 1]
        rho = x[..., 0] ** 2 + x[..., 1] ** 2
        return -2.0 * np.cos(s) * s / rho, np.log(rho), 2.0 * x / rho[..., None]

    def fields_minus(x):
        x = np.asarray(x, float)
        s = x[..., 0] + x[..., 1]
        c = np.cos(s)
        return 2.0 * np.sin(2.0 * s) + 4.0 * np.sin(s), np.sin(s), np.stack([c, c], axis=-1)

    return ProblemSpec(
        name="ex4", levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
        beta_plus=bp, beta_minus=bm, fields_plus=fields_plus, fields_minus=fields_minus,
        homogeneous_jumps=False)


EXAMPLES = {"ex1": example1, "ex2": example2, "ex3": example3, "ex4": example4}

VALIDATION_SEED = 0  # of every random draw of validate
N_INTERFACE = 64     # interface points on which validate checks the jumps
INTERFACE_GRID = 256  # cells per side of the grid that locates them
N_SOURCE = 100       # points per side on which validate checks the fields


def get_example(name: str, beta_p: float = 10.0, beta_m: float = 1000.0) -> ProblemSpec:
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}; choose from {sorted(EXAMPLES)}")
    if name == "ex1":
        return example1(beta_p, beta_m)
    return EXAMPLES[name]()


def interface_points(ls: LevelSet, domain) -> np.ndarray:
    """N_INTERFACE points on the zero level set, located by bisection on an
    INTERFACE_GRID x INTERFACE_GRID grid of the domain."""
    x0, x1, y0, y1 = domain
    xs = np.linspace(x0, x1, INTERFACE_GRID + 1)
    ys = np.linspace(y0, y1, INTERFACE_GRID + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([X, Y], axis=-1)
    vals = np.asarray(ls.phi(pts), float)

    roots = [pts[vals == 0.0]]  # interfaces through grid nodes yield exact zeros
    segs_a, segs_b = [], []
    sx = vals[:-1, :] * vals[1:, :] < 0
    ia, ja = np.nonzero(sx)
    segs_a.append(pts[ia, ja])
    segs_b.append(pts[ia + 1, ja])
    sy = vals[:, :-1] * vals[:, 1:] < 0
    ib, jb = np.nonzero(sy)
    segs_a.append(pts[ib, jb])
    segs_b.append(pts[ib, jb + 1])
    a = np.vstack(segs_a)
    b = np.vstack(segs_b)
    if len(a) > 0:
        has, t, _, _ = edge_cuts_batch(a, b, ls)
        roots.append((a + t[:, None] * (b - a))[has])
    roots = np.vstack(roots)
    if len(roots) == 0:
        raise ValueError("no interface found in the domain")
    rng = np.random.default_rng(VALIDATION_SEED)
    idx = rng.permutation(len(roots))[:N_INTERFACE]
    return roots[idx]


@dataclass
class ValidationReport:
    name: str
    grad_phi_residual: float = np.nan
    beta_min: float = np.nan
    jump_value_residual: float = np.nan
    jump_flux_residual: float = np.nan
    source_residual: float = np.nan
    gradient_residual: float = np.nan
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"validation of {self.name}:",
                 f"  grad(phi) vs finite differences : {self.grad_phi_residual:.3e}",
                 f"  min beta on samples             : {self.beta_min:.3e}",
                 f"  max |[u]| on interface          : {self.jump_value_residual:.3e}",
                 f"  max |[beta grad u . n]|         : {self.jump_flux_residual:.3e}",
                 f"  f vs -div(beta grad u) (FD)     : {self.source_residual:.3e}",
                 f"  grad u vs finite differences    : {self.gradient_residual:.3e}"]
        for fmsg in self.failures:
            lines.append("  FAILED: " + fmsg)
        if self.ok:
            lines.append("  all checks passed")
        return "\n".join(lines)


def _side_fields(prob: ProblemSpec, side: str) -> Callable:
    return prob.fields_plus if side == "+" else prob.fields_minus


def _fields_failure(out, n: int, side: str) -> Optional[str]:
    """Why out, one side's fields on n points, is not finite (f, u, grad u)
    of shapes (n,), (n,) and (n, 2); None when it is."""
    if not isinstance(out, tuple) or len(out) != 3:
        return f"fields on side {side} do not return the tuple (f, u, grad u)"
    for name, value, shape in zip(("f", "u", "grad u"), out, ((n,), (n,), (n, 2))):
        value = np.asarray(value)
        if value.shape != shape:
            return f"{name} on side {side} has shape {value.shape} on {n} points, not {shape}"
        if not np.all(np.isfinite(value)):
            return f"{name} on side {side} is not finite at every sample point"
    return None


def _fd_fields(prob: ProblemSpec, pts: np.ndarray, side: str, h: float):
    """grad u and -div(beta grad u) of one side by 4th-order central
    differences of that side's u and beta, each called once per stencil
    point."""
    fields = _side_fields(prob, side)
    u = lambda x: fields(x)[1]
    beta = prob.beta_plus if side == "+" else prob.beta_minus

    def stencil(f, axis):
        """f at pts - 2he, pts - he, pts + he and pts + 2he, e the unit
        vector of axis."""
        e = np.zeros(2)
        e[axis] = h
        return [f(pts + k * e) for k in (-2, -1, 1, 2)]

    def dx(m2, m1, p1, p2):
        return (-p2 + 8 * p1 - 8 * m1 + m2) / (12 * h)

    def dxx(m2, m1, p1, p2):
        return (-p2 + 16 * p1 - 30 * u0 + 16 * m1 - m2) / (12 * h ** 2)

    u0 = u(pts)
    ux, uy = stencil(u, 0), stencil(u, 1)
    div = (dx(*stencil(beta, 0)) * dx(*ux) + dx(*stencil(beta, 1)) * dx(*uy)
           + beta(pts) * (dxx(*ux) + dxx(*uy)))
    return np.stack([dx(*ux), dx(*uy)], axis=-1), -div


def _sample_side(prob: ProblemSpec, side: str, n: int, h: float, rng) -> np.ndarray:
    """Points on one side whose full FD stencil stays on that side."""
    x0, x1, y0, y1 = prob.domain
    want = 1.0 if side == "+" else -1.0
    out = []
    attempts = 0
    while len(out) < n and attempts < 200:
        attempts += 1
        cand = np.column_stack([rng.uniform(x0 + 3 * h, x1 - 3 * h, 4 * n),
                                rng.uniform(y0 + 3 * h, y1 - 3 * h, 4 * n)])
        offs = np.array([[0, 0], [h, 0], [-h, 0], [2 * h, 0], [-2 * h, 0],
                         [0, h], [0, -h], [0, 2 * h], [0, -2 * h]])
        stencil = cand[:, None, :] + offs[None, :, :]
        signs = np.sign(np.asarray(prob.levelset.phi(stencil), float))
        good = np.all(signs == want, axis=1)
        if prob.fd_sample_filter is not None:
            good &= prob.fd_sample_filter(cand)
        out.extend(cand[good])
    if len(out) < n:
        raise ValueError(f"could not sample {n} points on side {side}")
    return np.array(out[:n])


def _relative_residual(got, want) -> float:
    """Largest |got - want| / max(scale, |want|) over the points, scale the
    larger of 1 and the median |want|; |.| is the Euclidean norm of a
    vector field (trailing axis of length 2)."""
    mag = (lambda a: np.linalg.norm(a, axis=-1)) if np.ndim(want) == 2 else np.abs
    size = mag(want)
    scale = max(1.0, float(np.median(size)))
    return float(np.max(mag(got - want) / np.maximum(scale, size)))


def validate(prob: ProblemSpec, strict: bool = True) -> ValidationReport:
    """Certify a problem spec; raises ValidationError when strict and a
    check fails. A residual that is NaN fails its check."""
    rng = np.random.default_rng(VALIDATION_SEED)
    rep = ValidationReport(prob.name)
    x0, x1, y0, y1 = prob.domain

    # analytic level-set gradient vs central differences
    pts = np.column_stack([rng.uniform(x0 + 0.01, x1 - 0.01, 200),
                           rng.uniform(y0 + 0.01, y1 - 0.01, 200)])
    hfd = 1e-6
    gx = (prob.levelset.phi(pts + [hfd, 0]) - prob.levelset.phi(pts - [hfd, 0])) / (2 * hfd)
    gy = (prob.levelset.phi(pts + [0, hfd]) - prob.levelset.phi(pts - [0, hfd])) / (2 * hfd)
    g = np.asarray(prob.levelset.grad(pts), float)
    scale = np.maximum(1.0, np.linalg.norm(g, axis=1))
    rep.grad_phi_residual = float(np.max(np.hypot(g[:, 0] - gx, g[:, 1] - gy) / scale))
    if not rep.grad_phi_residual <= 1e-6:
        rep.failures.append("level-set gradient inconsistent with finite differences")

    # coefficient bounds
    rep.beta_min = float(min(np.min(prob.beta_plus(pts)), np.min(prob.beta_minus(pts))))
    if not np.isfinite(rep.beta_min) or rep.beta_min <= 0:
        rep.failures.append("beta not bounded below by a positive constant")

    # each side's fields, on points whose FD stencil stays on that side: the
    # shapes and finiteness first, since every later check reads them
    sides = {side: _sample_side(prob, side, N_SOURCE, prob.fd_step, rng) for side in "+-"}
    values = {side: _side_fields(prob, side)(spts) for side, spts in sides.items()}
    broken = [msg for msg in (_fields_failure(values[side], N_SOURCE, side) for side in "+-")
              if msg]
    rep.failures += broken
    if not broken:
        _check_fields(prob, rep, sides, values)
    if strict and not rep.ok:
        raise ValidationError(rep)
    return rep


def _check_fields(prob: ProblemSpec, rep: ValidationReport, sides: dict, values: dict):
    """The largest jumps of u and of the flux over sampled interface points,
    which must vanish when the spec declares homogeneous jumps, and f and
    grad u of each side (values, on the points sides) against finite
    differences of u."""
    gpts = interface_points(prob.levelset, prob.domain)
    rep.jump_value_residual = float(np.max(np.abs(prob.g_D(gpts))))
    rep.jump_flux_residual = float(np.max(np.abs(prob.g_N(gpts))))
    if prob.homogeneous_jumps:
        for residual, jump in ((rep.jump_value_residual, "[u]"),
                               (rep.jump_flux_residual, "[beta grad u . n]")):
            if not residual <= 1e-8:
                rep.failures.append(f"{jump} is nonzero on the interface, "
                                    "but homogeneous_jumps is set")

    rep.source_residual = rep.gradient_residual = 0.0
    for side, spts in sides.items():
        f, _, grad = values[side]
        fd_grad, fd_source = _fd_fields(prob, spts, side, prob.fd_step)
        rep.source_residual = max(rep.source_residual, _relative_residual(fd_source, f))
        rep.gradient_residual = max(rep.gradient_residual, _relative_residual(fd_grad, grad))
    if not rep.source_residual <= 1e-5:
        rep.failures.append("source term inconsistent with -div(beta grad u)")
    if not rep.gradient_residual <= 1e-5:
        rep.failures.append("grad u inconsistent with finite differences of u")
