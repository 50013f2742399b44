"""Built-in interface problems with manufactured solutions.

Each problem packages a level set, piecewise diffusion coefficients, the
exact solution with its gradient, the hand-derived source, interface jump
data and Dirichlet boundary data. `validate` certifies a spec before any
convergence run: the analytic gradient against finite differences, the jump
conditions at sampled interface points, and the source against a 4th-order
finite-difference discretization of the flux divergence.

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


def piecewise(phi_vals, f_plus, f_minus, x, vector=False):
    """Evaluate f_plus where phi >= 0 and f_minus elsewhere, without calling
    either callable outside its own subdomain; points all on one side are
    passed to its callable whole, without a gather."""
    x = np.asarray(x, float)
    out = np.empty(x.shape[:-1] + ((2,) if vector else ()))
    plus = np.asarray(phi_vals) >= 0
    for m, f in ((plus, f_plus), (~plus, f_minus)):
        if m.size and m.all():
            out[...] = f(x)
        elif m.any():
            out[m] = f(x[m])
    return out


@dataclass(frozen=True)
class ProblemSpec:
    name: str
    levelset: LevelSet
    domain: tuple
    beta_plus: Callable
    beta_minus: Callable
    f_plus: Callable
    f_minus: Callable
    u_plus: Callable
    u_minus: Callable
    grad_u_plus: Callable
    grad_u_minus: Callable
    g_D: Callable
    g_N: Callable
    g_boundary: Callable
    homogeneous_jumps: bool = True
    # restricts where the finite-difference source oracle samples; needed when
    # high derivatives blow up in a thin shell (compactly supported bumps)
    fd_sample_filter: Optional[Callable] = None
    fd_step: float = 1e-3
    # x -> (f, u, grad u) of one side on the same points, for a problem that
    # shares work between the three; it must agree with the three closures,
    # which validate checks. None calls the three closures in turn.
    fields_plus: Optional[Callable] = None
    fields_minus: Optional[Callable] = None

    def u_exact(self, x):
        x = np.asarray(x, float)
        return piecewise(self.levelset.phi(x), self.u_plus, self.u_minus, x)

    def fields(self, plus: bool) -> Callable:
        """x -> (f, u, grad u) of the plus or the minus side: the side's joint
        callable, or its three closures in turn."""
        joint = self.fields_plus if plus else self.fields_minus
        if joint is not None:
            return joint
        f, u, grad = ((self.f_plus, self.u_plus, self.grad_u_plus) if plus
                      else (self.f_minus, self.u_minus, self.grad_u_minus))
        return lambda x: (f(x), u(x), grad(x))

    def f(self, x):
        """The source at x, each point taking the branch of its own sign of
        phi. The load vector calls it on the cut elements only, whose
        sub-polygons follow the chord rather than the interface; every uncut
        element lies on one side and takes f_plus or f_minus whole."""
        x = np.asarray(x, float)
        return piecewise(self.levelset.phi(x), self.f_plus, self.f_minus, x)


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

    def radial(x, beta, order):
        """r and the derivatives R, R', ... up to R^(order) of R = j v, where
        j is the C-infinity bump in the radial variable. Each caller pays
        only for the derivatives it uses."""
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
        out = [r, j * v]
        if order >= 1:
            s2 = s ** 2
            q1 = -2.0 * w / s2
            j1 = np.where(inside, g * q1 / eta, 0.0)
            v1 = 2.0 * r / beta
            out.append(j1 * v + j * v1)
        if order >= 2:
            q2 = -2.0 / s2 - 8.0 * w2 / s ** 3
            j2 = np.where(inside, g * (q1 ** 2 + q2) / eta ** 2, 0.0)
            v2 = 2.0 / beta
            out.append(j2 * v + 2.0 * j1 * v1 + j * v2)
        return out

    # the closures divide by r at every point and, where r = 0 occurs, select
    # with np.where, which drops the 0/0 there; the joint callable evaluates
    # radial, sin and cos once for all three fields and gives each the same
    # values bit for bit
    quiet = dict(divide="ignore", invalid="ignore")

    def off_origin(r):
        """a -> a where r > 0 and 0 elsewhere; the identity when r > 0 at
        every point."""
        m = r > 0
        return (lambda a: a) if m.all() else (lambda a: np.where(m, a, 0.0))

    def u_of(x, r, R, sel):
        return sel(R * x[..., 1] / r)

    def grad_of(r, R, R1, sin, cos, sel):
        Rr = R / r
        return np.stack([sel(sin * cos * (R1 - Rr)), sel(R1 * sin ** 2 + Rr * cos ** 2)],
                        axis=-1)

    def f_of(beta, r, R, R1, R2, sin, sel):
        return sel(-beta * (R2 + R1 / r - R / r ** 2) * sin)

    def make(beta):
        def u(x):
            x = np.asarray(x, float)
            r, R = radial(x, beta, 0)
            with np.errstate(**quiet):
                return u_of(x, r, R, off_origin(r))

        def grad(x):
            x = np.asarray(x, float)
            r, R, R1 = radial(x, beta, 1)
            with np.errstate(**quiet):
                return grad_of(r, R, R1, x[..., 1] / r, x[..., 0] / r, off_origin(r))

        def f(x):
            x = np.asarray(x, float)
            r, R, R1, R2 = radial(x, beta, 2)
            with np.errstate(**quiet):
                return f_of(beta, r, R, R1, R2, x[..., 1] / r, off_origin(r))

        def fields(x):
            x = np.asarray(x, float)
            r, R, R1, R2 = radial(x, beta, 2)
            sel = off_origin(r)
            with np.errstate(**quiet):
                sin = x[..., 1] / r
                return (f_of(beta, r, R, R1, R2, sin, sel), u_of(x, r, R, sel),
                        grad_of(r, R, R1, sin, x[..., 0] / r, sel))
        return u, grad, f, fields

    up, gup, fp, jp = make(beta_p)
    um, gum, fm, jm = make(beta_m)
    zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
    shell = lambda x: np.abs((np.hypot(x[..., 0], x[..., 1]) - r0) / eta)
    return ProblemSpec(
        name=f"ex1(beta+={beta_p:g},beta-={beta_m:g})",
        levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
        beta_plus=lambda x: np.full(np.asarray(x, float).shape[:-1], float(beta_p)),
        beta_minus=lambda x: np.full(np.asarray(x, float).shape[:-1], float(beta_m)),
        f_plus=fp, f_minus=fm, u_plus=up, u_minus=um, grad_u_plus=gup, grad_u_minus=gum,
        g_D=zero, g_N=zero, g_boundary=zero,
        fd_sample_filter=lambda x: (shell(x) < 0.85) | (shell(x) > 1.05),
        fd_step=2e-4, fields_plus=jp, fields_minus=jm)


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
        def u(x):
            return phi(x) / beta(x)

        def grad(x):
            b = beta(x)
            return grad_phi(x) / b[..., None] - (phi(x) / b ** 2)[..., None] * gbeta(x)

        def f(x):
            b = beta(x)
            gu = grad_phi(x) / b[..., None] - (phi(x) / b ** 2)[..., None] * gbeta(x)
            return -lap_phi(x) + np.einsum("...i,...i->...", gu, gbeta(x)) \
                + (phi(x) / b) * lbeta(x)
        return u, grad, f

    up, gup, fp = make(bp, gbp, lbp)
    um, gum, fm = make(bm, gbm, lbm)
    zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])
    return ProblemSpec(
        name="ex2", levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
        beta_plus=bp, beta_minus=bm, f_plus=fp, f_minus=fm,
        u_plus=up, u_minus=um, grad_u_plus=gup, grad_u_minus=gum,
        g_D=zero, g_N=zero,
        g_boundary=lambda x: phi(x) / bp(x))


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

        def u(x):
            x = np.asarray(x, float)
            return (x[..., 0] + x[..., 1]) * s + (x[..., 0] - x[..., 1]) * s / beta

        def grad(x):
            x = np.asarray(x, float)
            return np.broadcast_to(gu, x.shape).copy()
        return u, grad

    up, gup = make(bp)
    um, gum = make(bm)
    zero = lambda x: np.zeros(np.asarray(x, float).shape[:-1])

    def g_boundary(x):  # the interface reaches the domain boundary
        x = np.asarray(x, float)
        return piecewise(ls.phi(x), up, um, x)

    return ProblemSpec(
        name="ex3", levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
        beta_plus=lambda x: np.full(np.asarray(x, float).shape[:-1], bp),
        beta_minus=lambda x: np.full(np.asarray(x, float).shape[:-1], bm),
        f_plus=zero, f_minus=zero,
        u_plus=up, u_minus=um, grad_u_plus=gup, grad_u_minus=gum,
        g_D=zero, g_N=zero, g_boundary=g_boundary)


def example4() -> ProblemSpec:
    """Circular interface with nonhomogeneous value and flux jumps and
    variable coefficients on both sides."""
    ls = LevelSet(phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 0.25,
                  grad=lambda x: 2.0 * np.asarray(x, float))

    bp = lambda x: np.sin(x[..., 0] + x[..., 1]) + 2.0
    bm = lambda x: np.cos(x[..., 0] + x[..., 1]) + 2.0

    def up(x):
        return np.log(x[..., 0] ** 2 + x[..., 1] ** 2)

    def um(x):
        return np.sin(x[..., 0] + x[..., 1])

    def gup(x):
        x = np.asarray(x, float)
        rho = x[..., 0] ** 2 + x[..., 1] ** 2
        return 2.0 * x / rho[..., None]

    def gum(x):
        x = np.asarray(x, float)
        c = np.cos(x[..., 0] + x[..., 1])
        return np.stack([c, c], axis=-1)

    def fp(x):
        x = np.asarray(x, float)
        s = x[..., 0] + x[..., 1]
        rho = x[..., 0] ** 2 + x[..., 1] ** 2
        return -2.0 * np.cos(s) * s / rho

    def fm(x):
        s = x[..., 0] + x[..., 1]
        return 2.0 * np.sin(2.0 * s) + 4.0 * np.sin(s)

    def g_D(x):
        return up(x) - um(x)

    def g_N(x):
        x = np.asarray(x, float)
        n = ls.unit_normal(x)
        return bp(x) * np.einsum("...i,...i->...", gup(x), n) \
            - bm(x) * np.einsum("...i,...i->...", gum(x), n)

    return ProblemSpec(
        name="ex4", levelset=ls, domain=(-1.0, 1.0, -1.0, 1.0),
        beta_plus=bp, beta_minus=bm, f_plus=fp, f_minus=fm,
        u_plus=up, u_minus=um, grad_u_plus=gup, grad_u_minus=gum,
        g_D=g_D, g_N=g_N, g_boundary=up, homogeneous_jumps=False)


EXAMPLES = {"ex1": example1, "ex2": example2, "ex3": example3, "ex4": example4}


def get_example(name: str, beta_p: float = 10.0, beta_m: float = 1000.0) -> ProblemSpec:
    if name not in EXAMPLES:
        raise KeyError(f"unknown example {name!r}; choose from {sorted(EXAMPLES)}")
    if name == "ex1":
        return example1(beta_p, beta_m)
    return EXAMPLES[name]()


def interface_points(ls: LevelSet, domain, n: int = 64, grid: int = 256,
                     seed: int = 0) -> np.ndarray:
    """n points on the zero level set, located by bisection on a fine grid."""
    x0, x1, y0, y1 = domain
    xs = np.linspace(x0, x1, grid + 1)
    ys = np.linspace(y0, y1, grid + 1)
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
    rng = np.random.default_rng(seed)
    idx = rng.permutation(len(roots))[:n]
    return roots[idx]


@dataclass
class ValidationReport:
    name: str
    grad_phi_residual: float = np.nan
    beta_min: float = np.nan
    jump_value_residual: float = np.nan
    jump_flux_residual: float = np.nan
    source_residual: float = np.nan
    fields_residual: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        lines = [f"validation of {self.name}:",
                 f"  grad(phi) vs finite differences : {self.grad_phi_residual:.3e}",
                 f"  min beta on samples             : {self.beta_min:.3e}",
                 f"  [u] - g_D on interface          : {self.jump_value_residual:.3e}",
                 f"  [beta grad u . n] - g_N         : {self.jump_flux_residual:.3e}",
                 f"  f vs -div(beta grad u) (FD)     : {self.source_residual:.3e}",
                 f"  joint fields vs closures        : {self.fields_residual:.3e}"]
        for fmsg in self.failures:
            lines.append("  FAILED: " + fmsg)
        if self.ok:
            lines.append("  all checks passed")
        return "\n".join(lines)


def _fd_source(prob: ProblemSpec, pts: np.ndarray, side: str, h: float) -> np.ndarray:
    """-div(beta grad u) by 4th-order central differences, one-sided fields."""
    u = prob.u_plus if side == "+" else prob.u_minus
    beta = prob.beta_plus if side == "+" else prob.beta_minus

    def dx(f, axis):
        e = np.zeros(2)
        e[axis] = h
        return (-f(pts + 2 * e) + 8 * f(pts + e) - 8 * f(pts - e) + f(pts - 2 * e)) / (12 * h)

    def dxx(f, axis):
        e = np.zeros(2)
        e[axis] = h
        return (-f(pts + 2 * e) + 16 * f(pts + e) - 30 * f(pts)
                + 16 * f(pts - e) - f(pts - 2 * e)) / (12 * h ** 2)

    div = (dx(beta, 0) * dx(u, 0) + dx(beta, 1) * dx(u, 1)
           + beta(pts) * (dxx(u, 0) + dxx(u, 1)))
    return -div


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


def _relative_gap(got, want) -> float:
    """Largest |got - want| / max(1, |want|); inf when the shapes differ or a
    value is NaN."""
    got, want = np.asarray(got, float), np.asarray(want, float)
    if got.shape != want.shape:
        return np.inf
    gap = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0)
    return float(np.nan_to_num(gap, nan=np.inf))


def validate(prob: ProblemSpec, n_interface: int = 64, n_source: int = 100,
             seed: int = 0, strict: bool = True) -> ValidationReport:
    """Certify a problem spec; raises ValidationError when strict and a
    residual exceeds its tolerance."""
    rng = np.random.default_rng(seed)
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
    if rep.grad_phi_residual > 1e-6:
        rep.failures.append("level-set gradient inconsistent with finite differences")

    # coefficient bounds
    rep.beta_min = float(min(np.min(prob.beta_plus(pts)), np.min(prob.beta_minus(pts))))
    if not np.isfinite(rep.beta_min) or rep.beta_min <= 0:
        rep.failures.append("beta not bounded below by a positive constant")

    # jump conditions on the interface, with the exact unit normal
    gpts = interface_points(prob.levelset, prob.domain, n_interface, seed=seed)
    n = prob.levelset.unit_normal(gpts)
    ju = prob.u_plus(gpts) - prob.u_minus(gpts) - prob.g_D(gpts)
    rep.jump_value_residual = float(np.max(np.abs(ju)))
    flux = (prob.beta_plus(gpts) * np.einsum("ij,ij->i", prob.grad_u_plus(gpts), n)
            - prob.beta_minus(gpts) * np.einsum("ij,ij->i", prob.grad_u_minus(gpts), n)
            - prob.g_N(gpts))
    rep.jump_flux_residual = float(np.max(np.abs(flux)))
    if rep.jump_value_residual > 1e-8:
        rep.failures.append("solution jump does not match g_D on the interface")
    if rep.jump_flux_residual > 1e-8:
        rep.failures.append("flux jump does not match g_N on the interface")

    # source consistency, side by side; a joint (f, u, grad u) callable must
    # give the three closures' values on the same points
    worst = 0.0
    for side in ("+", "-"):
        spts = _sample_side(prob, side, n_source, prob.fd_step, rng)
        fd = _fd_source(prob, spts, side, prob.fd_step)
        f = prob.f_plus(spts) if side == "+" else prob.f_minus(spts)
        fscale = max(1.0, float(np.median(np.abs(f))))
        res = np.abs(fd - f) / np.maximum(fscale, np.abs(f))
        worst = max(worst, float(np.max(res)))
        joint = prob.fields_plus if side == "+" else prob.fields_minus
        if joint is not None:
            u, grad = ((prob.u_plus, prob.grad_u_plus) if side == "+"
                       else (prob.u_minus, prob.grad_u_minus))
            for got, want in zip(joint(spts), (f, u(spts), grad(spts))):
                rep.fields_residual = max(rep.fields_residual, _relative_gap(got, want))
    rep.source_residual = worst
    if rep.source_residual > 1e-5:
        rep.failures.append("source term inconsistent with -div(beta grad u)")
    if rep.fields_residual > 1e-12:
        rep.failures.append("joint fields callable disagrees with f, u and grad u")

    if strict and not rep.ok:
        raise ValidationError(rep)
    return rep
