"""The masked closures of example 1 that the gather-free ones replaced, kept
as the reference they are checked against bit for bit.

``masked_fields(beta)`` returns (u, grad, f) of the side whose coefficient
is beta, each evaluating the bump and dividing by r only at the points where
that is defined, through boolean gathers.
"""
import numpy as np

R0, ETA = 0.5, 0.45


def bump(r):
    """j, j', j'' of the C-infinity bump in the radial variable."""
    w = (r - R0) / ETA
    inside = np.abs(w) < 1.0 - 1e-12
    j = np.zeros_like(r)
    j1 = np.zeros_like(r)
    j2 = np.zeros_like(r)
    wi = w[inside]
    s = 1.0 - wi ** 2
    g = np.exp(-1.0 / s)
    q1 = -2.0 * wi / s ** 2
    q2 = -2.0 / s ** 2 - 8.0 * wi ** 2 / s ** 3
    j[inside] = g
    j1[inside] = g * q1 / ETA
    j2[inside] = g * (q1 ** 2 + q2) / ETA ** 2
    return j, j1, j2


def radial(x, beta):
    x = np.asarray(x, float)
    r = np.hypot(x[..., 0], x[..., 1])
    j, j1, j2 = bump(r)
    v = 1.0 + (r ** 2 - R0 ** 2) / beta
    v1 = 2.0 * r / beta
    v2 = 2.0 / beta
    R = j * v
    R1 = j1 * v + j * v1
    R2 = j2 * v + 2.0 * j1 * v1 + j * v2
    return r, R, R1, R2


def masked_fields(beta):
    """(u, grad u, f) of example 1 on the side with coefficient beta."""
    def u(x):
        r, R, _, _ = radial(x, beta)
        out = np.zeros_like(r)
        m = r > 0
        out[m] = R[m] * x[m][..., 1] / r[m]
        return out

    def grad(x):
        x = np.asarray(x, float)
        r, R, R1, _ = radial(x, beta)
        out = np.zeros(r.shape + (2,))
        m = r > 0
        xm = x[m]
        rm = r[m]
        sin = xm[..., 1] / rm
        cos = xm[..., 0] / rm
        out[m, 0] = sin * cos * (R1[m] - R[m] / rm)
        out[m, 1] = R1[m] * sin ** 2 + (R[m] / rm) * cos ** 2
        return out

    def f(x):
        r, R, R1, R2 = radial(x, beta)
        out = np.zeros_like(r)
        m = r > 0
        sin = np.asarray(x, float)[m][..., 1] / r[m]
        out[m] = -beta * (R2[m] + R1[m] / r[m] - R[m] / r[m] ** 2) * sin
        return out

    return u, grad, f
