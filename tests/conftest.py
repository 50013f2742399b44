from dataclasses import replace

import numpy as np
import pytest

from ifelab.geometry import INTERFACE, LevelSet
from ifelab.ife_space import _dof_rows, evaluate, jump_corrections
from ifelab.mesh import UnfittedMesh, _connect
from ifelab.quadrature import segment_rule

from cut_reference import as_element, element_size


def pytest_terminal_summary(terminalreporter):
    """Echo the acceptance pass/fail lines in every run mode."""
    import _acceptance_log

    if _acceptance_log.RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_log.RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture
def circle_ls():
    """Circle of radius 0.5 centered at the origin (negative inside)."""
    return LevelSet(
        phi=lambda x: x[..., 0] ** 2 + x[..., 1] ** 2 - 0.25,
        grad=lambda x: 2.0 * np.asarray(x, float),
    )


@pytest.fixture
def diagonal_ls():
    """Straight interface along x1 = x2 (positive below the diagonal)."""
    s = 1.0 / np.sqrt(2.0)
    return LevelSet(
        phi=lambda x: (x[..., 0] - x[..., 1]) * s,
        grad=lambda x: np.broadcast_to(np.array([s, -s]), np.asarray(x).shape).copy(),
    )


def circle_levelset(cx, cy, r) -> LevelSet:
    """Circle of radius r about (cx, cy), negative inside."""
    centre = np.array([cx, cy])
    return LevelSet(phi=lambda x: ((np.asarray(x, float) - centre) ** 2).sum(-1) - r * r,
                    grad=lambda x: 2.0 * (np.asarray(x, float) - centre))


def ellipse_levelset(cx, cy, a, b, angle) -> LevelSet:
    """Ellipse with semi-axes a, b about (cx, cy), turned by angle, negative inside."""
    centre = np.array([cx, cy])
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    scale = np.array([a, b]) ** -2.0

    def local(x):  # coordinates along the ellipse axes
        return (np.asarray(x, float) - centre) @ rot

    return LevelSet(phi=lambda x: (local(x) ** 2 * scale).sum(-1) - 1.0,
                    grad=lambda x: (2.0 * local(x) * scale) @ rot.T)


def one_element_mesh(verts) -> UnfittedMesh:
    """Mesh of the single element verts (CCW), with h its diameter.

    ``build_layout(one_element_mesh(verts), ls)`` cuts one element by the
    same path that cuts a whole mesh.
    """
    nodes = np.asarray(verts, float)
    elements = np.arange(len(nodes))[None, :]
    (x0, y0), (x1, y1) = nodes.min(axis=0), nodes.max(axis=0)
    return UnfittedMesh(nodes, elements, *_connect(nodes, elements),
                        box=(x0, x1, y0, y1), h=element_size(nodes))


def edge_mean_of(func, a, b, split=None, npts: int = 5) -> float:
    """Mean of a scalar function along an edge, optionally split at one point."""
    a = np.asarray(a, float)
    b = np.asarray(b, float)
    rule = segment_rule(npts)
    total = 0.0
    segs = [(a, b)] if split is None else [(a, np.asarray(split, float)),
                                          (np.asarray(split, float), b)]
    for p, q in segs:
        seg = np.linalg.norm(q - p)
        if seg == 0.0:
            continue
        pts = p + rule.points * (q - p)
        total += float(rule.weights @ np.asarray(func(pts), float)) * seg
    return total / np.linalg.norm(b - a)


def standard_at(lam, verts, x, kappa=1.0):
    """Values (..., m) and gradients (..., m, 2) at x of the uncut basis
    coefficients lam (m, 4) of the element verts."""
    x = np.asarray(x, float)
    return evaluate(lam, x[..., None, :], np.asarray(verts, float).mean(axis=0), kappa)


def basis_at(basis, x):
    """Values (..., m) and gradients (..., m, 2) at x of an immersed basis,
    each point taking the piece of its side of the chord."""
    x = np.asarray(x, float)
    piece = (as_element(basis.cut).side_of(x) < 0).astype(int)
    return evaluate(np.moveaxis(basis.coef, 1, 0)[piece], x[..., None, :],
                    basis.center, basis.kappa)


def table_basis_at(ctx, elem, x):
    """basis_at for the immersed basis of element elem as ctx.cut_table
    stores it: coefficients tab.coef and centre tab.centers of its row."""
    tab = ctx.cut_table
    row = tab.row[elem]
    x = np.asarray(x, float)
    piece = (as_element(ctx.layout.cuts, row).side_of(x) < 0).astype(int)
    return evaluate(np.moveaxis(tab.coef[row], 1, 0)[piece], x[..., None, :],
                    tab.centers[row], ctx.mesh.kappa)


def edge_splits(layout) -> dict:
    """Interface crossing point of each interface edge of a layout, by edge id."""
    return {int(e): x for e, x in zip(layout.interface_edges, layout.crossings)}


def cut_edges(mesh, cut) -> tuple:
    """Global ids of the edges carrying a CutElement's chord endpoints, D's first."""
    return tuple(int(mesh.elem_edges[cut.elem_id, i])
                 for kind, i in (cut.loc_d, cut.loc_e) if kind == "edge")


def lifted_field(ctx, elems, coeffs, elem):
    """The lifted field sum_k coeffs_k grad(phi_k) of one edge on its
    adjacent element elem, at that element's cut-table points; elems and
    coeffs are the edge's rows of EdgeTable.elems and of lift_trace.

    Returns (sel, r): the mask of elem's points in ctx.cut_table and the
    field there, (n_sel, 2).
    """
    tab = ctx.cut_table
    nb = tab.coef.shape[1] - 1
    off = list(elems).index(elem) * nb
    sel = tab.owner == tab.row[elem]
    return sel, np.einsum("k,qkd->qd", coeffs[off:off + nb], tab.grads[sel, :nb])


def edge_midpoints(mesh) -> np.ndarray:
    """Midpoints (n_edges, 2) of the mesh edges."""
    return 0.5 * (mesh.nodes[mesh.edges[:, 0]] + mesh.nodes[mesh.edges[:, 1]])


def interface_elements(layout) -> np.ndarray:
    """Ids of the elements a layout classifies as cut."""
    return np.nonzero(layout.classes == INTERFACE)[0]


def check_monotone(table, slack: float = 1.05, floor: float = 1e-10) -> bool:
    """Errors of a ConvergenceTable non-increasing with refinement, ignoring
    rows at the solver-tolerance floor."""
    for prev, cur in zip(table.rows, table.rows[1:]):
        for a, b in ((prev.l2, cur.l2), (prev.h1, cur.h1)):
            if max(a, b) > floor and b > slack * a:
                return False
    return True


def side_field(prob, plus, x, i: int) -> np.ndarray:
    """Component i of the exact fields (f, u, grad u) at the points x, from
    fields_plus where the mask plus holds and fields_minus elsewhere."""
    x = np.asarray(x, float)
    out = np.empty(x.shape[:-1] + ((2,) if i == 2 else ()))
    for m, fields in ((plus, prob.fields_plus), (~plus, prob.fields_minus)):
        if m.any():
            out[m] = fields(x[m])[i]
    return out


def corrupted_source(prob, scale: float = 1.0, offset: float = 0.0):
    """prob with the plus side's source f replaced by scale * f + offset, its
    u and grad u kept."""
    fields = prob.fields_plus

    def bad(x):
        f, u, du = fields(x)
        return scale * f + offset, u, du

    return replace(prob, fields_plus=bad)


def grad_u_exact(prob, x) -> np.ndarray:
    """Gradient of a problem's exact solution, the branch chosen by phi."""
    x = np.asarray(x, float)
    return side_field(prob, np.asarray(prob.levelset.phi(x)) >= 0, x, 2)


def jump_correction_local(basis, g_D, g_N) -> np.ndarray:
    """Jump correction (2, 4) on one immersed basis: jump_corrections on a
    batch of one element, g_D and g_N given at the chord endpoints (D, E)."""
    cut = basis.cut
    return jump_corrections(basis.coef[None], _dof_rows(cut, basis.kappa),
                            basis.center[None], np.stack([cut.D, cut.E], axis=1), cut.n_h,
                            np.array([basis.beta_c_plus]),
                            np.broadcast_to(np.asarray(g_D, float), 2)[None],
                            np.broadcast_to(np.asarray(g_N, float), 2)[None])[0]
