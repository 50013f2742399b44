import numpy as np
import pytest

from ifelab.geometry import LevelSet, element_size
from ifelab.mesh import UnfittedMesh, _connect


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


def one_element_mesh(verts) -> UnfittedMesh:
    """Mesh of the single element verts (CCW), with h its diameter.

    ``build_layout(one_element_mesh(verts), ls)`` cuts one element by the
    same path that cuts a whole mesh.
    """
    nodes = np.asarray(verts, float)
    elements = np.arange(len(nodes))[None, :]
    edges, edge_elems, elem_edges, normals, lengths, boundary = _connect(nodes, elements)
    (x0, y0), (x1, y1) = nodes.min(axis=0), nodes.max(axis=0)
    return UnfittedMesh("tri" if len(nodes) == 3 else "rect", nodes, elements, edges,
                        edge_elems, elem_edges, normals, lengths, boundary, N=1,
                        box=(x0, x1, y0, y1), h=element_size(nodes))
