"""Uniform unfitted triangular and rectangular meshes with edge-based DOFs.

The triangular mesh cuts each grid cell along the diagonal from its top-left
to its bottom-right corner, so a straight interface along x1 = x2 crosses the
diagonals transversally (the configuration the straight-interface benchmark
needs). One degree of freedom lives on each edge (its mean value); boundary
edges are the constrained set. Every element lists its vertices
counter-clockwise and every edge keeps its direction in the walk around its
first element T1, so its right-hand normal points out of T1 with no check.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np


@dataclass
class UnfittedMesh:
    nodes: np.ndarray         # (n_nodes, 2)
    elements: np.ndarray      # (n_elem, 3|4) CCW vertex indices
    edges: np.ndarray         # (n_edges, 2) node indices
    edge_elems: np.ndarray    # (n_edges, 2) adjacent elements, T2 = -1 on boundary
    elem_edges: np.ndarray    # (n_elem, 3|4) global edge id of local edge (v_i, v_{i+1})
    edge_normals: np.ndarray  # (n_edges, 2) unit normal pointing out of T1
    edge_lengths: np.ndarray  # (n_edges,)
    boundary_edges: np.ndarray  # bool mask
    box: tuple                # (x0, x1, y0, y1)
    h: float                  # max element diameter
    kappa: float = 1.0        # |e1|/|e2|, the side ratio of the grid cells

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edges.shape[0]

    def element_vertices(self, e: int) -> np.ndarray:
        return self.nodes[self.elements[e]]

    def element_centroids(self) -> np.ndarray:
        return _vertex_means(self.nodes, self.elements)

    def congruence_classes(self):
        """Element ids grouped by congruent shape (tri: 2 groups, rect: 1)."""
        ids = np.arange(self.n_elements)
        if self.elements.shape[1] == 3:
            return [ids[ids % 2 == 0], ids[ids % 2 == 1]]
        return [ids]


def _vertex_means(nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Mean of each element's vertices, summed vertex by vertex and divided
    by their count: the bits of .mean(axis=1) on the (n, nv, 2) gather,
    without its slow reduction over an axis of length nv. Each coordinate
    is gathered on its own, which costs a fraction of a gather of rows."""
    means = [reduce(np.add, (x[v] for v in elements.T)) for x in nodes.T]
    return np.column_stack(means) / elements.shape[1]


def _connect(nodes: np.ndarray, elements: np.ndarray):
    """Edge table, element adjacency and outward normals from connectivity.

    Edges are numbered in order of first appearance in an element-major walk
    over the local edges (v_i, v_{i+1}), keep the orientation of that first
    appearance, and list the first element that has them as T1 and the last
    as T2. One stable sort of the edge keys groups each edge's appearances
    in walk order, so its first and last are the ends of its group.
    """
    n_elem, nv = elements.shape
    a = elements.ravel()
    b = np.roll(elements, -1, axis=1).ravel()
    keys = np.minimum(a, b) * len(nodes) + np.maximum(a, b)
    walk = np.argsort(keys, kind="stable")
    head = np.diff(keys[walk], prepend=-1) != 0  # first of its group; keys >= 0
    starts = np.flatnonzero(head)
    first, last = walk[starts], walk[np.append(starts[1:], keys.size) - 1]
    order = np.argsort(first)
    eid = np.empty_like(order)
    eid[order] = np.arange(order.size)
    elem_edges = np.empty_like(walk)
    elem_edges[walk] = eid[np.cumsum(head) - 1]
    first, last = first[order], last[order]
    edges = np.column_stack([a[first], b[first]])
    edge_elems = np.column_stack([first // nv, np.where(last > first, last // nv, -1)])

    # coordinate by coordinate, the lengths summed as np.linalg.norm does
    vx, vy = (x[edges[:, 1]] - x[edges[:, 0]] for x in nodes.T)
    lengths = np.sqrt(vx * vx + vy * vy)
    normals = np.column_stack([vy / lengths, -vx / lengths])
    boundary = edge_elems[:, 1] < 0
    return edges, edge_elems, elem_edges.reshape(n_elem, nv), normals, lengths, boundary


def _grid(N: int, box):
    """Nodes of the (N+1) x (N+1) grid, x fastest, and the lower-left node
    id of each cell, row by row."""
    if N < 1:
        raise ValueError("N must be >= 1")
    x0, x1, y0, y1 = box
    X, Y = np.meshgrid(np.linspace(x0, x1, N + 1), np.linspace(y0, y1, N + 1),
                       indexing="xy")
    nodes = np.column_stack([X.ravel(), Y.ravel()])
    j, i = np.divmod(np.arange(N * N, dtype=np.int64), N)
    return nodes, j * (N + 1) + i


def _grid_mesh(nodes, elements, N: int, box) -> UnfittedMesh:
    """The mesh of the elements on the N x N grid nodes of box."""
    x0, x1, y0, y1 = box
    hx, hy = (x1 - x0) / N, (y1 - y0) / N
    return UnfittedMesh(nodes, elements, *_connect(nodes, elements), tuple(box),
                        h=float(np.hypot(hx, hy)), kappa=hx / hy)


def build_uniform_tri(N: int, box=(-1.0, 1.0, -1.0, 1.0)) -> UnfittedMesh:
    """N x N grid of congruent cells, each split along its top-left/bottom-right
    diagonal; 2*N^2 right triangles, 3*N^2 + 2*N edges."""
    nodes, p00 = _grid(N, box)
    p10, p01 = p00 + 1, p00 + N + 1
    p11 = p01 + 1
    # below the p10-p01 diagonal, then above it
    elements = np.stack([np.column_stack([p00, p10, p01]),
                         np.column_stack([p10, p11, p01])], axis=1).reshape(-1, 3)
    return _grid_mesh(nodes, elements, N, box)


def build_uniform_rect(N: int, box=(-1.0, 1.0, -1.0, 1.0)) -> UnfittedMesh:
    """N x N congruent axis-aligned rectangles, 2*N*(N+1) edges."""
    nodes, p00 = _grid(N, box)
    p01 = p00 + N + 1
    return _grid_mesh(nodes, np.column_stack([p00, p00 + 1, p01 + 1, p01]), N, box)
