"""Whole-mesh interface layout: shared edge crossings, element classes, cuts.

``build_layout`` is the only place that decides whether an element is cut
and by which chord. It scans only the edges in a band around the interface
for crossings, and cuts all the elements with one ``geometry.chord_cuts``
call.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    INTERFACE,
    INTERIOR_MINUS,
    INTERIOR_PLUS,
    Cuts,
    GeometryError,
    LevelSet,
    MeshResolutionError,
    chord_cuts,
    edge_cuts_batch,
    on_interface_vertices,
)

# c of the band of scanned edges: see build_layout
BAND = 2.0


@dataclass
class CutLayout:
    """Classification of every element plus cut data for interface elements.

    Edge crossings are computed once per edge and shared by both adjacent
    elements, so the chord polyline is globally consistent.
    """

    classes: np.ndarray                 # (n_elem,) INTERIOR_PLUS/MINUS or INTERFACE
    cuts: Cuts                          # the interface elements, in ascending id
    interface_edges: np.ndarray         # sorted ids of open-edge crossings
    crossings: np.ndarray               # (n_iface, 2) their crossing points


def build_layout(mesh, ls: LevelSet) -> CutLayout:
    """Classify every element of the mesh against ls and cut the interface elements.

    Non-interface elements take the sign of phi at their centroid (the sum
    over their vertices on a tie). The interface enters an element through
    two open-edge crossings, or through one paired with a vertex not on that
    edge. A vertex-only touch leaves it uncut, except on a rectangle whose
    two on-interface vertices are opposite and whose other two vertices have
    opposite signs of phi: that rectangle is cut along the diagonal. Any
    other contact raises for the first such element in id order. Each cut
    is oriented so that n_h points toward phi > 0.

    phi and |grad phi| are evaluated once at the nodes; they flag the
    on-interface vertices and select the edges that edge_cuts_batch scans:
    those whose end values differ in sign, or whose smaller |phi| is at most
    BAND |e| max|grad phi| over the two ends. Every other edge is taken as
    uncrossed. For a convex phi (a circle, an ellipse or a line, as in ex1,
    ex3 and ex4) this misses nothing whenever BAND >= 1: along an edge from
    p with |phi(p)| above |e| |grad phi(p)|, phi stays above phi(p) - |e|
    |grad phi(p)| > 0 if phi(p) > 0, and below the larger end value < 0
    otherwise. BAND = 2 keeps that bound a further |e| |grad phi| clear of
    roundoff in the sampled values. For a non-convex phi (ex2) the band gives
    up any edge that the interface enters and leaves again between two ends
    far from it: the full scan reports that edge as crossed twice
    (MeshResolutionError) when a sample falls between the crossings, the
    band as uncrossed. On ex1-ex4 on triangles and rectangles with N <= 512
    the band gives the full scan's layout bit for bit.
    """
    nodes = mesh.nodes
    phi_nodes = np.asarray(ls.phi(nodes), float)
    grad_nodes = np.linalg.norm(np.asarray(ls.grad(nodes), float), axis=-1)
    vertex_flags = on_interface_vertices(phi_nodes, grad_nodes, mesh.h)

    ends = mesh.edges.T
    phi_a, phi_b = phi_nodes[ends]
    near = np.minimum(np.abs(phi_a), np.abs(phi_b)) \
        <= BAND * mesh.edge_lengths * grad_nodes[ends].max(axis=0)
    scan = np.nonzero(((phi_a < 0) != (phi_b < 0)) | near)[0]
    p0 = nodes[mesh.edges[scan, 0]]
    p1 = nodes[mesh.edges[scan, 1]]
    n = mesh.n_edges
    has_cut, snapped = np.zeros(n, bool), np.zeros(n, bool)
    t, endpoint = np.zeros(n), np.zeros(n, int)
    has_cut[scan], t[scan], snapped[scan], endpoint[scan] = edge_cuts_batch(p0, p1, ls)
    open_cut = has_cut & ~snapped
    points = np.zeros((n, 2))
    points[scan] = p0 + t[scan, None] * (p1 - p0)

    phi_centroid = np.asarray(ls.phi(mesh.element_centroids()), float)
    classes = np.where(phi_centroid >= 0, INTERIOR_PLUS, INTERIOR_MINUS)
    tie = phi_centroid == 0.0
    if np.any(tie):
        vsum = phi_nodes[mesh.elements].sum(axis=1)
        classes[tie] = np.where(vsum[tie] >= 0, INTERIOR_PLUS, INTERIOR_MINUS)

    # an element with an open crossing is cut below or raises, so both
    # neighbours of every interface edge are interface elements; a rectangle
    # touched at two or more vertices is a candidate for a diagonal cut.
    # Count each candidate's crossed local edges and its local vertices on
    # the interface, flagged directly or carrying the endpoint a crossing
    # snapped onto
    nv = mesh.elements.shape[1]
    candidate = open_cut[mesh.elem_edges].any(axis=1)
    if nv == 4:
        touched = vertex_flags.copy()
        touched[mesh.edges[snapped, endpoint[snapped]]] = True
        candidate |= touched[mesh.elements].sum(axis=1) >= 2
    ids = np.nonzero(candidate)[0]
    vids = mesh.elements[ids]
    gids = mesh.elem_edges[ids]
    crossed = open_cut[gids]
    snap = snapped[gids]
    at_start = mesh.edges[gids, endpoint[gids]] == vids
    on_gamma = vertex_flags[vids] | (snap & at_start) | np.roll(snap & ~at_start, 1, axis=1)
    n_open = crossed.sum(axis=1)
    n_gamma = on_gamma.sum(axis=1)
    first = np.argmax(crossed, axis=1)
    last = nv - 1 - np.argmax(crossed[:, ::-1], axis=1)
    iv = np.argmax(on_gamma, axis=1)
    one = n_open == 1
    faults = [
        (n_open > 2, MeshResolutionError,
         "element {} has more than two cut edges; mesh too coarse for interface"),
        (((n_open == 2) & (n_gamma > 0)) | (one & (n_gamma > 1)), MeshResolutionError,
         "element {}: boundary meets the interface at more than two points"),
        (one & (n_gamma == 0), GeometryError,
         "element {}: single-edge crossing without a matching vertex touch"),
        (one & (n_gamma == 1) & ((iv == first) | (iv == (first + 1) % nv)), MeshResolutionError,
         "element {}: edge closure meets the interface twice; mesh too coarse"),
    ]
    bad = np.array([mask for mask, _, _ in faults]).reshape(len(faults), -1)
    if bad.any():
        i = int(np.argmax(bad.any(axis=0)))
        _, cls, msg = faults[int(np.argmax(bad[:, i]))]
        raise cls(msg.format(ids[i]))

    # a rectangle without open crossings whose on-interface vertices are
    # opposite and whose other two vertices lie on opposite sides is split
    # through its interior, so it is cut along that diagonal; the other
    # candidates without open crossings stay uncut
    rows = np.arange(len(ids))
    opposite = (iv + 2) % nv
    phi_v = phi_nodes[vids]
    diag = (nv == 4) & (n_open == 0) & (n_gamma == 2) & on_gamma[rows, opposite] \
        & ((phi_v[rows, (iv + 1) % nv] < 0) != (phi_v[rows, (iv + 3) % nv] < 0))

    # D sits on the first crossed edge, or on the touched vertex when only
    # one edge is crossed or the cut is diagonal; E on the last crossed edge,
    # or on the vertex opposite D
    vertex_d = one | diag
    loc_d = np.where(vertex_d, 2 * iv, 2 * first + 1)
    loc_e = np.where(diag, 2 * opposite, 2 * last + 1)
    D = np.where(vertex_d[:, None], nodes[vids[rows, iv]], points[gids[rows, first]])
    E = np.where(diag[:, None], nodes[vids[rows, opposite]], points[gids[rows, last]])
    keep = (n_open > 0) | diag
    ids, vids, loc_d, loc_e, D, E = (a[keep] for a in (ids, vids, loc_d, loc_e, D, E))

    # D and E lie on the interface, so a small step off both along the
    # candidate normal resolves the side even where the chord midpoint sits
    # O(h^2) off it
    def plus_side(n_h, h_T):
        ends = np.stack([D, E], axis=1)
        return np.asarray(ls.phi(ends + (1e-3 * h_T)[:, None, None] * n_h[:, None]),
                          float).sum(axis=1)

    cuts = chord_cuts(ids, nodes[vids], loc_d, D, loc_e, E, plus_side)
    classes[ids] = INTERFACE
    iface_edges = np.nonzero(open_cut)[0]
    return CutLayout(classes, cuts, iface_edges, points[iface_edges])
