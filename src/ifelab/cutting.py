"""Whole-mesh interface layout: shared edge crossings, element classes, cuts.

``build_layout`` is the only place that decides whether an element is cut
and by which chord.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .geometry import (
    INTERFACE,
    INTERIOR_MINUS,
    INTERIOR_PLUS,
    CutElement,
    GeometryError,
    LevelSet,
    MeshResolutionError,
    chord_cut,
    edge_cuts_batch,
    on_interface_vertices,
)


@dataclass
class CutLayout:
    """Classification of every element plus cut data for interface elements.

    Edge crossings are computed once per edge and shared by both adjacent
    elements, so the chord polyline is globally consistent.
    """

    classes: np.ndarray                 # (n_elem,) INTERIOR_PLUS/MINUS or INTERFACE
    cuts: Dict[int, CutElement]         # elem id -> cut data
    interface_edges: np.ndarray         # sorted ids of open-edge crossings
    crossings: np.ndarray               # (n_iface, 2) their crossing points


def _element_cut_config(e: int, nv: int, open_edges, on_gamma):
    """Decide the chord of element e from its boundary's contacts with the interface.

    open_edges: local edges with an open (unsnapped) crossing; on_gamma: set of
    local vertices on the interface, flagged directly or snapped onto.
    Returns None for a non-interface element, else (loc_d, loc_e). The
    interface enters the element interior through two open-edge crossings,
    or through one paired with a vertex not on that edge; a vertex-only touch
    leaves the element uncut.
    """
    if len(open_edges) > 2:
        raise MeshResolutionError(
            f"element {e} has more than two cut edges; mesh too coarse for interface")
    if len(open_edges) == 2:
        if on_gamma:
            raise MeshResolutionError(
                f"element {e}: boundary meets the interface at more than two points")
        return ("edge", open_edges[0]), ("edge", open_edges[1])
    if len(open_edges) == 1:
        if not on_gamma:
            raise GeometryError(
                f"element {e}: single-edge crossing without a matching vertex touch")
        if len(on_gamma) > 1:
            raise MeshResolutionError(
                f"element {e}: boundary meets the interface at more than two points")
        ie = open_edges[0]
        iv = on_gamma.pop()
        if iv in (ie, (ie + 1) % nv):
            raise MeshResolutionError(
                f"element {e}: edge closure meets the interface twice; mesh too coarse")
        return ("vertex", iv), ("edge", ie)
    return None


def build_layout(mesh, ls: LevelSet) -> CutLayout:
    """Classify every element of the mesh against ls and cut the interface elements.

    Non-interface elements take the sign of phi at their centroid (the sum
    over their vertices on a tie). Each cut is oriented so that n_h points
    toward phi > 0.
    """
    nodes = mesh.nodes
    p0 = nodes[mesh.edges[:, 0]]
    p1 = nodes[mesh.edges[:, 1]]
    has_cut, t, snapped, endpoint = edge_cuts_batch(p0, p1, ls)
    vertex_flags = on_interface_vertices(nodes, ls, mesh.h)

    open_cut = has_cut & ~snapped
    points = p0 + t[:, None] * (p1 - p0)

    # candidates: any element touching a cut edge or an on-interface node
    touched = np.zeros(mesh.n_elements, dtype=bool)
    adjacent = mesh.edge_elems[has_cut].ravel()
    touched[adjacent[adjacent >= 0]] = True
    touched |= vertex_flags[mesh.elements].any(axis=1)

    phi_centroid = np.asarray(ls.phi(mesh.element_centroids()), float)
    phi_nodes = np.asarray(ls.phi(nodes), float)
    classes = np.where(phi_centroid >= 0, INTERIOR_PLUS, INTERIOR_MINUS)
    tie = phi_centroid == 0.0
    if np.any(tie):
        vsum = phi_nodes[mesh.elements].sum(axis=1)
        classes[tie] = np.where(vsum[tie] >= 0, INTERIOR_PLUS, INTERIOR_MINUS)

    chords = []
    nv = mesh.elements.shape[1]
    for e in map(int, np.nonzero(touched)[0]):
        vids = mesh.elements[e]
        gids = mesh.elem_edges[e]
        open_edges = [i for i in range(nv) if open_cut[gids[i]]]
        on_gamma = {i for i in range(nv) if vertex_flags[vids[i]]}
        # a snapped crossing touches the local vertex that carries its endpoint
        on_gamma |= {i if vids[i] == mesh.edges[gids[i], endpoint[gids[i]]] else (i + 1) % nv
                     for i in range(nv) if snapped[gids[i]]}
        cfg = _element_cut_config(e, nv, open_edges, on_gamma)
        if cfg is not None:
            loc_d, loc_e = cfg
            D = nodes[vids[loc_d[1]]].copy() if loc_d[0] == "vertex" else points[gids[loc_d[1]]]
            chords.append((e, cfg, D, points[gids[loc_e[1]]]))

    # D and E lie on the interface, so a small step off both along the
    # candidate normal resolves the side even where the chord midpoint sits
    # O(h^2) off it; phi is evaluated once, on the probes of every cut
    ids = np.array([c[0] for c in chords], dtype=int)
    ends = np.array([c[2:] for c in chords]).reshape(-1, 2, 2)
    chord = ends[:, 1] - ends[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):  # chord_cut rejects |DE| ~ 0
        u = chord / np.linalg.norm(chord, axis=1)[:, None]
    n_h = np.stack([u[:, 1], -u[:, 0]], axis=1)
    verts = nodes[mesh.elements[ids]]
    h_T = np.sqrt(((verts[:, :, None] - verts[:, None]) ** 2).sum(-1)).max(axis=(1, 2))
    probe = np.asarray(ls.phi(ends + (1e-3 * h_T)[:, None, None] * n_h[:, None]), float)
    plus = probe.sum(axis=1)

    cuts: Dict[int, CutElement] = {}
    for (e, (loc_d, loc_e), D, E), v, s in zip(chords, verts, plus):
        cuts[e] = chord_cut(e, v, loc_d, D, loc_e, E, plus_side=lambda n, h, s=s: s)
        classes[e] = INTERFACE

    iface_edges = np.nonzero(open_cut)[0]
    layout = CutLayout(classes, cuts, iface_edges, points[iface_edges])
    _check_interface_edge_neighbors(mesh, layout)
    return layout


def _check_interface_edge_neighbors(mesh, layout: CutLayout):
    """Every interior cut edge must sit between two interface elements."""
    for eid in layout.interface_edges:
        for t_adj in mesh.edge_elems[eid]:
            if t_adj >= 0 and layout.classes[t_adj] != INTERFACE:
                raise GeometryError(
                    f"edge {int(eid)} is crossed by the interface but element "
                    f"{int(t_adj)} is not an interface element; mesh too coarse")
