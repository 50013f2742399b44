"""The per-element cut walk that the batched layout replaced, kept as the
reference the batched code is checked against.

``reference_layout(mesh, ls)`` scans every edge of the mesh for crossings,
decides the chord of each touched element from its own crossed edges and
on-interface vertices (``element_cut_config``) and cuts it with
``chord_cut``, which splits the element by walking its boundary
(``split_by_chord``). ``sign_change_spans`` is the column loop of
the sample scan in ``geometry.edge_cuts_batch``.

``as_element`` turns one row of a ``geometry.Cuts`` batch into the same
per-element ``CutElement``, so that tests can compare the two field by
field and read one element's cut by name.
"""
from dataclasses import dataclass
from typing import Dict

import numpy as np

from ifelab.cutting import CutLayout
from ifelab.geometry import (
    INTERFACE,
    INTERIOR_MINUS,
    INTERIOR_PLUS,
    Cuts,
    GeometryError,
    MeshResolutionError,
    edge_cuts_batch,
    on_interface_vertices,
)


def element_size(vertices) -> float:
    """Diameter of a polygon: its largest vertex distance."""
    v = np.asarray(vertices, float)
    d = v[:, None, :] - v[None, :, :]
    return float(np.sqrt((d ** 2).sum(-1)).max())


@dataclass
class CutElement:
    """Per-element interface data: chord endpoints, orientation, sub-polygons."""

    elem_id: int
    vertices: np.ndarray          # element vertex coordinates, CCW
    D: np.ndarray
    E: np.ndarray
    n_h: np.ndarray               # unit normal of chord DE, toward the plus side
    poly_plus: np.ndarray         # CCW sub-polygon on the plus side
    poly_minus: np.ndarray
    loc_d: tuple                  # ('edge', local_edge) or ('vertex', local_vertex)
    loc_e: tuple                  # ('edge', i), or ('vertex', i) opposite D's vertex
    h_T: float

    @property
    def x_p(self) -> np.ndarray:
        """Chord midpoint."""
        return 0.5 * (self.D + self.E)

    def side_of(self, x) -> np.ndarray:
        """+1 on the plus side of the chord line, -1 otherwise (ties go to +)."""
        x = np.asarray(x, float)
        s = (x - self.D) @ self.n_h
        return np.where(s >= 0.0, 1, -1)

    def splits(self) -> dict:
        """Chord endpoint inside each cut local edge, by local edge."""
        return {loc[1]: p for loc, p in ((self.loc_e, self.E), (self.loc_d, self.D))
                if loc[0] == "edge"}


def as_element(cuts: Cuts, i: int = 0) -> CutElement:
    """Row i of a Cuts batch as a CutElement."""
    def loc(p):
        return ("vertex" if p % 2 == 0 else "edge", int(p) // 2)

    start = int(cuts.sizes[:i].sum())
    plus, minus = cuts.sizes[i]
    polys = cuts.polys[start:start + plus + minus]
    return CutElement(int(cuts.ids[i]), cuts.vertices[i], cuts.D[i], cuts.E[i], cuts.n_h[i],
                      polys[:plus], polys[plus:], loc(cuts.loc_d[i]), loc(cuts.loc_e[i]),
                      element_size(cuts.vertices[i]))


def as_elements(cuts: Cuts) -> Dict[int, CutElement]:
    """Every row of a Cuts batch as a CutElement, by element id."""
    return {int(e): as_element(cuts, i) for i, e in enumerate(cuts.ids)}


def take(cuts: Cuts, i: int) -> Cuts:
    """Row i of a Cuts batch as a batch of one."""
    start = int(cuts.sizes[:i].sum())
    end = start + int(cuts.sizes[i].sum())
    one = slice(i, i + 1)
    return Cuts(cuts.ids[one], cuts.vertices[one], cuts.D[one], cuts.E[one], cuts.n_h[one],
                cuts.loc_d[one], cuts.loc_e[one], cuts.polys[start:end], cuts.sizes[one])


def sign_change_spans(values: np.ndarray):
    """Count strict sign changes per row, ignoring zeros, one column at a time.

    Returns (counts, lo, hi) where columns lo/hi bracket the first change.
    """
    s = np.sign(values)
    n = values.shape[0]
    counts = np.zeros(n, dtype=int)
    last = np.zeros(n)
    last_idx = np.full(n, -1)
    lo = np.full(n, -1)
    hi = np.full(n, -1)
    for k in range(values.shape[1]):
        sk = s[:, k]
        active = sk != 0
        change = active & (last != 0) & (sk != last)
        first = change & (counts == 0)
        lo[first] = last_idx[first]
        hi[first] = k
        counts[change] += 1
        last[active] = sk[active]
        last_idx[active] = k
    return counts, lo, hi


def split_by_chord(vertices, loc_d, D, loc_e, E, n_h):
    """Split a convex CCW polygon along the chord D-E into (plus, minus) parts."""
    nv = len(vertices)
    cycle = []
    for i in range(nv):
        if loc_d == ("vertex", i):
            cycle.append(("D", D))
        elif loc_e == ("vertex", i):
            cycle.append(("E", E))
        else:
            cycle.append((None, vertices[i]))
        for tag, loc, pt in (("D", loc_d, D), ("E", loc_e, E)):
            if loc == ("edge", i):
                cycle.append((tag, pt))
    tags = [c[0] for c in cycle]
    i_d, i_e = tags.index("D"), tags.index("E")
    m = len(cycle)

    def chain(a, b):
        out = [cycle[a][1]]
        k = a
        while k != b:
            k = (k + 1) % m
            out.append(cycle[k][1])
        return np.array(out)

    poly1 = chain(i_d, i_e)
    poly2 = chain(i_e, i_d)
    # the chain with vertices on the positive side of the chord is the plus part
    s1 = (poly1 - D) @ n_h
    if s1[np.argmax(np.abs(s1))] > 0:
        return poly1, poly2
    return poly2, poly1


def chord_cut(elem_id, vertices, loc_d, D, loc_e, E, plus_side=None) -> CutElement:
    """The CutElement of the chord D-E; n_h is flipped where
    ``plus_side(n_h, h_T)`` is negative."""
    vertices = np.asarray(vertices, float)
    D = np.asarray(D, float)
    E = np.asarray(E, float)
    h_T = element_size(vertices)
    chord = E - D
    lc = np.linalg.norm(chord)
    if lc < 1e-12 * h_T:
        raise GeometryError(f"degenerate chord |DE|={lc:.3e} in element {elem_id}")
    u = chord / lc
    n_h = np.array([u[1], -u[0]])
    if plus_side is not None and plus_side(n_h, h_T) < 0:
        n_h = -n_h
    poly_plus, poly_minus = split_by_chord(vertices, loc_d, D, loc_e, E, n_h)
    return CutElement(elem_id, vertices, D, E, n_h, poly_plus, poly_minus, loc_d, loc_e, h_T)


def element_cut_config(e: int, nv: int, open_edges, on_gamma, phi_v):
    """The chord (loc_d, loc_e) of element e from its boundary's contacts
    with the interface and phi at its vertices phi_v, or None for a
    non-interface element."""
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
    # touched only at vertices: a rectangle touched at two opposite ones is
    # split along that diagonal when the two others lie on opposite sides;
    # if they lie on one side the touch is tangent
    if nv == 4 and len(on_gamma) == 2:
        a, b = sorted(on_gamma)
        if b == a + 2 and phi_v[a + 1] * phi_v[(b + 1) % nv] < 0:
            return ("vertex", a), ("vertex", b)
    return None


def reference_layout(mesh, ls) -> CutLayout:
    """build_layout element by element: a CutLayout whose cuts are a dict of
    CutElements by element id."""
    nodes = mesh.nodes
    p0 = nodes[mesh.edges[:, 0]]
    p1 = nodes[mesh.edges[:, 1]]
    has_cut, t, snapped, endpoint = edge_cuts_batch(p0, p1, ls)
    vertex_flags = on_interface_vertices(
        np.asarray(ls.phi(nodes), float),
        np.linalg.norm(np.asarray(ls.grad(nodes), float), axis=-1), mesh.h)
    open_cut = has_cut & ~snapped
    points = p0 + t[:, None] * (p1 - p0)

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
        on_gamma |= {i if vids[i] == mesh.edges[gids[i], endpoint[gids[i]]] else (i + 1) % nv
                     for i in range(nv) if snapped[gids[i]]}
        cfg = element_cut_config(e, nv, open_edges, on_gamma, phi_nodes[vids])
        if cfg is not None:
            D, E = (nodes[vids[i]].copy() if kind == "vertex" else points[gids[i]]
                    for kind, i in cfg)
            chords.append((e, cfg, D, E))

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

    cuts = {}
    for (e, (loc_d, loc_e), D, E), v, s in zip(chords, verts, plus):
        cuts[e] = chord_cut(e, v, loc_d, D, loc_e, E, plus_side=lambda n, h, s=s: s)
        classes[e] = INTERFACE

    iface_edges = np.nonzero(open_cut)[0]
    for eid in iface_edges:
        for t_adj in mesh.edge_elems[eid]:
            if t_adj >= 0 and classes[t_adj] != INTERFACE:
                raise GeometryError(
                    f"edge {int(eid)} is crossed by the interface but element "
                    f"{int(t_adj)} is not an interface element; mesh too coarse")
    return CutLayout(classes, cuts, iface_edges, points[iface_edges])
