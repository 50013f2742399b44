"""Traced replica of the benchmark pipeline.

Spans sit around ifelab's public calls, in the order ``run_convergence`` and
``solve`` make them. Each span records its name, start, end, parent and the
id of the row it belongs to. Spans stay in memory and are written out once,
when the run ends.
"""
from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager

import numpy as np

from ifelab import (
    CR,
    assemble,
    assemble_rhs,
    basis_stress_test,
    build_context,
    build_jump_correction,
    build_layout,
    build_lifting_block,
    build_uniform_rect,
    build_uniform_tri,
    error_norms,
    ife_local_basis_cr_sm,
    ife_local_basis_direct,
    solve_spd,
)
from ifelab.experiments import random_cut, random_triangle

from workloads import RTOL

EPS = float(np.finfo(float).eps)


class Tracer:
    """In-memory spans plus counters fed by the problem-callback wrappers."""

    def __init__(self):
        self.spans = []
        self._open = []
        self._rows = 0
        self.row = None
        self.calls = 0
        self.points = 0
        self.callback_s = 0.0

    @contextmanager
    def span(self, name):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._open[-1] if self._open else None, "row": self.row}
        self.spans.append(rec)
        self._open.append(rec["id"])
        calls, points, cb = self.calls, self.points, self.callback_s
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()
            rec["calls"] = self.calls - calls
            rec["points"] = self.points - points
            rec["callback_s"] = self.callback_s - cb

    def new_row(self):
        self.row = self._rows
        self._rows += 1


def counted(prob, tracer: Tracer):
    """Copy of a ProblemSpec whose callable fields count calls, points and time.

    The copy keeps the original's name. ifelab caches validation by name, so
    the copy would pass run_convergence unvalidated: validate it yourself and
    use it only in the traced replica.
    """
    def wrap(fn):
        def wrapper(x, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(x, *args, **kwargs)
            finally:
                tracer.calls += 1
                tracer.points += max(1, np.size(x) // 2)
                tracer.callback_s += time.perf_counter() - t0
        return wrapper

    fields = {f.name: wrap(getattr(prob, f.name)) for f in dataclasses.fields(prob)
              if callable(getattr(prob, f.name))}
    return dataclasses.replace(prob, **fields)


def traced_study(tracer: Tracer, study, prob):
    """Replay run_convergence for one study under spans.

    After each row two probes run as separate calls, outside the row span:
    the lifting blocks of every interface edge and the load vector given
    those blocks. They split the assemble time and are not part of the row.
    """
    rows = []
    for N in study.Ns:
        tracer.new_row()
        with tracer.span("experiments.row") as row:
            row["label"] = f"{study.label}/N={N}"
            with tracer.span("mesh.build"):
                mesh = (build_uniform_tri(N, prob.domain) if study.kind == CR
                        else build_uniform_rect(N, prob.domain))
            with tracer.span("cutting.layout"):
                layout = build_layout(mesh, prob.levelset)
            with tracer.span("assembly.context"):
                ctx = build_context(prob, mesh, study.kind, layout=layout)
            correction = None
            if not prob.homogeneous_jumps:
                with tracer.span("assembly.correction"):
                    correction = build_jump_correction(ctx)
            with tracer.span("assembly.assemble"):
                system = assemble(ctx, study.method, correction=correction)
            with tracer.span("assembly.solve"):
                x_free, iters = solve_spd(system, rtol=RTOL)
            x = system.expand(x_free)
            with tracer.span("experiments.norms"):
                l2, h1 = error_norms(ctx, x, correction)
        blocks = []
        if study.method != "plain":
            with tracer.span("assembly.lifting_blocks"):
                blocks = [build_lifting_block(ctx, int(e)) for e in layout.interface_edges]
        with tracer.span("assembly.rhs"):
            assemble_rhs(ctx, study.method, correction=correction,
                         edge_blocks=blocks or None)
        tracer.row = None
        A, b = system.matrix, system.rhs
        bnorm = float(np.linalg.norm(b))
        residual = floor = 0.0
        if bnorm > 0:
            residual = float(np.linalg.norm(b - A @ x_free)) / bnorm
            # rounding floor of evaluating b - Ax in float64
            floor = EPS * float(np.linalg.norm(abs(A) @ np.abs(x_free))) / bnorm
        rows.append({"N": N, "l2": l2, "h1": h1, "iters": int(iters),
                     "edges": int(mesh.n_edges), "cut_elements": len(layout.cuts),
                     "interface_edges": len(layout.interface_edges),
                     "nnz": int(A.nnz), "rel_residual": residual,
                     "residual_floor": floor})
    return rows


def traced_stress(tracer: Tracer, seed: int, count: int):
    """A basis_stress_test probe under a span, then the same cases replayed
    with each basis construction timed on its own. The test builds the
    closed-form and dense local bases on random cut triangles with no mesh,
    assembly or solve."""
    with tracer.span("experiments.stress"):
        rep = basis_stress_test(seed, count)
    # the draws below mirror basis_stress_test's, with its default ranges
    rng = np.random.default_rng(seed)
    lo, hi = 1e-3, 1e3
    for _ in range(count):
        tri = random_triangle(rng, 175.0)
        cut = random_cut(rng, tri)
        ratio = np.exp(rng.uniform(np.log(lo), np.log(hi)))
        bp = float(np.sqrt(ratio))
        bm = float(bp / ratio)
        with tracer.span("ife_space.closed_form"):
            ife_local_basis_cr_sm(cut, bp, bm)
        with tracer.span("ife_space.dense"):
            ife_local_basis_direct(cut, CR, bp, bm)
    return rep


def self_times(spans):
    """Set each span's ``self_s``: its duration minus the part of it that
    its children cover."""
    children = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for a, b in sorted(children.get(s["id"], ())):
            a, b = max(a, reach), min(b, s["end"])
            if b > a:
                covered += b - a
                reach = b
        s["self_s"] = (s["end"] - s["start"]) - covered
    return spans


def replica_spans(spans, first, end):
    """The spans in spans[first:end] under a row span, which replay the
    untraced program; the probes after each row and pass are left out."""
    out = []
    for sp in spans[first:end]:
        root = sp
        while root["parent"] is not None:
            root = spans[root["parent"]]
        if root["name"] == "experiments.row":
            out.append(sp)
    return out


def layer(span) -> str:
    """A span's layer: the module named before the first dot."""
    return span["name"].split(".")[0]


def self_time_totals(spans, key=layer):
    """Self time summed per key, by default per layer."""
    out = {}
    for s in spans:
        out[key(s)] = out.get(key(s), 0.0) + s["self_s"]
    return out
