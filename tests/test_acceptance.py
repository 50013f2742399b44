"""Acceptance suite: every criterion at its stated tolerance.

Each criterion prints one [PASS]/[FAIL] line (collected and echoed in the
terminal summary; run with -s to stream them live). Reference values come
from the published convergence tables of the underlying study.
"""
import time

import numpy as np
from dataclasses import replace

from ifelab.assembly import (
    assemble,
    build_context,
    build_edge_table,
    lift_trace,
    lifting_stability_ratio,
)
from ifelab.experiments import (
    basis_stress_test,
    interpolation_convergence,
    run_convergence,
)
from ifelab.mesh import build_uniform_tri
from ifelab.problems import (
    ValidationError,
    example1,
    example2,
    example3,
    example4,
    validate,
)

import _acceptance_log
from conftest import lifted_field

RESULTS = _acceptance_log.RESULTS


def _report(name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
    _acceptance_log.record(line)
    print(line)
    assert ok, line


def _in(x, lo, hi):
    return x is not None and lo <= x <= hi


_cache = {}


def _table(key, builder):
    if key not in _cache:
        t0 = time.perf_counter()
        _cache[key] = (builder(), time.perf_counter() - t0)
    return _cache[key]


def test_criterion_1_table1_reproduction():
    full = [8, 16, 32, 64, 128, 256]
    new, t_new = _table("t1_new", lambda: run_convergence(
        example1(10, 1000), "new", "cr", full))
    plain, t_plain = _table("t1_plain", lambda: run_convergence(
        example1(10, 1000), "plain", "cr", full))
    l2r, h1r = new.final_rates()
    pl2r, ph1r = plain.final_rates()
    last = new.rows[-1]
    ok = (_in(l2r, 1.85, 2.15) and _in(h1r, 0.9, 1.1)
          and 0.5 <= last.l2 / 4.836e-05 <= 2.0
          and 0.5 <= last.h1 / 4.461e-01 <= 2.0
          and _in(pl2r, 0.95, 1.25) and _in(ph1r, 0.45, 0.7)
          and (t_new + t_plain) <= 600.0)
    _report("criterion 1 (contrast 10/1000, N<=256)", ok,
            f"new rates {l2r:.2f}/{h1r:.2f}, errors x{last.l2/4.836e-05:.2f}/"
            f"x{last.h1/4.461e-01:.2f} of reference, plain rates "
            f"{pl2r:.2f}/{ph1r:.2f}, {t_new + t_plain:.0f}s")


def test_criterion_2_table2_reproduction():
    full = [8, 16, 32, 64, 128, 256]
    new, _ = _table("t2_new", lambda: run_convergence(
        example1(1000, 10), "new", "cr", full))
    plain, _ = _table("t2_plain", lambda: run_convergence(
        example1(1000, 10), "plain", "cr", full))
    l2r, h1r = new.final_rates()
    pl2r, ph1r = plain.final_rates()
    last = new.rows[-1]
    ok = (_in(l2r, 1.85, 2.15) and _in(h1r, 0.9, 1.1)
          and 0.5 <= last.l2 / 4.841e-05 <= 2.0
          and 0.5 <= last.h1 / 9.738e-01 <= 2.0
          and _in(pl2r, 0.95, 1.25) and _in(ph1r, 0.45, 0.7))
    _report("criterion 2 (contrast 1000/10, N<=256)", ok,
            f"new rates {l2r:.2f}/{h1r:.2f}, errors x{last.l2/4.841e-05:.2f}/"
            f"x{last.h1/9.738e-01:.2f} of reference, plain rates "
            f"{pl2r:.2f}/{ph1r:.2f}")


def test_criterion_3_straight_interface():
    new, _ = _table("t3_new", lambda: run_convergence(
        example3(), "new", "cr", [8, 16, 32]))
    plain, _ = _table("t3_plain", lambda: run_convergence(
        example3(), "plain", "cr", [8, 16, 32]))
    exact = all(r.l2 <= 1e-10 and r.h1 <= 1e-10 for r in new.rows)
    pl2r, ph1r = plain.final_rates()
    ok = exact and _in(pl2r, 1.35, 1.6) and _in(ph1r, 0.4, 0.55)
    _report("criterion 3 (straight interface)", ok,
            f"new max errors {max(r.l2 for r in new.rows):.1e}/"
            f"{max(r.h1 for r in new.rows):.1e}, plain rates {pl2r:.2f}/{ph1r:.2f}")


def test_criterion_4_nonhomogeneous_jumps():
    full = [8, 16, 32, 64, 128, 256]
    new, _ = _table("t5_new", lambda: run_convergence(example4(), "new", "cr", full))
    plain, _ = _table("t5_plain", lambda: run_convergence(example4(), "plain", "cr", full))
    l2r, h1r = new.final_rates()
    _, ph1r = plain.final_rates()
    last = new.rows[-1]
    ok = (_in(l2r, 1.85, 2.15) and _in(h1r, 0.9, 1.1)
          and 0.5 <= last.l2 / 6.714e-05 <= 2.0
          and 0.5 <= last.h1 / 3.483e-02 <= 2.0
          and _in(ph1r, 0.4, 0.65))
    _report("criterion 4 (nonhomogeneous jumps, N<=256)", ok,
            f"new rates {l2r:.2f}/{h1r:.2f}, errors x{last.l2/6.714e-05:.2f}/"
            f"x{last.h1/3.483e-02:.2f} of reference, plain H1 rate {ph1r:.2f}")


def test_criterion_5_variable_coefficients_all_methods():
    rates = {}
    for method in ("plain", "new", "ppifem"):
        table, _ = _table(f"ex2_{method}", lambda m=method: run_convergence(
            example2(), m, "cr", [16, 32, 64, 128]))
        rates[method] = table.final_rates()
    ok = all(l2r >= 1.85 and h1r >= 0.9 for l2r, h1r in rates.values())
    _report("criterion 5 (variable coefficients, three methods at N=128)", ok,
            ", ".join(f"{m} {r[0]:.2f}/{r[1]:.2f}" for m, r in rates.items()))


def test_criterion_6_unisolvence_stress():
    t0 = time.perf_counter()
    rep = basis_stress_test(seed=1, count=1000, ratio_range=(1e-3, 1e3),
                            max_angle_deg=175.0)
    elapsed = time.perf_counter() - t0
    ok = (rep.ok and rep.worst_delta <= 1e-10 and rep.worst_agreement <= 1e-11
          and rep.gamma_delta_min >= -1e-12 and rep.gamma_delta_max <= 1 + 1e-12
          and rep.min_bound_margin >= -1e-12 and elapsed <= 30.0)
    _report("criterion 6 (unisolvence stress, 1000 triangles)", ok,
            f"duality {rep.worst_delta:.1e}, agreement {rep.worst_agreement:.1e}, "
            f"gamma.delta in [{rep.gamma_delta_min:.3f}, {rep.gamma_delta_max:.3f}], "
            f"{elapsed:.1f}s")


def test_criterion_7_coercivity_and_symmetry():
    prob = example1(10, 1000)
    ctx = build_context(prob, build_uniform_tri(16), "cr")
    A = assemble(ctx, "new").matrix
    V = assemble(ctx, "plain").matrix
    rng = np.random.default_rng(11)
    coercive = True
    for _ in range(100):
        v = rng.standard_normal(A.shape[0])
        av = float(v @ (A @ v))
        vv = float(v @ (V @ v))
        coercive &= av >= 0.5 * vv - 1e-10 * vv
    symmetric = True
    for method in ("plain", "new", "ppifem"):
        M = assemble(ctx, method).matrix
        symmetric &= abs(M - M.T).max() <= 1e-12 * abs(M).max()
    _report("criterion 7 (coercivity factor 1/2 and symmetry)",
            coercive and symmetric,
            f"coercive={coercive}, symmetric={symmetric}")


def test_criterion_8_lifting_operator():
    prob = example1(10, 1000)
    trace = lambda p: np.sin(3 * p[..., 0]) + p[..., 1] ** 2
    worst_def = 0.0
    maxima = {}
    for N in (8, 16, 32, 64):
        ctx = build_context(prob, build_uniform_tri(N), "cr")
        edges = build_edge_table(ctx, ctx.layout.interface_edges)
        maxima[N] = float(lifting_stability_ratio(ctx, edges).max())
        if N > 32:
            continue  # definitional residual checked at N in {8, 16, 32}
        coeffs = lift_trace(edges, trace)
        tab = ctx.cut_table
        nb = tab.coef.shape[1] - 1
        for elems, c, M in zip(edges.elems, coeffs, edges.M):
            lhs = np.zeros(len(c))
            for off, t in zip((0, nb), elems[elems >= 0]):
                sel, r = lifted_field(ctx, elems, c, t)
                for k in range(nb):
                    w = tab.grads[sel, k]
                    lhs[off + k] = tab.wts[sel] @ (tab.beta[sel] * np.einsum("qi,qi->q", r, w))
            rhs = (M @ c.reshape(2, nb, 1)).ravel()  # per element slot
            worst_def = max(worst_def, float(np.abs(lhs - rhs).max())
                            / max(1.0, float(np.abs(rhs).max())))
    envelope = max(maxima[8], maxima[16], maxima[32])
    bounded = maxima[64] <= 1.05 * envelope and max(maxima.values()) <= 25.0
    ok = worst_def <= 1e-10 and bounded
    _report("criterion 8 (lifting: definition and stability)", ok,
            f"definition residual {worst_def:.1e}, max ratios "
            + ", ".join(f"N={n}:{r:.2f}" for n, r in maxima.items()))


def test_criterion_9_interpolation_rates_both_elements():
    Ns = [8, 16, 32, 64, 128]
    rates = {}
    for kind in ("cr", "rq1"):
        table, _ = _table(f"interp_{kind}", lambda k=kind: interpolation_convergence(
            example1(10, 1000), k, Ns))
        rates[kind] = table.final_rates()
    ok = all(_in(l2r, 1.85, 2.15) and _in(h1r, 0.9, 1.1)
             for l2r, h1r in rates.values())
    _report("criterion 9 (interpolant rates, both elements)", ok,
            ", ".join(f"{k} {r[0]:.2f}/{r[1]:.2f}" for k, r in rates.items()))


def test_criterion_10_problem_self_validation():
    all_ok = True
    details = []
    for prob in (example1(10, 1000), example2(), example3(), example4()):
        rep = validate(prob, strict=False)
        all_ok &= rep.ok
        details.append(f"{prob.name} ok={rep.ok}")
    prob = example1(10, 1000)
    fp = prob.f_plus
    corrupted = replace(prob, f_plus=lambda x: 1.01 * fp(x))
    control_failed = False
    try:
        validate(corrupted)
    except ValidationError:
        control_failed = True
    _report("criterion 10 (catalog validation + negative control)",
            all_ok and control_failed,
            "; ".join(details) + f"; corrupted control rejected={control_failed}")
