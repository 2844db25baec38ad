"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers alongside the verdicts.
"""

import math
import time

import numpy as np

from invariant_burgers import (
    DiscreteField, Generator, GridSlice, GroupElement, InterpKind,
    SchemeConfig, SchemeKind, TAU, apply_field,
    convergence_study, evaluate, frame_comparison, grid_spacing_profile,
    invariance_defect, linf_error, max_defect, mean_spacing,
    relation_defect, run, sample_stencil,
    satisfy_constant, satisfy_scheme, satisfy_stationary, StencilParams,
    transform_stencil, uniform_slice,
)
from invariant_burgers.grid import Layer, advance_equidistributed, monitor
from invariant_burgers.interpolate import interpolate

from oracles import (dense_equidistribution_solve,
                     leading_coefficient_quadrature, periodic_spline_scipy,
                     random_smooth_field, trapezoid_coefficient)
from invariant_burgers.exact import FourierCoeffs

BENCH_KINDS = (SchemeKind.CLASSICAL_FTCS, SchemeKind.LAGRANGIAN,
               SchemeKind.EULERIAN_ADAPTIVE, SchemeKind.EVOLUTION_PROJECTION)
REFERENCE_LINF = {
    SchemeKind.CLASSICAL_FTCS: 2.53e-3,
    SchemeKind.LAGRANGIAN: 1.69e-3,
    SchemeKind.EULERIAN_ADAPTIVE: 2.50e-3,
    SchemeKind.EVOLUTION_PROJECTION: 2.63e-3,
}
# the documented time-step constants at which each scheme's error tracks
# its reference value are the config defaults (bisected per scheme on this
# N=64 error), so 1b checks that the defaults still match their calibration;
# it is not an independent accuracy result
CALIBRATED_DT_FACTOR = {
    kind: SchemeConfig(scheme_kind=kind).dt_factor for kind in BENCH_KINDS
}


def _verdict(name: str, ok: bool, detail: str):
    print(f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _benchmark_error(kind: SchemeKind, coeffs, dt_factor: float) -> float:
    config = SchemeConfig(scheme_kind=kind, dt_factor=dt_factor)
    return linf_error(run(config, np.sin), coeffs).linf_error


def test_criterion_1a_reference_errors_within_factor_two(coeffs_nu01):
    start = time.perf_counter()
    ratios = {}
    for kind in BENCH_KINDS:
        err = _benchmark_error(kind, coeffs_nu01,
                               SchemeConfig(scheme_kind=kind).dt_factor)
        ratios[kind] = err / REFERENCE_LINF[kind]
    elapsed = time.perf_counter() - start
    ok = all(0.5 <= r <= 2.0 for r in ratios.values()) and elapsed < 5.0
    detail = ", ".join(f"{k.value}={r:.3f}x" for k, r in ratios.items())
    assert _verdict("1a (factor 2 at default dt)", ok,
                    f"{detail}; {elapsed:.2f}s"), detail


def test_criterion_1b_reference_errors_within_15_percent(coeffs_nu01):
    deviations = {}
    for kind in BENCH_KINDS:
        err = _benchmark_error(kind, coeffs_nu01, CALIBRATED_DT_FACTOR[kind])
        deviations[kind] = abs(err / REFERENCE_LINF[kind] - 1.0)
    ok = all(d <= 0.15 for d in deviations.values())
    detail = ", ".join(f"{k.value}={100 * d:.1f}%"
                       for k, d in deviations.items())
    assert _verdict("1b (15% at documented dt)", ok, detail), (
        "a scheme's error at its default dt no longer tracks its reference "
        "value; re-check the calibration ledger for DEFAULT_DT_FACTORS in "
        "CHANGES.md: " + detail)


def test_criterion_2_convergence_order(coeffs_nu01):
    start = time.perf_counter()
    ns = [32, 64, 128, 256, 512]
    final_orders = {}
    for kind in BENCH_KINDS:
        rows = convergence_study(SchemeConfig(scheme_kind=kind), ns,
                                 coeffs_nu01)
        final_orders[kind] = rows[-1].observed_order
    elapsed = time.perf_counter() - start
    ok = all(abs(o - 2.0) <= 0.2 for o in final_orders.values())
    ok = ok and elapsed < 60.0
    detail = ", ".join(f"{k.value}={o:.3f}" for k, o in final_orders.items())
    assert _verdict("2 (order 2.0 +/- 0.2)", ok,
                    f"{detail}; {elapsed:.1f}s"), detail


def test_criterion_3_invariant_schemes_frame_exact():
    discrepancies = {}
    for kind in (SchemeKind.LAGRANGIAN, SchemeKind.EULERIAN_ADAPTIVE,
                 SchemeKind.EVOLUTION_PROJECTION):
        discrepancies[kind] = frame_comparison(
            SchemeConfig(scheme_kind=kind), 1.0)
    ok = all(d <= 1e-10 for d in discrepancies.values())
    detail = ", ".join(f"{k.value}={d:.2e}" for k, d in discrepancies.items())
    assert _verdict("3 (invariant frame change <= 1e-10)", ok, detail), detail


def test_criterion_4_fixed_grid_scheme_frame_defect():
    config = SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS)
    measured = frame_comparison(config, 1.0)

    # independently scripted pair of runs, compared through scipy splines
    eps = 1.0
    rest = run(config, np.sin).final
    boosted = run(SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS,
                               frame_velocity=eps), np.sin).final
    back_x = boosted.grid.x - eps * boosted.grid.t
    back_u = boosted.u - eps
    comp = uniform_slice(64, t=0.5).x
    v_rest = periodic_spline_scipy(rest.grid.x, rest.u, TAU, comp)
    v_back = periodic_spline_scipy(back_x, back_u, TAU, comp)
    scripted = float(np.max(np.abs(v_rest - v_back)))

    ok = measured >= 1e-3 and abs(measured - scripted) <= 1e-12
    detail = f"measured={measured:.4e}, scripted={scripted:.4e}"
    assert _verdict("4 (fixed-grid frame defect >= 1e-3)", ok, detail), detail


def test_criterion_5_stencil_certificates():
    p = StencilParams(nu=0.1, c=0.8)

    # moving-mesh relation: invariant under all four admissible generators
    worst_scheme = 0.0
    cases = [(Generator.TIME_TRANSLATION, (1.0,)),
             (Generator.SPACE_TRANSLATION, (1.0,)),
             (Generator.GALILEAN_BOOST, (1.0, -1.0, 5.0, -5.0)),
             (Generator.SCALING, (0.5, -0.5))]
    for gen, eps_values in cases:
        for i, eps in enumerate(eps_values):
            worst_scheme = max(worst_scheme, max_defect(
                satisfy_scheme, GroupElement(gen, eps), n_samples=1000,
                seed=1000 + i, p=p))

    # stationary grid relation: defect is exactly the boost drift
    rng = np.random.default_rng(77)
    worst_stationary = 0.0
    for _ in range(200):
        s = satisfy_stationary(sample_stencil(rng), p)
        for eps in (1.0, -2.5):
            d = invariance_defect(satisfy_stationary,
                                  GroupElement(Generator.GALILEAN_BOOST, eps),
                                  s, p)
            worst_stationary = max(worst_stationary, abs(d - abs(eps * s.dt)))

    # constant-drift relation: defect vanishes exactly when c is carried
    # along; the image measured against the untransformed c is "bare"
    worst_ext, min_bare = 0.0, np.inf
    for i in range(200):
        s = satisfy_constant(sample_stencil(rng), p)
        g = GroupElement(Generator.GALILEAN_BOOST, 1.0)
        worst_ext = max(worst_ext,
                        invariance_defect(satisfy_constant, g, s, p))
        min_bare = min(min_bare, relation_defect(
            satisfy_constant, transform_stencil(g, s), p) / s.dt)

    ok = (worst_scheme <= 1e-11 and worst_stationary <= 1e-14
          and worst_ext <= 1e-14 and min_bare > 0.99)
    detail = (f"scheme={worst_scheme:.2e}, stationary={worst_stationary:.2e}, "
              f"extended={worst_ext:.2e}, bare/eps*dt>={min_bare:.3f}")
    assert _verdict("5 (stencil invariance certificates)", ok, detail), detail


def test_criterion_6_mesh_oracle_equivalence():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([16, 24, 32, 48, 64]))
        x, u = random_smooth_field(rng, n)
        xl, ul = Layer.of_positions(x - x[0], TAU), Layer.of_values(u)
        dt = float(rng.uniform(1e-4, 5e-3))
        out = advance_equidistributed(xl, ul, 1.0, dt, Layer(n, TAU)).nodes
        rho = monitor(xl, ul, 1.0, Layer(n)).nodes
        ref = dense_equidistribution_solve(rho, xl.nodes[0] + dt * u[0], TAU)
        worst = max(worst, float(np.max(np.abs(out - ref))))
    ok = worst <= 1e-10
    assert _verdict("6 (mesh oracle <= 1e-10)", ok,
                    f"worst over 100 fields: {worst:.2e}"), worst


def test_criterion_7_reference_solution_self_checks(coeffs_nu01):
    a0_ref = leading_coefficient_quadrature(0.1)
    a0_rel = abs(coeffs_nu01.a[0] - a0_ref) / a0_ref

    zeros = max(max(abs(evaluate(coeffs_nu01, t, 0.0)),
                    abs(evaluate(coeffs_nu01, t, math.pi)))
                for t in (0.0, 0.25, 0.5))

    j2 = 2 * coeffs_nu01.truncation_index
    m2 = 2 * coeffs_nu01.quad_points
    a2 = np.array([trapezoid_coefficient(0.1, j, m2) for j in range(j2 + 1)])
    deeper = FourierCoeffs(nu=0.1, a=a2, quad_points=m2)
    x = np.arange(64) * (TAU / 64)
    drift = float(np.max(np.abs(evaluate(coeffs_nu01, 0.5, x)
                                - evaluate(deeper, 0.5, x))))

    ok = a0_rel <= 1e-12 and zeros <= 1e-13 and drift <= 1e-10
    detail = f"a0 rel={a0_rel:.2e}, zeros={zeros:.2e}, doubling={drift:.2e}"
    assert _verdict("7 (reference solution self-checks)", ok, detail), detail


def test_criterion_8_interpolation_invariance_and_order():
    kinds = [InterpKind.LINEAR, InterpKind.QUADRATIC, InterpKind.CUBIC_SPLINE]
    rng = np.random.default_rng(9)

    # affine reproduction (mid-domain: affine data cannot be periodic at
    # the seam, and the spline's seam contamination decays geometrically)
    x, _ = random_smooth_field(rng, 128)
    affine = 0.4 - 0.9 * x
    q = np.linspace(x[0] + 0.35 * TAU, x[0] + 0.65 * TAU, 97)
    worst_affine = max(
        float(np.max(np.abs(interpolate(x, affine, q, kind, TAU)
                            - (0.4 - 0.9 * q)))) for kind in kinds)

    # boost commutation on random smooth data
    worst_boost = 0.0
    for kind in kinds:
        xs, us = random_smooth_field(rng, 48)
        fld = DiscreteField(grid=GridSlice(t=0.7, x=xs - xs[0]), u=us)
        targets = np.sort(rng.uniform(0.0, TAU, 60))
        g = GroupElement(Generator.GALILEAN_BOOST, 1.0)
        moved = apply_field(g, fld)
        lhs = interpolate(moved.grid.x, moved.u,
                          targets + g.epsilon * fld.grid.t, kind,
                          moved.grid.domain_length)
        rhs = interpolate(fld.grid.x, fld.u, targets, kind,
                          fld.grid.domain_length) + g.epsilon
        worst_boost = max(worst_boost, float(np.max(np.abs(lhs - rhs))))

    # measured orders on the sine profile
    orders = {}
    queries = rng.uniform(0.0, TAU, 400)
    for kind, nominal in zip(kinds, (2.0, 3.0, 4.0)):
        errs = []
        for n in (16, 32, 64, 128):
            grid = uniform_slice(n)
            vals = interpolate(grid.x, np.sin(grid.x), queries, kind, TAU)
            errs.append(np.max(np.abs(vals - np.sin(queries))))
        slopes = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        orders[kind] = (float(np.min(slopes - nominal)),
                        float(np.max(slopes - nominal)))
    order_ok = all(max(abs(lo), abs(hi)) <= 0.3
                   for lo, hi in orders.values())

    ok = worst_affine <= 1e-13 and worst_boost <= 1e-12 and order_ok
    detail = (f"affine={worst_affine:.2e}, boost={worst_boost:.2e}, "
              f"order slack={ {k.value: f'{max(abs(l), abs(h)):.2f}' for k, (l, h) in orders.items()} }")
    assert _verdict("8 (interpolation invariance and order)", ok, detail), \
        detail


def test_criterion_9_grid_shapes_at_final_time():
    adaptive = run(SchemeConfig(scheme_kind=SchemeKind.EULERIAN_ADAPTIVE),
                   np.sin)
    profile = grid_spacing_profile(adaptive)
    gaps = profile[:, 1]
    x_at_min = profile[np.argmin(gaps), 0]
    adaptive_ok = (abs(x_at_min - math.pi) <= 0.5
                   and gaps.min() < gaps.mean())

    uniform_defect = 0.0
    for kind in (SchemeKind.EVOLUTION_PROJECTION, SchemeKind.CLASSICAL_FTCS):
        traj = run(SchemeConfig(scheme_kind=kind), np.sin)
        h = mean_spacing(traj.final.grid)
        uniform_defect = max(uniform_defect, float(
            np.max(np.abs(traj.final.grid.gaps() - h))))

    ok = adaptive_ok and uniform_defect <= 1e-12
    detail = (f"min gap at x={x_at_min:.3f} (pi={math.pi:.3f}), "
              f"min/mean={gaps.min() / gaps.mean():.3f}, "
              f"uniformity defect={uniform_defect:.2e}")
    assert _verdict("9 (final grid shapes)", ok, detail), detail
