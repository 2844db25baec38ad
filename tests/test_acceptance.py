"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the measured
numbers alongside the verdicts.
"""

import math
import time
from dataclasses import replace

import numpy as np

from invariant_burgers import (
    DiscreteField, Generator, GridSlice, GroupElement, InterpKind,
    Reference, SchemeConfig, SchemeKind, TAU, apply_field,
    convergence_study, evaluate, frame_comparison, grid_spacing_profile,
    linf_error, max_defect, mean_spacing, run, satisfy_constant,
    satisfy_scheme, satisfy_stationary, StencilParams, uniform_slice,
)
from invariant_burgers.grid import (Layer, advance_equidistributed,
                                    bind_equidistributed)
from invariant_burgers.interpolate import interpolate
from invariant_burgers.symmetry import (invariance_defect, relation_defect,
                                        sample_stencil, transform_stencil)

from invariant_burgers.exact import _cole_hopf, _window

from oracles import (burgers_bessel_mp, dense_equidistribution_solve,
                     monitor_loop, periodic_spline_scipy,
                     random_smooth_field)

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
    # constant-frame computes in the frame of the bulk velocity, so it is
    # frame-exact too (ROADMAP item 8)
    discrepancies = {}
    for kind in (SchemeKind.LAGRANGIAN, SchemeKind.EULERIAN_ADAPTIVE,
                 SchemeKind.EVOLUTION_PROJECTION, SchemeKind.CONSTANT_FRAME):
        discrepancies[kind] = frame_comparison(
            SchemeConfig(scheme_kind=kind, frame_velocity=1.0))
    ok = all(d <= 1e-10 for d in discrepancies.values())
    detail = ", ".join(f"{k.value}={d:.2e}" for k, d in discrepancies.items())
    assert _verdict("3 (invariant frame change <= 1e-10)", ok, detail), detail


def test_criterion_4_fixed_grid_scheme_frame_defect():
    config = SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS)
    measured = frame_comparison(replace(config, frame_velocity=1.0))

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
        out = Layer(n, TAU)
        advance_equidistributed(bind_equidistributed(xl, ul, 1.0, out,
                                                     np.empty(n), dt,
                                                     np.empty(n)))
        out = out.nodes
        rho = monitor_loop(xl.nodes, u, 1.0, TAU)
        ref = dense_equidistribution_solve(rho, xl.nodes[0] + dt * u[0], TAU)
        worst = max(worst, float(np.max(np.abs(out - ref))))
    ok = worst <= 1e-10
    assert _verdict("6 (mesh oracle <= 1e-10)", ok,
                    f"worst over 100 fields: {worst:.2e}"), worst


def test_criterion_7_reference_solution_self_checks(coeffs_nu01):
    zeros = max(max(abs(evaluate(coeffs_nu01, t, 0.0)),
                    abs(evaluate(coeffs_nu01, t, math.pi)))
                for t in (0.0, 0.25, 0.5, 2.0))

    # the trapezoid rule at half its step and on twice its window
    x = np.arange(64) * (TAU / 64)
    finer = wider = 0.0
    for t in (0.05, 0.5, 2.0):
        step, half = _window(0.1, t)
        base = _cole_hopf(0.1, t, x, step, half)
        finer = max(finer, float(np.max(np.abs(
            _cole_hopf(0.1, t, x, step / 2.0, half) - base))))
        wider = max(wider, float(np.max(np.abs(
            _cole_hopf(0.1, t, x, step, 2.0 * half) - base))))

    # against the Bessel series in mpmath, and sin x itself at t = 0
    x16 = np.arange(16) * (TAU / 16)
    oracle = max(float(np.max(np.abs(evaluate(coeffs_nu01, t, x16)
                                     - burgers_bessel_mp(0.1, t, x16))))
                 for t in (0.05, 0.5, 1.0, 2.0))
    initial = np.array_equal(evaluate(coeffs_nu01, 0.0, x), np.sin(x))

    ok = (zeros <= 1e-14 and finer <= 1e-14 and wider <= 1e-14
          and oracle <= 1e-13 and initial)
    detail = (f"zeros={zeros:.2e}, halved step={finer:.2e}, "
              f"doubled window={wider:.2e}, oracle={oracle:.2e}, "
              f"t=0 is sin x: {initial}")
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


# the largest relative change of an invariant-or-remedy scheme's L-inf
# under a bulk velocity c in {1, 2, 4} against c = 0, at N in {64, 256}:
# 4.2e-9 measured (Lagrangian, N = 256), at most 1.2e-9 for the others
BULK_RTOL = 1e-8


def test_criterion_10_bulk_velocity(coeffs_nu01):
    # the paper's comparison: the invariant schemes and the remedy of
    # computing in the frame of the bulk velocity c keep their error at
    # every c; FTCS on the lattice at rest does not
    start = time.perf_counter()
    cs = (0.0, 1.0, 2.0, 4.0)

    def error(kind, n, c):
        config = SchemeConfig(scheme_kind=kind, n_points=n, frame_velocity=c)
        return linf_error(run(config, np.sin), coeffs_nu01).linf_error

    worst, ftcs = {}, {}
    for n in (64, 256):
        ftcs[n] = [error(SchemeKind.CLASSICAL_FTCS, n, c) for c in cs]
        for kind in (SchemeKind.CONSTANT_FRAME, SchemeKind.LAGRANGIAN,
                     SchemeKind.EULERIAN_ADAPTIVE,
                     SchemeKind.EVOLUTION_PROJECTION):
            errs = [error(kind, n, c) for c in cs]
            worst[kind, n] = max(abs(e / errs[0] - 1.0) for e in errs[1:])
    growing = all(a < b for errs in ftcs.values()
                  for a, b in zip(errs, errs[1:]))

    # Bernardini's "more grid points": the first N, in steps of 8, at
    # which FTCS at c = 1 matches its own c = 0 error at N = 64
    n = 64
    while n < 512 and error(SchemeKind.CLASSICAL_FTCS, n, 1.0) > ftcs[64][0]:
        n += 8
    elapsed = time.perf_counter() - start

    ok = max(worst.values()) <= BULK_RTOL and growing
    detail = (", ".join(f"{k.value} N={m}: {d:.1e}"
                        for (k, m), d in worst.items())
              + "; ftcs N=64: " + ", ".join(f"{e:.2e}" for e in ftcs[64])
              + f"; ftcs at c=1 matches its c=0 error from N={n}"
              + f"; {elapsed:.2f}s")
    assert _verdict("10 (bulk velocity)", ok, detail), detail


EQUAL_ACCURACY_TARGET = 2.6e-3


def test_criterion_11_equal_accuracy(coeffs_nu01):
    # the paper's comparison priced: at each bulk velocity c, the smallest
    # N (from 32, in steps of 8) at which each scheme's error reaches one
    # target, with its steps and node-steps. The target sits clear of every
    # scheme's error at its N and at N - 8, so no roundoff tie decides an N
    start = time.perf_counter()
    cs = (0.0, 1.0, 2.0, 4.0)
    kinds = (SchemeKind.CLASSICAL_FTCS, SchemeKind.LAGRANGIAN,
             SchemeKind.EULERIAN_ADAPTIVE, SchemeKind.CONSTANT_FRAME,
             SchemeKind.EVOLUTION_PROJECTION)

    def error(kind, n, c):
        config = SchemeConfig(scheme_kind=kind, n_points=n, frame_velocity=c)
        return linf_error(run(config, np.sin), coeffs_nu01).linf_error

    found, closest, reached = {}, math.inf, True
    for kind in kinds:
        for c in cs:
            n, prev = 32, None
            while ((err := error(kind, n, c)) > EQUAL_ACCURACY_TARGET
                   and n < 512):
                n, prev = n + 8, err
            reached &= err <= EQUAL_ACCURACY_TARGET
            config = SchemeConfig(scheme_kind=kind, n_points=n,
                                  frame_velocity=c)
            steps = len(run(config, np.sin, snapshot_every=1).snapshots) - 1
            found[kind, c] = n, steps
            for e in (err, prev):
                if e is not None:
                    closest = min(closest,
                                  abs(e / EQUAL_ACCURACY_TARGET - 1.0))
    elapsed = time.perf_counter() - start

    equal = all(found[kind, c] == found[kind, 0.0]
                for kind in kinds[1:] for c in cs)
    ftcs_n = [found[SchemeKind.CLASSICAL_FTCS, c][0] for c in cs]
    growing = all(a < b for a, b in zip(ftcs_n, ftcs_n[1:]))
    for kind in kinds:
        print(f"  {kind.value}: " + ", ".join(
            f"c={c:g} N={n} steps={s} node-steps={n * s}"
            for c in cs for n, s in [found[kind, c]]))
    n_f, s_f = found[SchemeKind.CLASSICAL_FTCS, 4.0]
    n_k, s_k = found[SchemeKind.CONSTANT_FRAME, 4.0]
    ok = reached and equal and growing and closest > 1e-6
    detail = (f"ftcs N={ftcs_n}; at c=4 ftcs takes {s_f / s_k:.0f}x "
              f"constant-frame's steps and {n_f * s_f / (n_k * s_k):.0f}x "
              f"its node-steps; closest to the target {closest:.1e} "
              f"relative; {elapsed:.2f}s")
    assert _verdict("11 (equal accuracy)", ok, detail), detail


# criterion 12 divides each scheme's fitted time-step constant by this, so
# that the time error falls below the space error
TIME_REFINEMENT = 64
ORDER_TOLERANCE = 0.2


def test_criterion_12_space_and_time(coeffs_nu01):
    # the fitted constants put the paper's error table largely in the
    # forward-Euler time error; at C/64 the space error remains, and every
    # scheme converges in it at order 2. FTCS's bulk-velocity penalty is a
    # space error, so it survives there
    start = time.perf_counter()
    ns = [32, 64, 128]
    table, orders = {}, {}
    for kind in SchemeKind:
        config = SchemeConfig(scheme_kind=kind)
        config = replace(config,
                         dt_factor=config.dt_factor / TIME_REFINEMENT)
        rows = convergence_study(config, ns, coeffs_nu01)
        table[kind] = [r.linf_error for r in rows]
        orders[kind] = [r.observed_order for r in rows[1:]]

    def ftcs_error(c):
        config = SchemeConfig(scheme_kind=SchemeKind.CLASSICAL_FTCS,
                              frame_velocity=c)
        config = replace(config,
                         dt_factor=config.dt_factor / TIME_REFINEMENT)
        return linf_error(run(config, np.sin), coeffs_nu01).linf_error

    penalty = ftcs_error(4.0) / ftcs_error(0.0)
    elapsed = time.perf_counter() - start

    print(f"  L-inf at C/{TIME_REFINEMENT}, N = " + ", ".join(map(str, ns)))
    for kind in SchemeKind:
        print(f"  {kind.value}: " + ", ".join(f"{e:.3e}" for e in table[kind])
              + "; orders " + ", ".join(f"{o:.3f}" for o in orders[kind]))
    ok = (all(abs(o - 2.0) <= ORDER_TOLERANCE
              for row in orders.values() for o in row) and penalty > 10.0)
    detail = (f"orders in [{min(min(o) for o in orders.values()):.3f}, "
              f"{max(max(o) for o in orders.values()):.3f}]; ftcs c=4 over "
              f"c=0 at N=64 {penalty:.1f}x; {elapsed:.2f}s")
    assert _verdict("12 (space and time)", ok, detail), detail


def test_criterion_13_unknown_bulk_velocity(coeffs_nu01):
    # the remedy needs the flow's bulk velocity, the invariant schemes do
    # not: constant-frame computes in the frame of c = 4 on sin x + 4 + d,
    # a bulk velocity known only up to d. linf_error boosts its reference
    # by the config's c, which is not the bulk here, so the reference is
    # formed at the bulk 4 + d
    start = time.perf_counter()
    c, ds = 4.0, (0.0, 0.25, 0.5, 1.0, 2.0, 4.0)

    def final(kind, frame_velocity, d=0.0):
        config = SchemeConfig(scheme_kind=kind, frame_velocity=frame_velocity)
        return run(config, lambda x: np.sin(x) + d).final

    def error(fld, bulk):
        t = fld.grid.t
        ref = evaluate(coeffs_nu01, t, fld.grid.x - bulk * t) + bulk
        return float(np.max(np.abs(fld.u - ref)))

    remedy, ulps = [], []
    for d in ds:
        fld = final(SchemeKind.CONSTANT_FRAME, c, d)
        ftcs = final(SchemeKind.CLASSICAL_FTCS, d)
        remedy.append(error(fld, c + d))
        ulps.append(float(np.max(np.abs((fld.u - c) - ftcs.u))
                          / np.spacing(np.max(np.abs(fld.u)))))
    worst = {}
    for kind in (SchemeKind.LAGRANGIAN, SchemeKind.EULERIAN_ADAPTIVE,
                 SchemeKind.EVOLUTION_PROJECTION):
        errs = [error(final(kind, c + d), c + d) for d in ds]
        worst[kind] = max(abs(e / errs[0] - 1.0) for e in errs[1:])
    elapsed = time.perf_counter() - start

    growing = all(a < b for a, b in zip(remedy, remedy[1:]))
    ok = max(ulps) <= 4.0 and growing and max(worst.values()) <= BULK_RTOL
    detail = ("constant-frame at c=4: " + ", ".join(
                  f"d={d:g} {e:.3e}" for d, e in zip(ds, remedy))
              + f"; less c, it is ftcs at c=d within {max(ulps):g} ulps; "
              + ", ".join(f"{k.value}: {w:.1e}" for k, w in worst.items())
              + f"; {elapsed:.2f}s")
    assert _verdict("13 (unknown bulk velocity)", ok, detail), detail


VISCOSITIES = (0.1, 0.02, 0.005)
# each scheme's largest L-inf over the three viscosities, at N = 64 and
# N = 256, with 10% over the measured 4.357e-3 and 2.778e-4 (FTCS and
# constant-frame, at nu = 0.005), 1.689e-3 and 1.063e-4 (Lagrangian, at
# nu = 0.1), 3.662e-3 and 2.232e-4 (adaptive, at nu = 0.005) and 2.630e-3
# and 1.699e-4 (projection, at nu = 0.1)
VISCOSITY_LINF = {
    SchemeKind.CLASSICAL_FTCS: (4.8e-3, 3.1e-4),
    SchemeKind.LAGRANGIAN: (1.9e-3, 1.2e-4),
    SchemeKind.EULERIAN_ADAPTIVE: (4.1e-3, 2.5e-4),
    SchemeKind.CONSTANT_FRAME: (4.8e-3, 3.1e-4),
    SchemeKind.EVOLUTION_PROJECTION: (2.9e-3, 1.9e-4),
}


def test_criterion_14_viscosity():
    # every scheme keeps order 2 from N = 64 to N = 256 as the viscosity
    # falls twentyfold, and the Lagrangian scheme, which forms no advection
    # term, gains on FTCS as advection takes over. The adaptive scheme is
    # invariant too, but its relative velocity u - xdot stays O(1): it
    # stays near FTCS, which the line prints as a finding, not a gate
    start = time.perf_counter()
    table = {}
    for nu in VISCOSITIES:
        ref = Reference(nu)
        for kind in SchemeKind:
            table[nu, kind] = [linf_error(run(SchemeConfig(
                scheme_kind=kind, nu=nu, n_points=n), np.sin), ref).linf_error
                for n in (64, 256)]
    elapsed = time.perf_counter() - start

    # the order over two doublings
    orders = {key: math.log2(e64 / e256) / 2.0
              for key, (e64, e256) in table.items()}
    def over_ftcs(kind):
        return [table[nu, kind][0] / table[nu, SchemeKind.CLASSICAL_FTCS][0]
                for nu in VISCOSITIES]

    ratios = over_ftcs(SchemeKind.LAGRANGIAN)
    print("  L-inf at N = 64, 256 and the order between them, t = 0.5")
    for (nu, kind), (e64, e256) in table.items():
        print(f"  nu={nu:g} {kind.value}: {e64:.3e}, {e256:.3e}; order "
              f"{orders[nu, kind]:.3f}")
    ok = (all(abs(o - 2.0) <= ORDER_TOLERANCE for o in orders.values())
          and all(a > b for a, b in zip(ratios, ratios[1:]))
          and all(e <= bound for (_, kind), errors in table.items()
                  for e, bound in zip(errors, VISCOSITY_LINF[kind])))
    detail = (f"orders in [{min(orders.values()):.3f}, "
              f"{max(orders.values()):.3f}]; lagrangian over ftcs at N=64: "
              + ", ".join(f"nu={nu:g} {r:.3g}"
                          for nu, r in zip(VISCOSITIES, ratios))
              + "; eulerian-adaptive over ftcs: "
              + ", ".join(f"{r:.3g}"
                          for r in over_ftcs(SchemeKind.EULERIAN_ADAPTIVE))
              + f"; {elapsed:.2f}s")
    assert _verdict("14 (viscosity)", ok, detail), detail
