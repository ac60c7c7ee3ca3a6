"""Acceptance suite: one test per shipped criterion, printing a verdict line.

Run with  pytest tests/test_acceptance.py -v -s  to see the lines live.
Every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest

import phimin as pm
from phimin.cli import parse_config, run
from phimin.estimates import (blowup_rescale, convexity_report,
                              curvature_ratio_sup, density_monotonicity,
                              geodesic_disk_area_check, ilmanen_estimate_report,
                              omori_gamma_check, rescale_profile)
from phimin.potential import bounded_geometry_check
from phimin.solvers import (AxisRegular, NewtonConfig, PointStart,
                            ShootingConfig, solve_graph,
                            solve_rotational_profile,
                            solve_translation_profile)
from phimin.stability import first_eigenvalue, jacobi_residual
from phimin.surface_geometry import (GraphPatch, ProfileCurve,
                                     curvature_evolution_residuals,
                                     fundamental_identity_residuals,
                                     sample_geometry)

SPEC0 = pm.PotentialSpec.constant(0.0)
SPEC1 = pm.PotentialSpec.linear(1.0)
SPECQ = pm.PotentialSpec.quadratic(1.0, 1.0)


def _verdict(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def test_criterion_01_closed_form_solver_oracles():
    t0 = time.perf_counter()
    cfg = ShootingConfig(start=PointStart(1.0, 0.0, np.pi / 2), s_max=1.2, step=1e-4)
    cat = solve_rotational_profile(SPEC0, cfg).surface
    mask = np.abs(cat.z) <= 1.0
    cat_err = (np.abs(cat.x - np.cosh(cat.z)) / np.cosh(cat.z))[mask].max()

    cfg = ShootingConfig(start=PointStart(0.0, 0.0, 0.0), s_max=2.5, step=1e-4)
    reap = solve_translation_profile(SPEC1, cfg).surface
    mask = np.abs(reap.x) <= 1.4
    reap_err = np.abs(reap.z + np.log(np.cos(reap.x)))[mask].max()

    def cat_e(h):
        c = solve_rotational_profile(SPEC0, ShootingConfig(
            start=PointStart(1.0, 0.0, np.pi / 2), s_max=1.2, step=h)).surface
        return np.abs(c.x - np.cosh(c.z)).max()

    def reap_e(h):
        c = solve_translation_profile(SPEC1, ShootingConfig(
            start=PointStart(0.0, 0.0, 0.0), s_max=2.5, step=h)).surface
        return np.abs(c.z + np.log(np.cos(c.x))).max()

    r_cat = cat_e(0.04) / cat_e(0.02)
    r_reap = reap_e(0.04) / reap_e(0.02)
    elapsed = time.perf_counter() - t0
    ok = (cat_err <= 1e-6 and reap_err <= 1e-6
          and 13.0 <= r_cat <= 19.0 and 13.0 <= r_reap <= 19.0
          and elapsed < 5.0)
    _verdict(1, "closed-form solver oracles", ok,
             f"cat {cat_err:.1e}, reaper {reap_err:.1e}, "
             f"ratios {r_cat:.1f}/{r_reap:.1f}, {elapsed:.1f}s")


def test_criterion_02_cross_solver_consistency():
    t0 = time.perf_counter()
    from scipy.interpolate import CubicSpline
    prof = solve_rotational_profile(SPEC1, ShootingConfig(
        start=AxisRegular(0.0), s_max=2.6, step=5e-4)).surface
    spline = CubicSpline(prof.x, prof.z)
    errs = []
    for h in (1 / 64, 1 / 128):
        res = solve_graph(SPEC1, (-1, 1, -1, 1), h,
                          lambda x, y: spline(np.hypot(x, y)),
                          NewtonConfig(tol_residual=1e-10))
        assert res.converged
        u = res.surface.u
        n = u.shape[0]
        xs = -1 + h * np.arange(n)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        errs.append(np.abs(u - spline(np.hypot(X, Y)))[1:-1, 1:-1].max())
    ratio = errs[0] / errs[1]
    elapsed = time.perf_counter() - t0
    ok = 3.2 <= ratio <= 4.8 and elapsed < 60.0
    _verdict(2, "cross-solver consistency", ok,
             f"ratio {ratio:.2f}, {elapsed:.1f}s")


_CASES_AC3 = [
    ("catenoid", SPEC0, solve_rotational_profile,
     dict(start=PointStart(1.0, 0.0, np.pi / 2), s_max=1.2)),
    ("grim reaper", SPEC1, solve_translation_profile,
     dict(start=PointStart(0.0, 0.0, 0.0), s_max=1.4)),
    ("bowl", SPEC1, solve_rotational_profile,
     dict(start=AxisRegular(0.0), s_max=2.0)),
    ("quadratic", SPECQ, solve_rotational_profile,
     dict(start=AxisRegular(0.0), s_max=1.5)),
]


def test_criterion_03_fundamental_identity_suite():
    t0 = time.perf_counter()
    worst_order = np.inf
    worst_alg = 0.0
    steps = (4e-3, 2e-3)
    for name, spec, solve, kw in _CASES_AC3:
        maxima = []
        for step in steps:
            sol = solve(spec, ShootingConfig(step=step, **kw))
            field = sample_geometry(sol.surface, spec)
            margin = int(round(1.6e-2 / step))
            reps = fundamental_identity_residuals(field, spec, range(1, 9),
                                                  margin=margin)
            maxima.append({r.identity_name: r.max_abs_residual for r in reps})
            # item 2 with H replaced by the minimality value, pointwise
            ev = pm.eval_potential(spec, field.mu)
            gm2 = (field.grad_mu**2).sum(axis=1)
            alg = np.abs(ev.d1**2 - ev.d1**2 * gm2 - (ev.d1 * field.eta) ** 2)
            worst_alg = max(worst_alg, alg.max())
        for key in maxima[0]:
            coarse, fine = maxima[0][key], maxima[1][key]
            if coarse < 1e-12:
                continue
            worst_order = min(worst_order, np.log2(coarse / fine))
    elapsed = time.perf_counter() - t0
    ok = worst_order >= 1.8 and worst_alg <= 1e-10 and elapsed < 60.0
    _verdict(3, "fundamental identity suite", ok,
             f"min order {worst_order:.2f}, algebraic item2 {worst_alg:.1e}, "
             f"{elapsed:.1f}s")


def test_criterion_04_stability():
    # eigenvalue floor shrink on mean-convex solver outputs
    eps = {}
    for step in (2e-3, 1e-3):
        sol = solve_rotational_profile(SPEC1, ShootingConfig(
            start=AxisRegular(0.0), s_max=2.0, step=step))
        field = sample_geometry(sol.surface, SPEC1)
        region = np.where(sol.surface.s <= 1.9)[0]
        lam = first_eigenvalue(field, SPEC1, region, tol=1e-9).lambda1
        eps[step] = max(0.0, -lam)
    shrink_ok = eps[1e-3] <= 0.35 * eps[2e-3] + 1e-12

    # Jacobi residual orders
    orders = []
    for maker, spec, direction in (
            (lambda h: solve_translation_profile(SPEC1, ShootingConfig(
                start=PointStart(0.0, 0.0, 0.0), s_max=1.4, step=h)),
             SPEC1, np.array([-1.0, 0.0, 0.0])),
            (lambda h: solve_rotational_profile(SPEC1, ShootingConfig(
                start=AxisRegular(0.0), s_max=2.0, step=h)),
             SPEC1, "log_eta")):
        maxima = []
        for h in (2e-3, 1e-3):
            field = sample_geometry(maker(h).surface, spec)
            rep = jacobi_residual(field, spec, direction,
                                  margin=int(round(8e-3 / h)))
            maxima.append(rep.max_abs_residual)
        orders.append(np.log2(maxima[0] / maxima[1]))

    # flat-disk oracle at h = 1/128
    h = 1.0 / 128.0
    n = int(round(1.25 / h))
    s = h * np.arange(n + 1)
    disk = ProfileCurve(s=s, x=s.copy(), z=np.zeros(n + 1),
                        theta=np.zeros(n + 1), kind="Rotational", step=h)
    dfield = sample_geometry(disk, SPEC0)
    lam_disk = first_eigenvalue(dfield, SPEC0, np.where(s < 1.0)[0],
                                tol=1e-10).lambda1
    disk_ok = abs(lam_disk - 5.7832) / 5.7832 <= 0.01

    ok = shrink_ok and all(o >= 1.8 for o in orders) and disk_ok
    _verdict(4, "stability spectrum and Jacobi fields", ok,
             f"eps {eps[2e-3]:.1e}->{eps[1e-3]:.1e}, "
             f"orders {orders[0]:.2f}/{orders[1]:.2f}, disk {lam_disk:.4f}")


def test_criterion_05_area_bound():
    # flat-plane control at h <= rho/30
    n = 101
    patch = GraphPatch(domain=(-0.5, 0.5, -0.5, 0.5), h=0.01,
                       u=np.zeros((n, n)))
    flat = sample_geometry(patch, SPEC0)
    rep0 = geodesic_disk_area_check(flat, (n // 2) * n + n // 2, 0.3, SPEC0)
    control = rep0.disk_area / (np.pi * 0.09)
    control_ok = 0.95 <= control <= 1.05

    checks = [rep0]
    # bowl graph
    from scipy.interpolate import CubicSpline
    prof = solve_rotational_profile(SPEC1, ShootingConfig(
        start=AxisRegular(0.0), s_max=1.6, step=1e-3)).surface
    spline = CubicSpline(prof.x, prof.z)
    res = solve_graph(SPEC1, (-0.5, 0.5, -0.5, 0.5), 0.01,
                      lambda x, y: spline(np.hypot(x, y)),
                      NewtonConfig(tol_residual=1e-10))
    gfield = sample_geometry(res.surface, SPEC1)
    ng = res.surface.nx
    checks.append(geodesic_disk_area_check(
        gfield, (ng // 2) * ng + ng // 2, 0.3, SPEC1))
    # bowl and quadratic profiles from the pole
    bowl = sample_geometry(solve_rotational_profile(SPEC1, ShootingConfig(
        start=AxisRegular(0.0), s_max=2.0, step=1e-3)).surface, SPEC1)
    checks.append(geodesic_disk_area_check(bowl, 0, 0.3, SPEC1))
    quad = sample_geometry(solve_rotational_profile(SPECQ, ShootingConfig(
        start=AxisRegular(0.0), s_max=1.5, step=1e-3)).surface, SPECQ)
    checks.append(geodesic_disk_area_check(quad, 0, 0.25, SPECQ))

    all_hyp = all(c.hypothesis_ok for c in checks)
    all_pass = all(c.passed and c.disk_area < c.bound for c in checks)
    ok = control_ok and all_hyp and all_pass
    _verdict(5, "geodesic disk area bound", ok,
             f"flat control {control:.3f}, {len(checks)} checks")


def test_criterion_06_density_monotonicity():
    # plane control: closed form r/4 within clipping tolerance
    h = 1.0 / 256.0
    n = int(round(1.2 / h))
    s = h * np.arange(n + 1)
    disk = ProfileCurve(s=s, x=s.copy(), z=np.zeros(n + 1),
                        theta=np.zeros(n + 1), kind="Rotational", step=h)
    dfield = sample_geometry(disk, SPEC1)
    radii = np.linspace(0.05, 0.5, 10)
    plane = density_monotonicity(dfield, 0, radii, SPEC1, 0.9)
    plane_ok = plane.monotone and np.all(
        np.abs(plane.o_values - radii / 4.0) <= plane.tolerance + 1e-12)

    radii = np.linspace(0.04, 0.6, 24)
    hc = 1e-3
    sc = np.arange(-1200, 1201) * hc
    cat = ProfileCurve(s=sc, x=np.sqrt(1 + sc**2), z=np.arcsinh(sc),
                       theta=np.arctan2(1.0, sc), kind="Rotational", step=hc)
    cat_rep = density_monotonicity(sample_geometry(cat, SPEC0), len(sc) // 2,
                                   radii, SPEC1, 0.9)
    bowl = sample_geometry(solve_rotational_profile(SPEC1, ShootingConfig(
        start=AxisRegular(0.0), s_max=2.0, step=1e-3)).surface, SPEC1)
    bowl_rep = density_monotonicity(bowl, 0, radii, SPEC1, 0.9)

    ok = plane_ok and cat_rep.monotone and bowl_rep.monotone
    _verdict(6, "density monotonicity", ok,
             f"plane exact, catenoid/bowl monotone over {len(radii)} radii")


def test_criterion_07_curvature_ratio():
    drifts = []
    for spec in (SPEC1, SPECQ):
        sups = []
        for s_max, step in ((2.0, 2e-3), (4.0, 2e-3), (2.0, 1e-3)):
            sol = solve_rotational_profile(spec, ShootingConfig(
                start=AxisRegular(0.0), s_max=s_max, step=step))
            sups.append(curvature_ratio_sup(
                sample_geometry(sol.surface, spec), spec))
        drifts.append(max(abs(sups[1] - sups[0]), abs(sups[2] - sups[0])) / sups[0])
    reaper = sample_geometry(solve_translation_profile(SPEC1, ShootingConfig(
        start=PointStart(0.0, 0.0, 0.0), s_max=1.4, step=1e-3)).surface, SPEC1)
    sup_reaper = curvature_ratio_sup(reaper, SPEC1)
    ok = all(d <= 0.05 for d in drifts) and abs(sup_reaper - 1.0) <= 2e-3
    _verdict(7, "curvature ratio sup", ok,
             f"drifts {drifts[0]:.3f}/{drifts[1]:.3f}, reaper {sup_reaper:.5f}")


def test_criterion_08_convexity_audit():
    verdicts = {}
    for step in (1e-3, 5e-4):
        bowl = sample_geometry(solve_rotational_profile(SPEC1, ShootingConfig(
            start=AxisRegular(0.0), s_max=2.0, step=step)).surface, SPEC1)
        reaper = sample_geometry(solve_translation_profile(SPEC1, ShootingConfig(
            start=PointStart(0.0, 0.0, 0.0), s_max=1.4, step=step)).surface, SPEC1)
        cat = sample_geometry(solve_rotational_profile(SPEC0, ShootingConfig(
            start=PointStart(1.0, 0.0, np.pi / 2), s_max=1.2, step=step)).surface,
            SPEC0)
        for name, field, spec in (("bowl", bowl, SPEC1),
                                  ("reaper", reaper, SPEC1),
                                  ("catenoid", cat, SPEC0)):
            tol = 10.0 * field.grid_h**2 * float(field.norm_s2().max())
            rep = convexity_report(field, spec)
            verdicts.setdefault(name, []).append(rep.verdict)
            if name in ("bowl", "reaper"):
                assert all(rep.hypotheses.values())
                assert rep.min_K >= -tol
            else:
                assert rep.verdict == "HypothesesFail" and rep.min_K < 0.0
    stable = all(len(set(v)) == 1 for v in verdicts.values())
    expected = (verdicts["bowl"][0] == "ConvexWithinTol"
                and verdicts["reaper"][0] == "ConvexWithinTol"
                and verdicts["catenoid"][0] == "HypothesesFail")
    ok = stable and expected
    _verdict(8, "convexity audit", ok,
             ", ".join(f"{k}={v[0]}" for k, v in verdicts.items()))


def test_criterion_09_blowup():
    sol = solve_rotational_profile(SPEC1, ShootingConfig(
        start=AxisRegular(0.0), s_max=20.0, step=2e-3))
    field = sample_geometry(sol.surface, SPEC1)
    heights = [4.0, 8.0, 16.0]
    bps = [int(np.argmin(np.abs(field.mu - hh))) for hh in heights]
    rep = blowup_rescale(sol, bps, heights, SPEC1, "Plane")
    c2 = [st.c2_distance for st in rep.stages]
    decreasing = c2[0] > c2[1] > c2[2]

    rescaled = rescale_profile(sol.surface, 4.0)
    f2 = sample_geometry(rescaled, pm.PotentialSpec.linear(0.25))
    cov = max(np.abs(f2.k1 - field.k1 / 4.0).max(),
              np.abs(f2.k2 - field.k2 / 4.0).max(),
              np.abs(f2.H - field.H / 4.0).max())
    ok = decreasing and c2[-1] <= 0.05 and cov <= 1e-12
    _verdict(9, "blow-up mechanics", ok,
             f"c2 {c2[0]:.3f}>{c2[1]:.3f}>{c2[2]:.3f}, covariance {cov:.1e}")


def test_criterion_10_determinism_and_formats(tmp_path):
    doc = json.dumps({
        "potential": {"family": "Linear", "slope": 1, "alpha": None},
        "command": "SolveTranslation",
        "command_params": {"start": {"kind": "point", "x0": 0.0, "z0": 0.0,
                                     "theta0": 0.0},
                           "s_max": 2.5, "step": 1e-3},
        "seed": 1,
    })
    blobs = []
    for label in ("r1", "r2", "r3"):
        cfg = parse_config(doc)
        cfg.output_dir = str(tmp_path / label)
        run(cfg)
        blobs.append({
            name: (tmp_path / label / name).read_bytes()
            for name in ("surface.csv", "solve.json")})
    identical = blobs[0] == blobs[1] == blobs[2]
    header = blobs[0]["surface.csv"].decode().splitlines()[0]
    profile_schema_ok = header == "s,x,z,theta,k1,k2,H,K,eta,mu"

    gcfg = parse_config(json.dumps({
        "potential": {"family": "Constant", "c0": 0.0},
        "command": "Export",
        "command_params": {"surface": {"kind": "graph", "domain": [0, 1, 0, 1],
                                       "h": 0.25,
                                       "boundary": {"kind": "constant",
                                                    "value": 0.0}},
                           "formats": ["CSV", "OBJ"]},
    }))
    gcfg.output_dir = str(tmp_path / "g")
    run(gcfg)
    gheader = (tmp_path / "g" / "surface.csv").read_text().splitlines()[0]
    # 3x3 patch meshes to 9 vertices, two triangles per cell
    ocfg = parse_config(json.dumps({
        "potential": {"family": "Constant", "c0": 0.0},
        "command": "Export",
        "command_params": {"surface": {"kind": "graph", "domain": [0, 1, 0, 1],
                                       "h": 0.5,
                                       "boundary": {"kind": "constant",
                                                    "value": 0.0}},
                           "formats": ["OBJ"]},
    }))
    ocfg.output_dir = str(tmp_path / "o")
    run(ocfg)
    obj_lines = (tmp_path / "o" / "surface.obj").read_text().splitlines()
    graph_schema_ok = (gheader == "i,j,x,y,u,H,K,k1,k2,eta"
                       and sum(1 for l in obj_lines if l.startswith("v ")) == 9
                       and sum(1 for l in obj_lines if l.startswith("f ")) == 8)
    ok = identical and profile_schema_ok and graph_schema_ok
    _verdict(10, "determinism and formats", ok,
             f"identical={identical}, schemas ok={profile_schema_ok and graph_schema_ok}")


def test_criterion_11_curvature_estimate():
    def profiles(spec, s_max):
        for step in (2e-3, 1e-3):
            field = sample_geometry(solve_rotational_profile(spec, ShootingConfig(
                start=AxisRegular(0.0), s_max=s_max, step=step)).surface, spec)
            yield field, [0, field.n_samples - 1]

    def reaper_graphs():
        for h in (1 / 16, 1 / 32):
            res = solve_graph(SPEC1, (-1, 1, -1, 1), h,
                              lambda x, y: -np.log(np.cos(x)),
                              NewtonConfig(tol_residual=1e-10))
            assert res.converged
            field = sample_geometry(res.surface, SPEC1)
            yield field, np.where(~field.interior_mask(1))[0]

    cases = [("bowl", SPEC1, profiles(SPEC1, 2.0)),
             ("quadratic bowl", SPECQ, profiles(SPECQ, 1.5)),
             ("reaper graph", SPEC1, reaper_graphs())]
    ok = True
    details = []
    for name, spec, fields in cases:
        sups = []
        for field, boundary in fields:
            geometry = bounded_geometry_check(spec, float(field.mu.min()),
                                              float(field.mu.max()), 65)
            sup = ilmanen_estimate_report(field, spec, boundary).sup_curvature_times_reach
            ok = ok and geometry.bounded and np.isfinite(sup) and sup > 0.0
            sups.append(sup)
        drift = abs(sups[1] - sups[0]) / sups[0]
        ok = ok and drift <= 1e-2
        details.append(f"{name} {sups[1]:.4f} drift {drift:.1e}")
    _verdict(11, "curvature estimate", ok, ", ".join(details))


def test_criterion_12_convexity_proof_ingredients():
    # the k/eta quotient identities: second order in the step, on the grim
    # reaper, the bowl and the quadratic bowl (residuals below 1e-12 skipped)
    cases = [("reaper", SPEC1, solve_translation_profile,
              dict(start=PointStart(0.0, 0.0, 0.0), s_max=1.4)),
             ("bowl", SPEC1, solve_rotational_profile,
              dict(start=AxisRegular(0.0), s_max=2.0)),
             ("quadratic bowl", SPECQ, solve_rotational_profile,
              dict(start=AxisRegular(0.0), s_max=1.5))]
    orders = {}
    for name, spec, solve, kw in cases:
        maxima = []
        for step in (4e-3, 2e-3):
            field = sample_geometry(solve(spec, ShootingConfig(step=step, **kw)).surface,
                                    spec)
            reps = curvature_evolution_residuals(field, spec,
                                                 margin=int(round(2e-2 / step)))
            maxima.append({r.identity_name: r.max_abs_residual for r in reps})
        orders.update({(name, key): float(np.log2(coarse / maxima[1][key]))
                       for key, coarse in maxima[0].items() if coarse >= 1e-12})
    # the Omori-Yau test function 2 log |p| on the bowl: no violation at any
    # interior sample with |p| >= 2
    bowl = sample_geometry(solve_rotational_profile(SPEC1, ShootingConfig(
        start=AxisRegular(5.0), s_max=3.0, step=1e-3)).surface, SPEC1)
    margins = [r.max_abs_residual for r in omori_gamma_check(bowl, SPEC1)]
    ok = min(orders.values()) >= 1.8 and margins == [0.0, 0.0]
    _verdict(12, "convexity proof ingredients", ok,
             f"orders {min(orders.values()):.2f}..{max(orders.values()):.2f} over "
             f"{len(orders)} residuals, Omori-Yau margins {margins}")


def test_criterion_13_first_integrals(first_integral_defects):
    # phi depends on height only, so a translation profile keeps
    # e^phi cos(theta) and a rotational one x e^phi cos(theta) - int e^phi:
    # at steps 8e-3 and 4e-3 their defects are at most 5 h^4 of the largest
    # term and fall at least 2^3.5 times, on a translation profile and on
    # the quadratic bowl, whose coarse defects are above 1e-11
    cases = [("translation", SPECQ, solve_translation_profile,
              dict(start=PointStart(0.0, 1.0, 0.3), s_max=1.0)),
             ("quadratic bowl", SPECQ, solve_rotational_profile,
              dict(start=AxisRegular(0.0), s_max=1.5))]
    ok, details = True, []
    for name, spec, solve, kw in cases:
        defects = [first_integral_defects(spec, solve(spec, ShootingConfig(
            step=step, **kw)).surface) for step in (8e-3, 4e-3)]
        for key, coarse in defects[0].items():
            fine = defects[1][key]
            order = float(np.log2(coarse / fine))
            ok = (ok and coarse > 1e-11 and coarse <= 5.0 * 8e-3**4
                  and fine <= 5.0 * 4e-3**4 and order >= 3.5)
            details.append(f"{name} {key} {coarse:.2e} -> {fine:.2e}, order {order:.2f}")
    _verdict(13, "first integrals", ok, "; ".join(details))
