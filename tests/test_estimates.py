import numpy as np
import pytest

import phimin as pm
from phimin.estimates import (PatchExceededError, WindowUnderflowError,
                              blowup_rescale, convexity_report,
                              curvature_ratio_sup, density_monotonicity,
                              geodesic_disk_area_check, ilmanen_estimate_report,
                              omori_gamma_check, rescale_profile)
from phimin.solvers import (AxisRegular, PointStart, ShootingConfig,
                            solve_rotational_profile,
                            solve_translation_profile)
from phimin.surface_geometry import GraphPatch, sample_geometry


def _flat_graph(spec, n=101, h=0.01, height=0.0):
    half = h * (n - 1) / 2
    patch = GraphPatch(domain=(-half, half, -half, half), h=h,
                       u=np.full((n, n), height))
    return sample_geometry(patch, spec), (n // 2) * n + n // 2


# -- geodesic disk area -------------------------------------------------------

def test_flat_plane_area_control(spec_zero):
    field, center = _flat_graph(spec_zero)
    rep = geodesic_disk_area_check(field, center, 0.3, spec_zero, 0.0)
    assert 0.95 <= rep.disk_area / (np.pi * 0.3**2) <= 1.05
    assert rep.passed


def test_bowl_graph_area_check(spec_linear):
    from phimin.solvers import NewtonConfig, solve_graph
    from scipy.interpolate import CubicSpline
    prof = solve_rotational_profile(
        spec_linear, ShootingConfig(start=AxisRegular(0.0), s_max=1.6, step=1e-3))
    spline = CubicSpline(prof.surface.x, prof.surface.z)
    res = solve_graph(spec_linear, (-0.5, 0.5, -0.5, 0.5), 1 / 100,
                      lambda x, y: spline(np.hypot(x, y)),
                      NewtonConfig(tol_residual=1e-10))
    field = sample_geometry(res.surface, spec_linear)
    n = res.surface.nx
    center = (n // 2) * n + n // 2
    rep = geodesic_disk_area_check(field, center, 0.3, spec_linear, -1.0)
    # 2 rho phi'(rho + mu(p)) = 0.6 < log 2 and sqrt(|Gamma|) rho < 1
    assert rep.hypothesis_ok
    assert rep.passed and rep.disk_area < rep.bound


def test_bowl_profile_pole_area_check(bowl_field, spec_linear):
    rep = geodesic_disk_area_check(bowl_field, 0, 0.3, spec_linear, -1.0)
    assert rep.hypothesis_ok and rep.passed


def test_hypothesis_gate_reports_without_asserting(bowl_field, spec_linear):
    # large slope window: 2 rho phi' >= log 2, the gate must open
    rep = geodesic_disk_area_check(bowl_field, 0, 0.5, spec_linear, -1.0)
    assert not rep.hypothesis_ok
    assert rep.disk_area > 0.0  # still recorded


def test_patch_exceeded(bowl_field, spec_linear):
    with pytest.raises(PatchExceededError):
        geodesic_disk_area_check(bowl_field, 0, 5.0, spec_linear, -1.0)


def test_translation_disk_is_flat(reaper_field, spec_linear):
    # ruled surfaces are intrinsically flat: exact pi rho^2 up to the
    # O(h^(3/2)) rim error of the chord quadrature
    rep = geodesic_disk_area_check(reaper_field, 700, 0.2, spec_linear, -1.0)
    assert rep.disk_area == pytest.approx(np.pi * 0.04, rel=5e-4)


# -- density monotonicity -----------------------------------------------------

def test_plane_density_closed_form(spec_linear):
    h = 1.0 / 256.0
    n = int(round(1.2 / h))
    s = h * np.arange(n + 1)
    disk = pm.ProfileCurve(s=s, x=s.copy(), z=np.zeros(n + 1),
                           theta=np.zeros(n + 1), kind="Rotational", step=h)
    field = sample_geometry(disk, spec_linear)
    radii = np.linspace(0.05, 0.5, 10)
    rep = density_monotonicity(field, 0, radii, spec_linear, 0.9)
    assert rep.monotone
    assert np.all(np.abs(rep.o_values - radii / 4.0) <= rep.tolerance + 1e-12)


def test_catenoid_density_monotone(catenoid_two_sided, spec_zero, spec_linear):
    field = sample_geometry(catenoid_two_sided, spec_zero)
    neck = len(catenoid_two_sided.s) // 2
    radii = np.linspace(0.04, 0.6, 24)
    rep = density_monotonicity(field, neck, radii, spec_linear, 0.9)
    assert rep.monotone


def test_bowl_density_monotone(bowl_field, spec_linear):
    radii = np.linspace(0.04, 0.6, 24)
    rep = density_monotonicity(bowl_field, 0, radii, spec_linear, 0.9)
    assert rep.monotone


def test_single_radius_trivially_monotone(bowl_field, spec_linear):
    rep = density_monotonicity(bowl_field, 0, [0.2], spec_linear, 0.9)
    assert rep.monotone


def test_density_radius_window_enforced(bowl_field, spec_linear):
    with pytest.raises(ValueError):
        density_monotonicity(bowl_field, 0, [0.5, 1.5], spec_linear, 0.9)


def test_density_weighted_variant_recorded(bowl_field, spec_linear):
    rep = density_monotonicity(bowl_field, 0, [0.1, 0.2], spec_linear, 0.9,
                               weighted_variant=True)
    assert rep.o_values_weighted is not None
    assert np.all(rep.o_values_weighted > 0.0)


def test_density_radii_share_setup_without_mixing(spec_linear):
    # one call over several radii equals one call per radius, bit for bit
    h = 1 / 32
    xs = -1 + h * np.arange(65)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    patch = GraphPatch(domain=(-1, 1, -1, 1), h=h,
                       u=0.25 * (X**2 + Y**2) + 0.1 * np.sin(3 * X) * Y)
    field = sample_geometry(patch, spec_linear)
    center = 32 * 65 + 32
    radii = [0.1, 0.25, 0.4]
    rep = density_monotonicity(field, center, radii, spec_linear, 0.9,
                               weighted_variant=True)
    for k, r in enumerate(radii):
        one = density_monotonicity(field, center, [r], spec_linear, 0.9,
                                   weighted_variant=True)
        assert one.o_values[0] == rep.o_values[k]
        assert one.tolerance[0] == rep.tolerance[k]
        assert one.o_values_weighted[0] == rep.o_values_weighted[k]


# -- curvature ratio ----------------------------------------------------------

def test_vertical_plane_ratio_zero(vertical_plane_profile, spec_linear):
    field = sample_geometry(vertical_plane_profile, spec_linear)
    assert curvature_ratio_sup(field, spec_linear) <= 1e-12


def test_grim_reaper_ratio_is_one(reaper_field, spec_linear):
    sup = curvature_ratio_sup(field=reaper_field, spec=spec_linear)
    assert sup == pytest.approx(1.0, abs=2e-3)


def test_ratio_requires_positive_slope(bowl_field, spec_zero):
    with pytest.raises(ValueError):
        curvature_ratio_sup(bowl_field, spec_zero)


def test_ratio_invariant_under_horizontal_translation(spec_linear):
    rng = np.random.default_rng(2)
    u = 1.0 + 0.02 * rng.standard_normal((17, 17))
    f1 = sample_geometry(GraphPatch(domain=(0, 1, 0, 1), h=1 / 16, u=u), spec_linear)
    f2 = sample_geometry(GraphPatch(domain=(7, 8, -3, -2), h=1 / 16, u=u.copy()),
                         spec_linear)
    assert curvature_ratio_sup(f1, spec_linear) == curvature_ratio_sup(f2, spec_linear)


def test_ratio_stabilises_under_window_and_grid(spec_linear, spec_quadratic):
    for spec in (spec_linear, spec_quadratic):
        sups = []
        for s_max, step in ((2.0, 2e-3), (4.0, 2e-3), (2.0, 1e-3)):
            sol = solve_rotational_profile(
                spec, ShootingConfig(start=AxisRegular(0.0), s_max=s_max, step=step))
            sups.append(curvature_ratio_sup(sample_geometry(sol.surface, spec), spec))
        base = sups[0]
        assert abs(sups[1] - base) <= 0.05 * base
        assert abs(sups[2] - base) <= 0.05 * base


# -- convexity ----------------------------------------------------------------

def _tol_for(field):
    return 10.0 * field.grid_h**2 * max(float(field.norm_s2().max()), 1.0)


def test_bowl_convex(bowl_field, spec_linear):
    rep = convexity_report(bowl_field, spec_linear, _tol_for(bowl_field))
    assert rep.verdict == "ConvexWithinTol"
    assert rep.min_K >= -_tol_for(bowl_field)
    assert rep.theta_sup < 0.0  # larger curvature strictly negative
    assert rep.lambda_K_inf == 0.0


def test_reaper_flat_boundary_case(reaper_field, spec_linear):
    rep = convexity_report(reaper_field, spec_linear, _tol_for(reaper_field))
    assert rep.verdict == "ConvexWithinTol"
    assert rep.min_K == pytest.approx(0.0, abs=1e-12)
    assert rep.min_k2 == 0.0


def test_catenoid_hypotheses_fail(catenoid_field, spec_zero):
    rep = convexity_report(catenoid_field, spec_zero, _tol_for(catenoid_field))
    assert rep.verdict == "HypothesesFail"
    assert not rep.hypotheses["c1"]
    assert rep.min_K < 0.0


def test_quadratic_bowl_convex(quad_bowl, spec_quadratic):
    field = sample_geometry(quad_bowl.surface, spec_quadratic)
    rep = convexity_report(field, spec_quadratic, _tol_for(field))
    assert rep.hypotheses["d3_nonpositive"]
    assert rep.verdict == "ConvexWithinTol"


# -- conformal curvature-distance report -------------------------------------

def test_vertical_strip_conformal_curvature_zero(spec_linear):
    n = 200
    s = 1e-2 * np.arange(n + 1)
    strip = pm.ProfileCurve(s=s, x=np.ones(n + 1), z=s + 1.0,
                            theta=np.full(n + 1, np.pi / 2),
                            kind="TranslationInvariant", step=1e-2)
    field = sample_geometry(strip, spec_linear)
    rep = ilmanen_estimate_report(field, spec_linear, [0, n])
    assert rep.sup_conformal_curvature <= 1e-12
    assert rep.sup_curvature_times_reach <= 1e-12


def test_flat_patch_with_zero_weight(spec_zero):
    field, _ = _flat_graph(spec_zero, n=33, h=0.05)
    boundary = np.where(~field.interior_mask(1))[0]
    rep = ilmanen_estimate_report(field, spec_zero, boundary)
    assert rep.sup_conformal_curvature <= 1e-12


def test_bowl_report_stable_under_refinement(spec_linear):
    sups = []
    for step in (2e-3, 1e-3):
        sol = solve_rotational_profile(
            spec_linear, ShootingConfig(start=AxisRegular(0.0), s_max=2.0, step=step))
        field = sample_geometry(sol.surface, spec_linear)
        rep = ilmanen_estimate_report(field, spec_linear, [0, field.n_samples - 1])
        sups.append(rep.sup_curvature_times_reach)
    assert sups[0] > 0.0
    assert abs(sups[1] - sups[0]) <= 0.03 * sups[0]


# -- blow-up ------------------------------------------------------------------

@pytest.fixture(scope="module")
def tall_bowl(spec_linear):
    cfg = ShootingConfig(start=AxisRegular(0.0), s_max=20.0, step=2e-3)
    return solve_rotational_profile(spec_linear, cfg)


def test_bowl_plane_blowup(tall_bowl, spec_linear):
    field = sample_geometry(tall_bowl.surface, spec_linear)
    heights = [4.0, 8.0, 16.0]
    bps = [int(np.argmin(np.abs(field.mu - h))) for h in heights]
    rep = blowup_rescale(tall_bowl, bps, heights, spec_linear, "Plane")
    c2 = [st.c2_distance for st in rep.stages]
    assert c2[0] > c2[1] > c2[2]
    assert c2[-1] <= 0.05
    ratios = [st.slope_ratio for st in rep.stages]
    assert ratios == pytest.approx([1 / 4, 1 / 8, 1 / 16], rel=0.02)


def test_identity_rescale_matches_bowl_model(tall_bowl, spec_linear):
    rep = blowup_rescale(tall_bowl, [0], [1.0], spec_linear, "Bowl")
    assert rep.hausdorff_distance <= 1e-8
    assert rep.c2_distance <= 1e-6


def test_quadratic_tips_approach_unit_bowl(spec_quadratic):
    # tip rescalings of solves at increasing heights, scale = slope there
    sources, bps, scales = [], [], []
    for z0 in (3.0, 7.0, 15.0):
        lam = pm.eval_potential(spec_quadratic, z0).d1
        cfg = ShootingConfig(start=AxisRegular(z0), s_max=2.5 / lam, step=2e-3 / lam)
        sources.append(solve_rotational_profile(spec_quadratic, cfg))
        bps.append(0)
        scales.append(lam)
    rep = blowup_rescale(sources, bps, scales, spec_quadratic, "Bowl")
    c2 = [st.c2_distance for st in rep.stages]
    assert rep.slope_constant == pytest.approx(1.0)
    assert c2[0] > c2[-1]
    assert c2[-1] <= 0.05


def test_rescaling_covariance_exact(tall_bowl, spec_linear):
    lam = 4.0
    field = sample_geometry(tall_bowl.surface, spec_linear)
    rescaled = rescale_profile(tall_bowl.surface, lam, 0)
    f2 = sample_geometry(rescaled, pm.PotentialSpec.linear(1.0 / lam))
    assert np.abs(f2.k1 - field.k1 / lam).max() <= 1e-12
    assert np.abs(f2.k2 - field.k2 / lam).max() <= 1e-12
    assert np.abs(f2.H - field.H / lam).max() <= 1e-12
    assert np.abs(f2.K - field.K / lam**2).max() <= 1e-12


def test_window_underflow(tall_bowl, spec_linear):
    field = sample_geometry(tall_bowl.surface, spec_linear)
    last = field.n_samples - 1
    with pytest.raises(WindowUnderflowError):
        blowup_rescale(tall_bowl, [last], [2.0], spec_linear, "Plane")


def test_scales_must_increase(tall_bowl, spec_linear):
    with pytest.raises(ValueError):
        blowup_rescale(tall_bowl, [0, 0], [2.0, 1.0], spec_linear, "Plane")


# -- drift maximum-principle test function -----------------------------------

def test_omori_bounds_on_flat_plane(spec_zero):
    field, _ = _flat_graph(spec_zero, n=81, h=0.1, height=1.0)
    grad_rep, lap_rep = omori_gamma_check(field, spec_zero)
    assert grad_rep.max_abs_residual == 0.0
    assert lap_rep.max_abs_residual == 0.0


def test_omori_bounds_on_bowl_patch(spec_linear):
    cfg = ShootingConfig(start=AxisRegular(5.0), s_max=3.0, step=1e-3)
    sol = solve_rotational_profile(spec_linear, cfg)
    field = sample_geometry(sol.surface, spec_linear)
    grad_rep, lap_rep = omori_gamma_check(field, spec_linear)
    assert grad_rep.max_abs_residual == 0.0
    assert lap_rep.max_abs_residual == 0.0


def test_omori_gradient_bound_is_generic(reaper_field, spec_linear):
    # |grad gamma| <= 2/|p| <= 2 wherever |p| >= 1, any surface
    shifted = pm.ProfileCurve(
        s=reaper_field.source.s, x=reaper_field.source.x,
        z=reaper_field.source.z + 3.0, theta=reaper_field.source.theta,
        kind="TranslationInvariant", step=reaper_field.source.step)
    field = sample_geometry(shifted, spec_linear)
    grad_rep, _ = omori_gamma_check(field, spec_linear, min_radius=1.0)
    assert grad_rep.max_abs_residual == 0.0


def test_omori_origin_proximity(spec_zero):
    field, _ = _flat_graph(spec_zero, n=21, h=0.01, height=0.0)
    with pytest.raises(pm.estimates.OriginProximityError):
        omori_gamma_check(field, spec_zero, min_radius=5.0)


# -- geodesic area hypothesis gate --------------------------------------------

def test_area_gate_outside_weight_domain_reports_false(spec_zero):
    # the gate evaluates phi' at rho + mu(p) = 0.3, below alpha = 1
    field, center = _flat_graph(spec_zero)
    spec = pm.PotentialSpec.linear(1.0, alpha=1.0)
    rep = geodesic_disk_area_check(field, center, 0.3, spec, 0.0)
    assert not rep.hypothesis_ok
    assert rep.disk_area > 0.0


def test_area_gate_lets_other_errors_through(bowl_field, spec_linear, monkeypatch):
    from phimin import estimates

    def broken(spec, z):
        raise ZeroDivisionError("not a domain exit")

    monkeypatch.setattr(estimates, "eval_potential", broken)
    with pytest.raises(ZeroDivisionError):
        geodesic_disk_area_check(bowl_field, 0, 0.3, spec_linear, -1.0)


# -- blocked window sampler against the per-sample loop -----------------------

def _window_samples_loop(curve, field, p, lam, window):
    """The per-sample construction the blocked sampler must reproduce."""
    s_half = 1.5 * window / lam
    idx = np.where(np.abs(curve.s - curve.s[p]) <= s_half)[0]
    base = field.positions[p]
    if curve.kind == "Rotational":
        x_p = curve.x[p]
        v_half = (min(np.pi, 1.5 * window / (lam * max(x_p - s_half, 1e-6)))
                  if x_p > 1e-10 else np.pi)
        vs = np.linspace(-v_half, v_half, 65)
    else:
        ys = np.linspace(-s_half, s_half, 65)
    pts, etas, Hs, Ks = [], [], [], []
    for i in idx:
        if curve.kind == "Rotational":
            chart = np.stack([curve.x[i] * np.cos(vs), curve.x[i] * np.sin(vs),
                              np.full_like(vs, curve.z[i])], axis=1)
        else:
            chart = np.stack([np.full_like(ys, curve.x[i]), ys,
                              np.full_like(ys, curve.z[i])], axis=1)
        q = lam * (chart - base)
        keep = np.linalg.norm(q, axis=1) <= window
        pts.append(q[keep])
        etas.append(np.full(keep.sum(), field.eta[i]))
        Hs.append(np.full(keep.sum(), field.H[i] / lam))
        Ks.append(np.full(keep.sum(), field.K[i] / lam**2))
    return tuple(np.concatenate(a) for a in (pts, etas, Hs, Ks))


@pytest.mark.parametrize("case", ["axis", "off_axis", "translation"])
def test_window_samples_match_per_sample_loop(case, tall_bowl, spec_linear):
    from phimin.estimates import _WINDOW_BLOCK, _window_samples
    if case == "translation":
        res = solve_translation_profile(spec_linear, ShootingConfig(
            start=PointStart(0.0, 0.0, 0.0), s_max=1.4, step=2e-4))
    else:
        res = tall_bowl
    curve = res.surface
    field = sample_geometry(curve, spec_linear)
    p, lam = {"axis": (0, 0.5),
              "off_axis": (int(np.argmin(np.abs(field.mu - 4.0))), 1.0),
              "translation": (len(curve) // 2, 2.5)}[case]
    s_half = 1.5 / lam
    assert np.sum(np.abs(curve.s - curve.s[p]) <= s_half) > 2 * _WINDOW_BLOCK
    if case == "off_axis":
        assert 1.5 / (lam * (curve.x[p] - s_half)) < np.pi  # a partial ring
    got = _window_samples(curve, field, p, lam, 1.0)
    want = _window_samples_loop(curve, field, p, lam, 1.0)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_blowup_samples_a_shared_source_once(tall_bowl, spec_linear, monkeypatch):
    import phimin.estimates as est
    real = est.sample_geometry
    calls = []
    monkeypatch.setattr(est, "sample_geometry",
                        lambda *args: calls.append(1) or real(*args))
    field = real(tall_bowl.surface, spec_linear)
    heights = [4.0, 8.0, 16.0]
    bps = [int(np.argmin(np.abs(field.mu - h))) for h in heights]
    rep = blowup_rescale(tall_bowl, bps, heights, spec_linear, "Plane")
    assert len(calls) == 1
    # each stage is what a one-stage call on the same point gives
    for stage, bp, h in zip(rep.stages, bps, heights):
        alone = blowup_rescale(tall_bowl, [bp], [h], spec_linear, "Plane").stages[0]
        assert (stage.slope_ratio, stage.hausdorff_distance, stage.c2_distance,
                stage.n_window_samples) == (alone.slope_ratio, alone.hausdorff_distance,
                                            alone.c2_distance, alone.n_window_samples)
    assert len(calls) == 4


# -- vectorised conformal report against the per-height loop -------------------

def _ilmanen_report_loop(field, spec, boundary):
    """The report with the conformal curvatures written out and one
    frame_quantities call per height."""
    from phimin.estimates import _lattice_distances
    from phimin.ilmanen import frame_quantities

    boundary = np.asarray(sorted(set(int(b) for b in boundary)), dtype=np.int64)
    ev = pm.eval_potential(spec, field.mu)
    half_slope = 0.5 * ev.d1 * field.eta
    scale = np.exp(-ev.phi / 2.0)
    k1c = scale * (field.k1 + half_slope)
    k2c = scale * (field.k2 + half_slope)
    s_conf = np.sqrt(k1c**2 + k2c**2)
    conf = np.exp(ev.phi / 2.0)
    if field.is_profile:
        edge = 0.5 * (conf[:-1] + conf[1:]) * field.source.step
        cum = np.concatenate([[0.0], np.cumsum(edge)])
        d_phi = np.min(np.abs(cum[:, None] - cum[None, boundary]), axis=1)
    else:
        patch = field.source
        pos = field.positions.reshape(patch.nx, patch.ny, 3)
        d_phi = _lattice_distances(
            pos, boundary, conformal_weight=conf.reshape(patch.nx, patch.ny)).ravel()
    sup_k = sup_grad = 0.0
    off = ~np.eye(3, dtype=bool)
    for z in np.linspace(float(field.mu.min()), float(field.mu.max()), 65):
        fq = frame_quantities(spec, z)
        sup_k = max(sup_k, float(np.abs(fq.sectional[off]).max()))
        sup_grad = max(sup_grad, float(np.abs(fq.curvature_gradient_e3[off]).max()))
    reach = 1.0 / (sup_k + np.sqrt(sup_grad)) if (sup_k + np.sqrt(sup_grad)) > 0 else np.inf
    spectral = np.pi / (2.0 * np.sqrt(sup_k)) if sup_k > 0 else np.inf
    return (float(np.max(s_conf * np.minimum(d_phi, reach))),
            float(np.max(s_conf * np.minimum(d_phi, spectral))),
            float(reach), float(sup_k), float(s_conf.max()))


def test_ilmanen_report_matches_the_loop(bowl_field, reaper_field, quad_bowl,
                                         spec_linear, spec_quadratic):
    from dataclasses import astuple

    rng = np.random.default_rng(5)
    u = 0.5 + 0.05 * rng.standard_normal((17, 17))
    patch = GraphPatch(domain=(0, 1, 0, 1), h=1 / 16, u=u)
    cases = [(bowl_field, spec_linear), (reaper_field, spec_linear),
             (sample_geometry(quad_bowl.surface, spec_quadratic), spec_quadratic),
             (sample_geometry(patch, spec_quadratic), spec_quadratic)]
    for field, spec in cases:
        boundary = np.where(~field.interior_mask(1))[0]
        rep = ilmanen_estimate_report(field, spec, boundary)
        want = _ilmanen_report_loop(field, spec, boundary)
        assert [v.hex() for v in astuple(rep)] == [v.hex() for v in want]
