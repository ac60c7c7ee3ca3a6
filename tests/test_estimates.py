import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phimin as pm
from phimin.estimates import (CenterIndexError, PatchExceededError,
                              WindowUnderflowError, _clipped_areas,
                              _plane_distance, _plane_normal,
                              _window_samples, blowup_rescale, convexity_report,
                              curvature_ratio_sup, density_monotonicity,
                              geodesic_disk_area_check, ilmanen_estimate_report,
                              omori_gamma_check, rescale_profile)
from phimin.solvers import (AxisRegular, NewtonConfig, PointStart,
                            ShootingConfig, solve_graph,
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
    rep = geodesic_disk_area_check(field, center, 0.3, spec_zero)
    assert 0.95 <= rep.disk_area / (np.pi * 0.3**2) <= 1.05
    assert rep.passed


def test_bowl_graph_area_check(spec_linear):
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
    rep = geodesic_disk_area_check(field, center, 0.3, spec_linear)
    # 2 rho phi'(rho + mu(p)) = 0.6 < log 2 and sqrt(|Gamma|) rho < 1
    assert rep.hypothesis_ok
    assert rep.passed and rep.disk_area < rep.bound


def test_bowl_profile_pole_area_check(bowl_field, spec_linear):
    rep = geodesic_disk_area_check(bowl_field, 0, 0.3, spec_linear)
    assert rep.hypothesis_ok and rep.passed


def test_hypothesis_gate_reports_without_asserting(bowl_field, spec_linear):
    # large slope window: 2 rho phi' >= log 2, the gate must open
    rep = geodesic_disk_area_check(bowl_field, 0, 0.5, spec_linear)
    assert not rep.hypothesis_ok
    assert rep.disk_area > 0.0  # still recorded


def test_patch_exceeded(bowl_field, spec_linear):
    with pytest.raises(PatchExceededError):
        geodesic_disk_area_check(bowl_field, 0, 5.0, spec_linear)


def test_rotational_disk_off_the_axis_sample_is_refused_before_any_work(
        bowl_field, catenoid_field, spec_linear, spec_zero, monkeypatch):
    def no_work(*args):
        raise AssertionError("the centre rule is checked first")

    monkeypatch.setattr(pm.potential, "check_conditions", no_work)
    with pytest.raises(CenterIndexError, match="^17 is not the axis sample 0"):
        geodesic_disk_area_check(bowl_field, 17, 0.3, spec_linear)
    # sample 0 of a profile shot from a point off the axis
    with pytest.raises(CenterIndexError, match="^0 is not the axis sample 0"):
        geodesic_disk_area_check(catenoid_field, 0, 0.3, spec_zero)


def test_translation_disk_is_flat(reaper_field, spec_linear):
    # ruled surfaces are intrinsically flat: exact pi rho^2 up to the
    # O(h^(3/2)) rim error of the chord quadrature
    rep = geodesic_disk_area_check(reaper_field, 700, 0.2, spec_linear)
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


def test_translation_ball_area_of_a_plane(spec_zero):
    # the Constant translation line is a tilted plane, so the ball about a
    # middle sample holds the disk pi r^2; the curve ends 1 from its middle
    res = solve_translation_profile(spec_zero, ShootingConfig(
        start=PointStart(-1.0, 0.0, 0.3), s_max=2.0, step=1e-3))
    field, q = res.field, res.surface.s.size // 2
    radii = np.array([0.1, 0.3, 0.5])
    areas, tols = _clipped_areas(field, q, radii)
    assert np.all(np.abs(areas - np.pi * radii**2) <= tols)
    with pytest.raises(PatchExceededError):
        density_monotonicity(field, q, [1.5], spec_zero, 2.0)


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
    rep = density_monotonicity(field, center, radii, spec_linear, 0.9)
    for k, r in enumerate(radii):
        one = density_monotonicity(field, center, [r], spec_linear, 0.9)
        assert one.o_values[0] == rep.o_values[k]
        assert one.tolerance[0] == rep.tolerance[k]


def test_graph_disk_and_ball_at_the_patch_edge_are_refused(spec_zero):
    # the centre sits 0.2 from the edge x = -0.5 of a flat patch: a disk or
    # ball of radius 0.19 stays clear of it, one of radius 0.21 reaches it
    field, center = _flat_graph(spec_zero)
    near_edge = center - 30 * 101
    rep = geodesic_disk_area_check(field, near_edge, 0.19, spec_zero)
    assert rep.disk_area > 0.0
    with pytest.raises(PatchExceededError, match="geodesic disk touches"):
        geodesic_disk_area_check(field, near_edge, 0.21, spec_zero)
    rep = density_monotonicity(field, near_edge, [0.1, 0.19], spec_zero, 0.9)
    assert rep.o_values.size == 2
    with pytest.raises(PatchExceededError, match="ball reaches the patch"):
        density_monotonicity(field, near_edge, [0.1, 0.21], spec_zero, 0.9)


# -- graph audits against the whole lattice -----------------------------------

def _whole_lattice_disk_area(field, p, rho):
    """The graph disk area with Dijkstra and cell areas over the whole
    once-refined lattice."""
    from phimin.estimates import _cell_areas, _graph_lattice, _lattice_distances

    pos, _ = _graph_lattice(field)
    pi, pj = divmod(int(p), field.source.ny)
    inside = _lattice_distances(pos, [(2 * pi) * pos.shape[1] + 2 * pj]) < rho
    edge = np.zeros_like(inside)
    edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
    if np.any(inside & edge):
        raise PatchExceededError("geodesic disk touches the sample boundary")
    corner_count = (inside[:-1, :-1].astype(float) + inside[1:, :-1]
                    + inside[:-1, 1:] + inside[1:, 1:])
    return float(np.sum(_cell_areas(pos) * corner_count / 4.0))


def _whole_lattice_clipped_areas(field, q, radii):
    """The graph ball areas and tolerances with every cell of the whole
    once-refined lattice clipped."""
    from phimin.estimates import _cell_areas, _graph_lattice

    pos, h = _graph_lattice(field)
    cell_areas = _cell_areas(pos)
    sub = np.linspace(1.0 / 8.0, 7.0 / 8.0, 4)
    fracs = np.zeros((radii.size,) + cell_areas.shape)
    for sx in sub:
        for sy in sub:
            pt = ((1 - sx) * (1 - sy) * pos[:-1, :-1] + sx * (1 - sy) * pos[1:, :-1]
                  + (1 - sx) * sy * pos[:-1, 1:] + sx * sy * pos[1:, 1:])
            dist = np.linalg.norm(pt - field.positions[q], axis=-1)
            for frac, r in zip(fracs, radii):
                frac += (dist < r)
    edge = np.zeros(cell_areas.shape, dtype=bool)
    edge[0, :] = edge[-1, :] = edge[:, 0] = edge[:, -1] = True
    areas, tols = np.empty(radii.size), np.empty(radii.size)
    for k, (frac, r) in enumerate(zip(fracs, radii)):
        frac /= 16.0
        if np.any((frac > 0) & edge):
            raise PatchExceededError("ball reaches the patch boundary")
        areas[k] = np.sum(cell_areas * frac)
        tols[k] = np.sum(cell_areas[(frac > 0) & (frac < 1)]) / 16.0 + 2.0 * r * h
    return areas, tols


def _hex_or_error(f, *args):
    try:
        out = f(*args)
    except PatchExceededError as exc:
        return type(exc)
    return [v.hex() for v in np.ravel(out)]


def test_graph_audits_on_the_reachable_block_match_the_whole_lattice(spec_linear):
    import phimin.estimates as est

    # a 49 x 33 grid: the centres are its middle, a sample next to each edge,
    # samples 0.125 from each edge, one 0.25 from two edges and two corners;
    # the patch clips the block of most disks and balls, and 30 of those
    # keep clear of its edge, so give an area
    h = 1 / 32
    domain = (-0.75, 0.75, -0.5, 0.5)
    X, Y = GraphPatch(domain, h, np.zeros((49, 33))).grid()
    centres = [(24, 16), (1, 16), (47, 16), (24, 1), (24, 31), (4, 16), (44, 16),
               (24, 4), (24, 28), (8, 8), (0, 0), (48, 32)]
    outcomes = []
    for u in (np.zeros_like(X), 1.5 * (X**2 + Y**2), 1.5 * X - 0.5 * Y):
        field = sample_geometry(GraphPatch(domain, h, u), spec_linear)
        for i, j in centres:
            p = i * 33 + j
            for rho in (0.1, 0.2, 0.4):
                got = _hex_or_error(est._graph_disk_area, field, p, rho)
                assert got == _hex_or_error(_whole_lattice_disk_area, field, p, rho)
                outcomes.append(got is PatchExceededError)
            for radii in (np.array([0.05, 0.1]), np.array([0.1, 0.2, 0.4])):
                got = _hex_or_error(est._clipped_areas, field, p, radii)
                assert got == _hex_or_error(_whole_lattice_clipped_areas, field, p, radii)
                outcomes.append(got is PatchExceededError)
    # 126 refusals and 54 areas
    assert sum(outcomes) > 100 and len(outcomes) - sum(outcomes) > 50


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

def test_bowl_convex(bowl_field, spec_linear):
    rep = convexity_report(bowl_field, spec_linear)
    assert rep.verdict == "ConvexWithinTol"
    assert rep.min_K >= -rep.tol
    assert rep.theta_sup < 0.0  # larger curvature strictly negative
    assert rep.lambda_K_inf == 0.0


def test_reaper_flat_boundary_case(reaper_field, spec_linear):
    rep = convexity_report(reaper_field, spec_linear)
    assert rep.verdict == "ConvexWithinTol"
    assert rep.min_K == pytest.approx(0.0, abs=1e-12)
    assert rep.min_k2 == 0.0


def test_catenoid_hypotheses_fail(catenoid_field, spec_zero):
    rep = convexity_report(catenoid_field, spec_zero)
    assert rep.verdict == "HypothesesFail"
    assert not rep.hypotheses["c1"]
    assert rep.min_K < 0.0


def test_flat_graph_gates_on_a_widened_height_window(spec_zero):
    # a horizontal plane has one height, an empty window that
    # check_conditions refuses (PotentialDomainError); the gates are read on
    # [z, z + 1] instead, where the Constant weight fails c1
    field, _ = _flat_graph(spec_zero, n=17, h=1 / 8, height=0.25)
    rep = convexity_report(field, spec_zero)
    assert rep.verdict == "HypothesesFail"
    assert not rep.hypotheses["c1"]


def test_saddle_graph_meets_every_hypothesis_and_is_not_convex(spec_linear):
    # mean convexity alone does not make a compact patch convex: a saddle
    # of Dirichlet data passes every gate, and only properness, which the
    # convexity result also assumes, rules it out
    res = solve_graph(spec_linear, (-0.5, 0.5, -0.5, 0.5), 1 / 16,
                      lambda x, y: 0.3 * (x**2 - y**2), NewtonConfig())
    field = sample_geometry(res.surface, spec_linear)
    rep = convexity_report(field, spec_linear)
    assert res.converged and all(rep.hypotheses.values())
    # min K = -5.01 against tol 0.397
    assert rep.verdict == "NotConvex" and rep.min_K < -10.0 * rep.tol


def test_quadratic_bowl_convex(quad_bowl, spec_quadratic):
    field = sample_geometry(quad_bowl.surface, spec_quadratic)
    rep = convexity_report(field, spec_quadratic)
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


def _svd_plane_distance(pts, etas, Hs, normals_eta_sign):
    """The earlier plane fit, kept as the reference: the normal is the last
    right singular vector of a thin SVD of the whole centred window.
    Returns (normal, hausdorff, c2)."""
    centred = pts - pts.mean(axis=0)
    _, _, vt = np.linalg.svd(centred, full_matrices=False)
    n_hat = vt[-1]
    if n_hat[2] * normals_eta_sign < 0:
        n_hat = -n_hat
    hausdorff = float(np.abs(centred @ n_hat).max())
    c2 = float(max(np.abs(etas - n_hat[2]).max(), np.abs(Hs).max()))
    return n_hat, hausdorff, c2


def _assert_plane_fit_matches_svd(pts, etas, Hs, sign):
    ref_n, ref_hd, ref_c2 = _svd_plane_distance(pts, etas, Hs, sign)
    centred = pts - pts.mean(axis=0)
    n_hat = _plane_normal(centred, sign)
    hd, c2 = _plane_distance(pts, etas, Hs, sign)
    assert n_hat[2] * sign >= 0.0
    assert min(np.abs(n_hat - ref_n).max(), np.abs(n_hat + ref_n).max()) <= 1e-12
    # |max |c.n| - max |c.m|| <= max |c| |n - m|, up to the rounding of the
    # dot products; on a window flat to rounding that is all there is
    radius = np.linalg.norm(centred, axis=1).max()
    dn = min(np.linalg.norm(n_hat - ref_n), np.linalg.norm(n_hat + ref_n))
    assert abs(hd - ref_hd) <= radius * (dn + 8 * np.finfo(float).eps)
    if ref_hd >= 1e-3 * radius:
        assert hd == pytest.approx(ref_hd, rel=1e-12, abs=0.0)
    if np.abs(Hs).max() >= np.abs(etas - ref_n[2]).max():
        assert c2 == ref_c2
    else:
        # the eta term is 1-Lipschitz in the normal's z component, up to
        # the rounding of one subtraction
        assert abs(c2 - ref_c2) <= abs(n_hat[2] - ref_n[2]) + 2 * np.spacing(ref_c2)
    return c2 == ref_c2


def test_plane_fit_matches_svd_on_tall_bowl_windows(tall_bowl, spec_linear):
    curve, field = tall_bowl.surface, tall_bowl.field
    for height, lam in ((4.0, 2.0), (8.0, 4.0), (16.0, 8.0), (16.0, 1.0)):
        p = int(np.argmin(np.abs(field.mu - height)))
        pts, etas, Hs = _window_samples(curve, field, p, lam, 1.0)
        sign = np.sign(field.eta[p]) if field.eta[p] != 0 else 1.0
        assert _assert_plane_fit_matches_svd(pts, etas, Hs, sign)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(16, 4000),
       bend=st.sampled_from([0.0, 1e-8, 1e-4, 1e-2]),
       sign=st.sampled_from([-1.0, 1.0]),
       h_scale=st.sampled_from([1e-6, 1e-3, 0.1]))
def test_plane_fit_matches_svd_on_near_planar_clouds(seed, n, bend, sign, h_scale):
    rng = np.random.default_rng(seed)
    normal = rng.normal(size=3)
    normal /= np.linalg.norm(normal)
    e1 = np.cross(normal, rng.normal(size=3))
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(normal, e1)
    a, b = rng.uniform(-1.0, 1.0, (2, n))
    off = bend * (a * a + b * b + rng.normal(size=n))
    pts = (a[:, None] * e1 + b[:, None] * e2 + off[:, None] * normal
           + rng.normal(size=3))
    etas = abs(normal[2]) * sign + 1e-3 * rng.normal(size=n)
    Hs = h_scale * rng.normal(size=n)
    _assert_plane_fit_matches_svd(pts, etas, Hs, sign)


def test_identity_rescale_matches_bowl_model(tall_bowl, spec_linear):
    rep = blowup_rescale(tall_bowl, [0], [1.0], spec_linear, "Bowl")
    assert rep.hausdorff_distance <= 1e-8
    assert rep.c2_distance <= 1e-6


def test_empty_blowup_sequence_is_refused(tall_bowl, spec_linear):
    # with no stage, the limit constant would be NaN, which JSON cannot hold
    with pytest.raises(ValueError, match="non-empty"):
        blowup_rescale(tall_bowl, [], [], spec_linear, "Plane")


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
    rescaled = rescale_profile(tall_bowl.surface, lam)
    f2 = sample_geometry(rescaled, pm.PotentialSpec.linear(1.0 / lam))
    assert np.abs(f2.k1 - field.k1 / lam).max() <= 1e-12
    assert np.abs(f2.k2 - field.k2 / lam).max() <= 1e-12
    assert np.abs(f2.H - field.H / lam).max() <= 1e-12
    assert np.abs(f2.K - field.K / lam**2).max() <= 1e-12


@pytest.fixture(scope="module")
def long_reaper(spec_linear):
    """The Linear grim reaper z = -log cos x from x = -1.3 past x = 1.4."""
    return solve_translation_profile(spec_linear, ShootingConfig(
        start=PointStart(-1.3, -np.log(np.cos(1.3)), -1.3), s_max=4.6, step=1e-3))


def test_grim_reaper_blowup_matches_its_model(long_reaper, spec_linear):
    p = int(np.argmin(np.abs(long_reaper.surface.x)))
    scales = [1.0, 2.0, 4.0]
    rep = blowup_rescale(long_reaper, [p] * 3, scales, spec_linear, "GrimReaper")
    assert all(stage.hausdorff_distance <= 1e-3 for stage in rep.stages)
    # the plane and the bowl are far from a grim reaper at unit scale
    for model in ("Plane", "Bowl"):
        other = blowup_rescale(long_reaper, [p], [1.0], spec_linear, model)
        assert other.hausdorff_distance >= 0.1


def test_rescaling_covariance_on_a_translation_curve(long_reaper, spec_linear):
    lam = 3.0
    curve, field = long_reaper.surface, long_reaper.field
    rescaled = rescale_profile(curve, lam)
    assert rescaled.s[0] == 0.0
    assert np.array_equal(rescaled.x, lam * (curve.x - curve.x[0]))
    f2 = sample_geometry(rescaled, pm.PotentialSpec.linear(1.0 / lam))
    assert np.abs(f2.k1 - field.k1 / lam).max() <= 1e-12
    assert np.abs(f2.k2 - field.k2 / lam).max() <= 1e-12


def test_window_past_the_profile_end_exceeds_the_patch(tall_bowl, spec_linear):
    field = sample_geometry(tall_bowl.surface, spec_linear)
    last = field.n_samples - 1
    with pytest.raises(PatchExceededError, match="window exceeds the sampled profile"):
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
    # the gate's Gamma window starts at mu + 1e-9 and phi' is evaluated at
    # rho + mu(p) = 0.3, both below alpha = 1
    field, center = _flat_graph(spec_zero)
    spec = pm.PotentialSpec.linear(1.0, alpha=1.0)
    rep = geodesic_disk_area_check(field, center, 0.3, spec)
    assert not rep.hypothesis_ok
    assert rep.disk_area > 0.0


def test_area_gate_lets_other_errors_through(bowl_field, spec_linear, monkeypatch):
    from phimin import estimates

    def broken(spec, z):
        raise ZeroDivisionError("not a domain exit")

    monkeypatch.setattr(estimates, "eval_potential", broken)
    with pytest.raises(ZeroDivisionError):
        geodesic_disk_area_check(bowl_field, 0, 0.3, spec_linear)


# -- candidate-run window sampler against the per-sample loop ------------------

def _window_samples_loop(curve, field, p, lam, window):
    """The per-sample construction the candidate-run sampler must reproduce."""
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
    pts, etas, Hs = [], [], []
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
    return tuple(np.concatenate(a) for a in (pts, etas, Hs))


@pytest.fixture(scope="module")
def fine_reaper(spec_linear):
    return solve_translation_profile(spec_linear, ShootingConfig(
        start=PointStart(0.0, 0.0, 0.0), s_max=1.4, step=2e-4))


def _assert_window_matches_loop(curve, field, p, lam):
    """The sampler gives the loop's bytes, or raises where the loop's
    samples do not fill the window."""
    from phimin.estimates import _window_samples
    want = _window_samples_loop(curve, field, p, lam, 1.0)
    if want[0].shape[0] < 16 or np.linalg.norm(want[0], axis=1).max() < 0.8:
        with pytest.raises(WindowUnderflowError):
            _window_samples(curve, field, p, lam, 1.0)
        return
    got = _window_samples(curve, field, p, lam, 1.0)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("case", ["axis", "off_axis", "whole_rings",
                                  "axis_sample", "catenoid", "translation"])
def test_window_samples_match_per_sample_loop(case, request):
    source, s_p, lam = {"axis": ("tall_bowl", 0.0, 0.5),
                        "off_axis": ("tall_bowl", 10.0, 1.0),
                        "whole_rings": ("tall_bowl", 1.0, 0.5),
                        "axis_sample": ("tall_bowl", 0.3, 2.0),
                        "catenoid": ("catenoid", 0.6, 4.0),
                        "translation": ("fine_reaper", 0.7, 2.5)}[case]
    res = request.getfixturevalue(source)
    curve, field = res.surface, res.field
    p = int(np.argmin(np.abs(curve.s - s_p)))
    s_half = 1.5 / lam
    x_p = curve.x[p]
    # whether a rotational window's chart is the whole ring
    whole = x_p < 1e-10 or 1.5 / (lam * max(x_p - s_half, 1e-6)) >= np.pi
    if case == "axis":
        # an axis base point, whose rings lie wholly inside or outside
        assert x_p < 1e-10 and lam < 1.0
    elif case == "off_axis":
        # the ball cuts each ring within reach on both sides
        assert not whole
    elif case == "whole_rings":
        assert whole and x_p > 1e-10 and lam < 1.0
    elif case == "axis_sample":
        # the axis sample x = 0 lies in the window of an off-axis base point
        assert curve.x[0] == 0.0 and x_p > 1e-10
        assert lam * np.linalg.norm(field.positions[0] - field.positions[p]) < 1.0
    elif case == "catenoid":
        assert curve.x.min() >= 1.0 and not whole
    _assert_window_matches_loop(curve, field, p, lam)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_window_samples_match_loop_on_random_windows(data, tall_bowl, quad_bowl,
                                                     catenoid, fine_reaper):
    # each profile with the least scale at which a window can fit on it
    profiles = {"linear_bowl": (tall_bowl, 0.5), "quadratic_bowl": (quad_bowl, 1.1),
                "catenoid": (catenoid, 2.6), "translation": (fine_reaper, 2.2)}
    res, lam_lo = profiles[data.draw(st.sampled_from(sorted(profiles)))]
    curve = res.surface
    lam = data.draw(st.floats(lam_lo, 16.0))
    s_half = 1.5 / lam
    # a window about a rotational profile's axis may reach past its start
    through_axis = curve.kind == "Rotational" and curve.x[0] == 0.0
    s_lo = curve.s[0] if through_axis else curve.s[0] + s_half
    fit = np.flatnonzero((curve.s >= s_lo) & (curve.s <= curve.s[-1] - s_half))
    p = int(fit[data.draw(st.integers(0, fit.size - 1))])
    _assert_window_matches_loop(curve, res.field, p, lam)


def test_blowup_samples_a_shared_source_once(tall_bowl, spec_linear, monkeypatch):
    import phimin.estimates as est
    real = est.sample_geometry
    calls = []
    monkeypatch.setattr(est, "sample_geometry",
                        lambda *args: calls.append(1) or real(*args))
    field = real(tall_bowl.surface, spec_linear)
    heights = [4.0, 8.0, 16.0]
    bps = [int(np.argmin(np.abs(field.mu - h))) for h in heights]
    rep = blowup_rescale(tall_bowl.surface, bps, heights, spec_linear, "Plane")
    assert len(calls) == 1
    # a SolveResult brings the field that its solve sampled
    assert blowup_rescale(tall_bowl, bps, heights, spec_linear, "Plane") == rep
    assert len(calls) == 1
    # each stage is what a one-stage call on the same point gives
    for stage, bp, h in zip(rep.stages, bps, heights):
        alone = blowup_rescale(tall_bowl.surface, [bp], [h], spec_linear,
                               "Plane").stages[0]
        assert (stage.slope_ratio, stage.hausdorff_distance, stage.c2_distance,
                stage.n_window_samples) == (alone.slope_ratio, alone.hausdorff_distance,
                                            alone.c2_distance, alone.n_window_samples)
    assert len(calls) == 4


# -- vectorised conformal report against the per-height loop -------------------

def _ilmanen_report_loop(field, spec, boundary):
    """The report with the conformal curvatures written out and one
    ambient_curvatures call per height."""
    from phimin.estimates import _lattice_distances
    from phimin.ilmanen import ambient_curvatures

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
    for z in np.linspace(float(field.mu.min()), float(field.mu.max()), 65):
        k_h, k_v, g_h, g_v = ambient_curvatures(spec, z)
        sup_k = max(sup_k, abs(k_h), abs(k_v))
        sup_grad = max(sup_grad, abs(g_h), abs(g_v))
    reach = 1.0 / (sup_k + np.sqrt(sup_grad)) if (sup_k + np.sqrt(sup_grad)) > 0 else np.inf
    return float(np.max(s_conf * np.minimum(d_phi, reach))), float(s_conf.max())


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


# -- lattice distances against a COO assembly of the lattice ------------------

def _coo_lattice_distances(pos, sources, conformal_weight=None):
    """Dijkstra on the knight-augmented lattice assembled as a COO matrix of
    the forward edges, one template offset at a time, then converted."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    nx, ny, _ = pos.shape
    n = nx * ny
    idx = np.arange(n).reshape(nx, ny)
    flat = pos.reshape(n, 3)
    rows, cols, vals = [], [], []
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2)):
        lo, hi = max(0, -dj), ny - max(0, dj)
        s_flat = idx[:nx - di, lo:hi].ravel()
        d_flat = idx[di:, lo + dj:hi + dj].ravel()
        lengths = np.linalg.norm(flat[d_flat] - flat[s_flat], axis=1)
        if conformal_weight is not None:
            w = conformal_weight.reshape(n)
            lengths = lengths * 0.5 * (w[s_flat] + w[d_flat])
        rows.append(s_flat)
        cols.append(d_flat)
        vals.append(lengths)
    graph = coo_matrix((np.concatenate(vals), (np.concatenate(rows),
                                               np.concatenate(cols))),
                       shape=(n, n)).tocsr()
    dist = dijkstra(graph, directed=False, indices=np.asarray(sources),
                    min_only=len(np.atleast_1d(sources)) > 1)
    return (dist[0] if dist.ndim > 1 else dist).reshape(nx, ny)


def test_lattice_distances_match_the_coo_assembly(bowl, spec_linear, spec_quadratic,
                                                  monkeypatch):
    import phimin.estimates as est

    # the bowl's once-refined lattice at h = 1/64 on [-1, 1]^2, from its centre
    domain, h = (-1.0, 1.0, -1.0, 1.0), 1 / 64
    X, Y = GraphPatch(domain, h, np.zeros((129, 129))).grid()
    u = np.interp(np.hypot(X, Y), bowl.surface.x, bowl.surface.z)
    pos, _ = est._graph_lattice(sample_geometry(GraphPatch(domain, h, u), spec_linear))
    assert pos.shape == (257, 257, 3)
    centre = 128 * 257 + 128
    got = est._lattice_distances(pos, [centre])
    assert got.tobytes() == _coo_lattice_distances(pos, [centre]).tobytes()

    # the conformal, multi-source call of the Ilmanen report
    calls = []
    real = est._lattice_distances

    def captured(*args, **kw):
        calls.append((args, kw, real(*args, **kw)))
        return calls[-1][2]

    monkeypatch.setattr(est, "_lattice_distances", captured)
    rng = np.random.default_rng(5)
    patch = GraphPatch((0, 1, 0, 1), 1 / 32, 0.5 + 0.05 * rng.standard_normal((33, 33)))
    field = sample_geometry(patch, spec_quadratic)
    ilmanen_estimate_report(field, spec_quadratic, np.where(~field.interior_mask(1))[0])
    (args, kw, got), = calls
    assert kw["conformal_weight"] is not None and len(args[1]) > 1
    assert got.tobytes() == _coo_lattice_distances(*args, **kw).tobytes()
