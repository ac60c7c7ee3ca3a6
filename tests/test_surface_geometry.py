import numpy as np
import pytest

import phimin as pm
from phimin.solvers import AxisRegular, PointStart, ShootingConfig
from phimin.surface_geometry import (AxisSingularityError, GraphPatch,
                                     ProfileCurve, StencilError,
                                     UmbilicRegionError,
                                     UnsupportedIdentityError,
                                     curvature_evolution_residuals,
                                     drift_laplacian,
                                     fundamental_identity_residuals,
                                     phi_minimal_residual,
                                     sample_geometry)


def _flat_patch(height=0.0, n=17, h=0.125):
    u = np.full((n, n), height)
    half = h * (n - 1) / 2
    return GraphPatch(domain=(-half, half, -half, half), h=h, u=u)


def test_flat_patch_geometry(spec_zero):
    f = sample_geometry(_flat_patch(), spec_zero)
    assert np.allclose(f.eta, 1.0)
    assert np.allclose(f.H, 0.0) and np.allclose(f.K, 0.0)
    assert np.allclose(f.grad_mu, 0.0)


def test_vertical_plane_is_minimal_for_every_weight(vertical_plane_profile,
                                                    spec_linear, spec_quadratic):
    for spec in (spec_linear, spec_quadratic):
        f = sample_geometry(vertical_plane_profile, spec)
        assert np.allclose(f.eta, 0.0, atol=1e-15)
        rep = phi_minimal_residual(f, spec)
        assert rep.max_abs_residual < 1e-12


def test_catenoid_is_minimal(catenoid_field, spec_zero):
    rep = phi_minimal_residual(catenoid_field, spec_zero)
    assert rep.max_abs_residual <= 1e-5


def test_flat_plane_not_weighted_minimal(spec_linear):
    f = sample_geometry(_flat_patch(), spec_linear)
    rep = phi_minimal_residual(f, spec_linear)
    assert rep.max_abs_residual == pytest.approx(1.0, abs=1e-12)


def test_axis_singularity_detection():
    # degenerate curve running up the axis: x = 0 with a vertical tangent
    n = 11
    s = 0.1 * np.arange(n)
    curve = ProfileCurve(s=s, x=np.zeros(n), z=s,
                         theta=np.full(n, np.pi / 2),
                         kind="Rotational", step=0.1)
    with pytest.raises(AxisSingularityError):
        curve.validate()


def test_small_grid_rejected(spec_zero):
    with pytest.raises(StencilError):
        sample_geometry(GraphPatch(domain=(0, 0.3, 0, 0.3), h=0.1,
                                   u=np.zeros((4, 4))), spec_zero)


def test_patch_and_solver_share_the_strict_tiling_rule(spec_zero):
    # 1e-6 past a whole number of cells: within np.isclose's default rtol
    domain = (0.0, 1.000001, 0.0, 1.0)
    with pytest.raises(ValueError, match="divide"):
        GraphPatch(domain=domain, h=0.25, u=np.zeros((5, 5))).validate()
    # a negative h would tile [0, 1] with a negative cell count
    for dom, h in ((domain, 0.25), ((0.0, 1.0, 0.0, 1.0), -0.25)):
        with pytest.raises(ValueError, match="divide"):
            pm.solve_graph(spec_zero, dom, h, lambda x, y: 0.0 * x, pm.NewtonConfig())
    GraphPatch(domain=(0.0, 1.0, 0.0, 1.0), h=0.25, u=np.zeros((5, 5))).validate()


def test_identity_suite_orders_on_profiles(spec_zero, spec_linear, spec_quadratic):
    """All eight identities converge at order >= 1.8 under step halving.

    Steps sit in the truncation-dominated regime: third-derivative chains
    have an eps/h^3 rounding floor near h ~ 1e-3.
    """
    cases = [
        (spec_zero, pm.solve_rotational_profile,
         dict(start=PointStart(1.0, 0.0, np.pi / 2), s_max=1.2)),
        (spec_linear, pm.solve_translation_profile,
         dict(start=PointStart(0.0, 0.0, 0.0), s_max=1.4)),
        (spec_linear, pm.solve_rotational_profile,
         dict(start=AxisRegular(0.0), s_max=2.0)),
        (spec_quadratic, pm.solve_rotational_profile,
         dict(start=AxisRegular(0.0), s_max=1.5)),
    ]
    steps = (4e-3, 2e-3)
    for spec, solve, kw in cases:
        maxima = []
        for k, step in enumerate(steps):
            sol = solve(spec, ShootingConfig(step=step, **kw))
            field = sample_geometry(sol.surface, spec)
            margin = int(round(1.6e-2 / step))
            reps = fundamental_identity_residuals(field, spec, range(1, 9),
                                                  margin=margin)
            maxima.append({r.identity_name: r.max_abs_residual for r in reps})
        for name in maxima[0]:
            coarse, fine = maxima[0][name], maxima[1][name]
            if coarse < 1e-12:
                continue  # identically satisfied
            order = np.log2(coarse / fine)
            assert order >= 1.8, (name, coarse, fine)


def test_identity_two_holds_when_h_is_minimality_value(bowl_field, spec_linear):
    ev = pm.eval_potential(spec_linear, bowl_field.mu)
    gm2 = (bowl_field.grad_mu**2).sum(axis=1)
    res = ev.d1**2 - ev.d1**2 * gm2 - (ev.d1 * bowl_field.eta) ** 2
    assert np.abs(res).max() <= 1e-10


def test_graph_item5_refinement_ratio(spec_linear):
    # exact ruled graph sampled directly, so the residual is pure truncation
    maxima = []
    for h in (1 / 32, 1 / 64):
        n = int(round(2.0 / h)) + 1
        xs = -1.0 + h * np.arange(n)
        u = np.tile(-np.log(np.cos(xs))[:, None], (1, n))
        patch = GraphPatch(domain=(-1, 1, -1, 1), h=h, u=u)
        field = sample_geometry(patch, spec_linear)
        margin = int(round(0.0625 / h))
        rep = fundamental_identity_residuals(field, spec_linear, [5], margin=margin)[0]
        maxima.append(rep.max_abs_residual)
    ratio = maxima[0] / maxima[1]
    assert 3.2 <= ratio <= 4.8


def test_graph_solved_bowl_satisfies_item5_to_solver_tolerance(spec_linear):
    from phimin.solvers import NewtonConfig, solve_graph
    from scipy.interpolate import CubicSpline
    prof = pm.solve_rotational_profile(
        spec_linear, ShootingConfig(start=AxisRegular(0.0), s_max=2.0, step=1e-3))
    spline = CubicSpline(prof.surface.x, prof.surface.z)
    res = solve_graph(spec_linear, (-0.75, 0.75, -0.75, 0.75), 1 / 32,
                      lambda x, y: spline(np.hypot(x, y)),
                      NewtonConfig(tol_residual=1e-11))
    field = sample_geometry(res.surface, spec_linear)
    rep = fundamental_identity_residuals(field, spec_linear, [5], margin=2)[0]
    assert rep.max_abs_residual <= 1e-10


def test_graph_rejects_tensor_identities(spec_linear):
    f = sample_geometry(_flat_patch(), spec_linear)
    with pytest.raises(UnsupportedIdentityError):
        fundamental_identity_residuals(f, spec_linear, [7])


def test_q_squared_routes_agree_on_profiles(bowl_field, quad_bowl, spec_quadratic):
    # Codazzi on a rotational profile: h_{12,2} = cos(theta)/x (k1 - k2)
    # equals h_{22,1} = dk2/ds, so both routes give the same Q^2
    for field in (bowl_field, sample_geometry(quad_bowl.surface, spec_quadratic)):
        curve = field.source
        mask = field.interior_mask(4)
        h22_1 = np.gradient(field.k2, curve.step, edge_order=2)[mask]
        h12_2 = (np.cos(curve.theta[mask]) / curve.x[mask]
                 * (field.k1 - field.k2)[mask])
        scale = np.abs(h12_2).max()
        assert np.abs(h22_1 - h12_2).max() <= 200.0 * field.grid_h**2 * max(scale, 1.0)


def test_principal_frame_reaper(reaper_field):
    interior = reaper_field.interior_mask(2)
    # ruling direction is flat: k2 = 0, so the Codazzi term h_{22,1} vanishes
    assert np.all(reaper_field.k2 == 0.0)
    h22_1 = np.gradient(reaper_field.k2, reaper_field.source.step, edge_order=2)
    assert np.abs(h22_1[interior]).max() <= 1e-12


def test_drift_laplacian_of_height_equals_slope(bowl_field, spec_linear):
    phi = pm.eval_potential(spec_linear, bowl_field.mu).phi
    val = drift_laplacian(bowl_field, bowl_field.mu, phi)
    d1 = pm.eval_potential(spec_linear, bowl_field.mu).d1
    interior = bowl_field.interior_mask(2)
    assert np.abs(val - d1)[interior].max() <= 100 * bowl_field.grid_h**2


def test_drift_laplacian_of_constant_is_zero(bowl_field):
    val = drift_laplacian(bowl_field, np.ones(bowl_field.n_samples),
                          np.zeros(bowl_field.n_samples))
    assert np.abs(val).max() == 0.0


def test_drift_laplacian_flat_patch_height(spec_zero):
    f = sample_geometry(_flat_patch(height=0.0), spec_zero)
    val = drift_laplacian(f, f.mu, np.zeros(f.n_samples))
    interior = f.interior_mask(2)
    assert np.abs(val[interior]).max() <= 1e-12


def test_curvature_evolution_orders(spec_linear, spec_quadratic):
    cases = [
        (spec_linear, pm.solve_translation_profile,
         dict(start=PointStart(0.0, 0.0, 0.0), s_max=1.4)),
        (spec_linear, pm.solve_rotational_profile,
         dict(start=AxisRegular(0.0), s_max=2.0)),
        (spec_quadratic, pm.solve_rotational_profile,
         dict(start=AxisRegular(0.0), s_max=1.5)),
    ]
    for spec, solve, kw in cases:
        maxima = []
        for step in (4e-3, 2e-3):
            sol = solve(spec, ShootingConfig(step=step, **kw))
            field = sample_geometry(sol.surface, spec)
            reps = curvature_evolution_residuals(field, spec,
                                                 margin=int(round(2e-2 / step)))
            maxima.append({r.identity_name: r.max_abs_residual for r in reps})
        for name in maxima[0]:
            coarse, fine = maxima[0][name], maxima[1][name]
            if coarse < 1e-12:
                continue
            assert np.log2(coarse / fine) >= 1.8, (name, coarse, fine)


def test_curvature_evolution_reaper_parallel_identities_vanish(reaper_field,
                                                               spec_linear):
    reps = curvature_evolution_residuals(reaper_field, spec_linear)
    by_name = {r.identity_name: r for r in reps}
    assert by_name["curvature_evolution_parallel"].max_abs_residual <= 1e-12
    assert by_name["jacobi_quotient_parallel_over_eta"].max_abs_residual <= 1e-12


def test_curvature_evolution_rejects_umbilic_everywhere(spec_zero):
    n = 17
    half = 0.2
    h = 2 * half / (n - 1)
    xs = -half + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    patch = GraphPatch(domain=(-half, half, -half, half), h=h,
                       u=np.sqrt(1.0 - X**2 - Y**2))
    f = sample_geometry(patch, spec_zero)
    with pytest.raises(UnsupportedIdentityError):
        curvature_evolution_residuals(f, spec_zero)


def test_curvature_evolution_umbilic_profile_error(spec_zero):
    # a round-sphere meridian: everywhere umbilic
    h = 1e-3
    s = h * np.arange(-400, 401)
    curve = ProfileCurve(s=s, x=np.cos(s), z=np.sin(s), theta=np.pi / 2 + s,
                         kind="Rotational", step=h)
    field = sample_geometry(curve, spec_zero)
    with pytest.raises(UmbilicRegionError):
        curvature_evolution_residuals(field, spec_zero)


def test_pointwise_algebra_everywhere(bowl_field, reaper_field, catenoid_field):
    for f in (bowl_field, reaper_field, catenoid_field):
        assert np.allclose(f.H, f.k1 + f.k2, rtol=1e-10, atol=1e-14)
        assert np.allclose(f.K, f.k1 * f.k2, rtol=1e-10, atol=1e-14)
        s2 = f.norm_s2()
        assert np.allclose(s2, f.k1**2 + f.k2**2, rtol=1e-10, atol=1e-13)


def test_unit_decomposition_on_graphs(spec_linear):
    rng = np.random.default_rng(3)
    n = 17
    u = 0.5 + 0.05 * rng.standard_normal((n, n))
    patch = GraphPatch(domain=(0, 1, 0, 1), h=1 / (n - 1), u=u)
    f = sample_geometry(patch, spec_linear)
    total = (f.grad_mu**2).sum(axis=1) + f.eta**2
    assert np.abs(total - 1.0).max() <= 1e-12


# -- one weight evaluation per field ------------------------------------------

def test_field_evaluates_the_weight_once(bowl, spec_linear, monkeypatch):
    from phimin import stability, surface_geometry

    calls = []
    real = surface_geometry.eval_potential

    def counted(spec, z):
        calls.append(z)
        return real(spec, z)

    monkeypatch.setattr(surface_geometry, "eval_potential", counted)
    field = sample_geometry(bowl.surface, spec_linear)
    phi_minimal_residual(field, spec_linear)
    fundamental_identity_residuals(field, spec_linear, range(1, 9))
    stability.build_assembly(field, spec_linear, range(0, 200))
    assert len(calls) == 1 and calls[0] is field.mu


def test_field_potential_follows_the_spec(bowl_field, spec_linear, spec_quadratic):
    def same(a, b):
        return all(np.array_equal(getattr(a, k), getattr(b, k))
                   for k in ("phi", "d1", "d2", "d3"))

    first = bowl_field.potential(spec_linear)
    assert same(first, pm.eval_potential(spec_linear, bowl_field.mu))
    second = bowl_field.potential(spec_quadratic)
    assert same(second, pm.eval_potential(spec_quadratic, bowl_field.mu))
    assert not np.array_equal(first.d1, second.d1)
    assert same(bowl_field.potential(spec_linear), first)
