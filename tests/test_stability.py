import gc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg as spla
import scipy.special

import phimin as pm
from phimin.solvers import (AxisRegular, NewtonConfig, PointStart,
                            ShootingConfig, solve_graph,
                            solve_rotational_profile,
                            solve_translation_profile)
from phimin.stability import (RulingWidthError, SupportError, build_assembly,
                              first_eigenvalue, jacobi_residual, quadratic_form)
from phimin.surface_geometry import GraphPatch, grid_shape, sample_geometry


def _bump(field, region):
    u = np.zeros(field.n_samples)
    t = np.linspace(0.0, np.pi, len(region))
    u[region] = np.sin(t) ** 2
    return u


def test_quadratic_form_zero_function(bowl_field, spec_linear):
    region = np.where(bowl_field.interior_mask(2))[0]
    val = quadratic_form(bowl_field, spec_linear, np.zeros(bowl_field.n_samples),
                         region)
    assert val == 0.0


def test_quadratic_form_positive_without_potential(vertical_plane_profile,
                                                   spec_linear):
    # flat vertical strip with linear weight: |S| = 0, eta = 0
    field = sample_geometry(vertical_plane_profile, spec_linear)
    region = np.arange(50, 350)
    u = _bump(field, region)
    assert quadratic_form(field, spec_linear, u, region) > 0.0


def test_quadratic_form_support_violation(bowl_field, spec_linear):
    region = np.arange(100, 200)
    u = np.ones(bowl_field.n_samples)
    with pytest.raises(SupportError):
        quadratic_form(bowl_field, spec_linear, u, region)


def test_graph_quadratic_form_converges_at_second_order(spec_zero):
    # flat graph, no weight: Q(u, u) is the Dirichlet integral, 2 pi^2 for
    # u = sin(pi x) sin(pi y) on [-1, 1]^2
    domain = (-1.0, 1.0, -1.0, 1.0)
    errors = []
    for h in (1 / 8, 1 / 16, 1 / 32):
        patch = GraphPatch(domain=domain, h=h, u=np.full(grid_shape(domain, h), 0.25))
        field = sample_geometry(patch, spec_zero)
        X, Y = patch.grid()
        mask = field.interior_mask(1)
        u = np.where(mask, (np.sin(np.pi * X) * np.sin(np.pi * Y)).ravel(), 0.0)
        region = np.flatnonzero(mask)
        q = quadratic_form(field, spec_zero, u, region)
        errors.append(abs(q - 2.0 * np.pi**2))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.05) and errors[-1] < 0.07
    # the midpoint quadrature and the element assembly agree at h = 1/32
    assembled = build_assembly(field, spec_zero, region).bilinear(u[region], u[region])
    assert abs(q - assembled) <= 0.01 * abs(assembled)


def test_bowl_bump_form_nonnegative_under_refinement(spec_linear):
    vals = []
    for step in (2e-3, 1e-3):
        sol = solve_rotational_profile(
            spec_linear, ShootingConfig(start=AxisRegular(0.0), s_max=2.0, step=step))
        field = sample_geometry(sol.surface, spec_linear)
        region = np.where(field.interior_mask(2))[0]
        u = _bump(field, region)
        vals.append(quadratic_form(field, spec_linear, u, region))
    # stable bowl: the form is positive for any bump at these resolutions
    assert vals[0] > 0.0 and vals[1] > 0.0


def test_disk_eigenvalue_oracle(flat_disk_profile, spec_zero):
    field = sample_geometry(flat_disk_profile, spec_zero)
    region = np.where(flat_disk_profile.s < 1.0)[0]
    res = first_eigenvalue(field, spec_zero, region, tol=1e-10)
    j01_sq = scipy.special.jn_zeros(0, 1)[0] ** 2
    assert res.lambda1 == pytest.approx(j01_sq, rel=0.01)
    assert res.residual <= 1e-8


def test_square_membrane_eigenvalue_oracle(spec_zero):
    res = solve_graph(spec_zero, (0, 1, 0, 1), 1 / 32,
                      lambda x, y: np.zeros_like(x), NewtonConfig())
    field = sample_geometry(res.surface, spec_zero)
    region = np.where(field.interior_mask(1))[0]
    out = first_eigenvalue(field, spec_zero, region, tol=1e-10)
    assert out.lambda1 == pytest.approx(2.0 * np.pi**2, rel=0.01)


def test_vertical_plane_positive_spectrum(vertical_plane_profile, spec_linear):
    field = sample_geometry(vertical_plane_profile, spec_linear)
    res = first_eigenvalue(field, spec_linear, np.arange(50, 350), tol=1e-9)
    assert res.lambda1 > 0.0


def test_bowl_spectrum_nonnegative_and_stabilising(spec_linear):
    lams = []
    for step in (2e-3, 1e-3):
        sol = solve_rotational_profile(
            spec_linear, ShootingConfig(start=AxisRegular(0.0), s_max=2.0, step=step))
        field = sample_geometry(sol.surface, spec_linear)
        # fixed physical region: everything inside arclength 1.9, axis included
        region = np.where(sol.surface.s <= 1.9)[0]
        lams.append(first_eigenvalue(field, spec_linear, region, tol=1e-9).lambda1)
    assert lams[0] >= -1e-8 and lams[1] >= -1e-8
    assert abs(lams[1] - lams[0]) <= 0.05 * max(abs(lams[0]), 1.0)


def test_eigenfunction_positive_and_normalised(flat_disk_profile, spec_zero):
    field = sample_geometry(flat_disk_profile, spec_zero)
    region = np.where(flat_disk_profile.s < 1.0)[0]
    res = first_eigenvalue(field, spec_zero, region, tol=1e-10)
    vals = res.eigenfunction[region]
    assert np.all(vals > -1e-12)
    asm = build_assembly(field, spec_zero, region)
    assert vals @ (asm.mass * vals) == pytest.approx(1.0, rel=1e-9)


def test_rayleigh_consistency(bowl_field, spec_linear):
    region = np.where(bowl_field.interior_mask(2))[0]
    asm = build_assembly(bowl_field, spec_linear, region)
    lam = first_eigenvalue(bowl_field, spec_linear, region, tol=1e-10).lambda1
    rng = np.random.default_rng(11)
    trial_min = min(asm.rayleigh(rng.standard_normal(region.size))
                    for _ in range(200))
    assert lam <= trial_min + 1e-9


def test_assembly_symmetry_exact(bowl_field, spec_linear):
    region = np.where(bowl_field.interior_mask(2))[0]
    asm = build_assembly(bowl_field, spec_linear, region)
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.standard_normal(region.size)
        v = rng.standard_normal(region.size)
        assert asm.bilinear(u, v) == asm.bilinear(v, u)
    assert np.all(asm.mass > 0.0)
    gap = asm.stiffness - asm.stiffness.T
    assert abs(gap).max() <= 1e-12 * abs(asm.stiffness).max()


def test_direct_quadrature_matches_assembly(bowl_field, spec_linear):
    region = np.where(bowl_field.interior_mask(2))[0]
    asm = build_assembly(bowl_field, spec_linear, region)
    u = _bump(bowl_field, region)
    direct = quadratic_form(bowl_field, spec_linear, u, region)
    through = asm.bilinear(u[region], u[region])
    # two O(h^2)-consistent quadratures of the same integral
    assert direct == pytest.approx(through, rel=5e-3)


def test_jacobi_field_grim_reaper(spec_linear):
    maxima = []
    for step in (2e-3, 1e-3):
        sol = solve_translation_profile(
            spec_linear, ShootingConfig(start=PointStart(0.0, 0.0, 0.0),
                                        s_max=1.4, step=step))
        field = sample_geometry(sol.surface, spec_linear)
        rep = jacobi_residual(field, spec_linear, np.array([-1.0, 0.0, 0.0]),
                              margin=int(round(8e-3 / step)))
        maxima.append(rep.max_abs_residual)
    assert np.log2(maxima[0] / maxima[1]) >= 1.8


def test_jacobi_field_vertical_plane(vertical_plane_profile, spec_linear):
    field = sample_geometry(vertical_plane_profile, spec_linear)
    rep = jacobi_residual(field, spec_linear, np.array([-1.0, 0.0, 0.0]))
    assert rep.max_abs_residual <= 1e-12


def test_jacobi_field_bowl_horizontal(bowl_field, spec_linear):
    rep = jacobi_residual(bowl_field, spec_linear, np.array([-1.0, 0.0, 0.0]),
                          margin=4)
    assert rep.max_abs_residual <= 100.0 * bowl_field.grid_h**2


def test_log_angle_certificate_bowl(spec_linear):
    maxima = []
    for step in (2e-3, 1e-3):
        sol = solve_rotational_profile(
            spec_linear, ShootingConfig(start=AxisRegular(0.0), s_max=2.0, step=step))
        field = sample_geometry(sol.surface, spec_linear)
        rep = jacobi_residual(field, spec_linear, "log_eta",
                              margin=int(round(8e-3 / step)))
        maxima.append(rep.max_abs_residual)
    assert np.log2(maxima[0] / maxima[1]) >= 1.8


def test_jacobi_sign_violation(catenoid_field, spec_zero):
    # the catenoid tilts through vertical: <V, N> changes sign
    with pytest.raises(ValueError):
        jacobi_residual(catenoid_field, spec_zero, np.array([1.0, 0.0, 0.0]))


def test_translation_reduction_uses_ruling_width(reaper_field, spec_linear):
    region = np.arange(200, 1200)
    wide = first_eigenvalue(reaper_field, spec_linear, region, tol=1e-9,
                            ruling_width=10.0).lambda1
    narrow = first_eigenvalue(reaper_field, spec_linear, region, tol=1e-9,
                              ruling_width=1.0).lambda1
    assert narrow > wide
    assert narrow - wide == pytest.approx(np.pi**2 - np.pi**2 / 100.0, rel=1e-9)


def test_first_eigenvalue_holds_one_factor_at_a_time(bowl_field, spec_linear,
                                                     monkeypatch):
    # the bowl's interior takes 10 inverse iterations, so the shift is
    # refreshed once and a second factor is made
    splu = spla.splu
    refs, held = [], []

    class Factor:
        def __init__(self, lu):
            self.solve = lu.solve

    def counted(A, *args, **kwargs):
        held.append(sum(ref() is not None for ref in refs))
        factor = Factor(splu(A, *args, **kwargs))
        refs.append(weakref.ref(factor))
        return factor

    monkeypatch.setattr(spla, "splu", counted)
    region = np.where(bowl_field.interior_mask(2))[0]
    gc.disable()
    try:
        res = first_eigenvalue(bowl_field, spec_linear, region, tol=1e-10)
    finally:
        gc.enable()
    assert res.iterations > 8 and len(refs) >= 2
    # no earlier factor was alive while a new one was made
    assert held == [0] * len(refs)


def test_one_node_translation_region_is_refused(reaper_field, spec_linear):
    with pytest.raises(RulingWidthError, match="one-node translation region"):
        build_assembly(reaper_field, spec_linear, [600])
    # a given ruling width needs no region length
    asm = build_assembly(reaper_field, spec_linear, [600], ruling_width=1.0)
    assert asm.extra_mode == pytest.approx(np.pi**2)


# -- vectorised profile assembly against the interval loop --------------------

def _profile_assembly_loop(field, spec, region, ruling_width=None):
    """(K, mass) from the per-interval loop the edge arrays must reproduce."""
    import scipy.sparse as sp
    curve = field.source
    h = curve.step
    radial = 2.0 * np.pi * curve.x if curve.kind == "Rotational" else np.ones(len(curve))
    w_node = np.exp(pm.eval_potential(spec, field.mu).phi) * radial
    n, lo = region.size, region[0]
    rows, cols, vals = [], [], []
    mass = np.zeros(n)
    for a in range(lo - 1, lo + n):
        b = a + 1
        if a < 0 or b >= field.n_samples:
            continue
        w_int = 0.5 * (w_node[a] + w_node[b])
        ia, ib = a - lo, b - lo
        if 0 <= ia < n:
            rows.append(ia); cols.append(ia); vals.append(w_int / h)
            mass[ia] += 0.5 * w_int * h
        if 0 <= ib < n:
            rows.append(ib); cols.append(ib); vals.append(w_int / h)
            mass[ib] += 0.5 * w_int * h
        if 0 <= ia < n and 0 <= ib < n:
            rows.extend([ia, ib]); cols.extend([ib, ia])
            vals.extend([-w_int / h, -w_int / h])
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr(), mass


@pytest.mark.parametrize("case", ["start", "interior", "end", "ruled"])
def test_profile_assembly_matches_interval_loop(case, bowl_field, reaper_field,
                                               spec_linear):
    field = reaper_field if case == "ruled" else bowl_field
    n = field.n_samples
    region = {"start": np.arange(0, 300), "interior": np.arange(100, 900),
              "end": np.arange(n - 300, n), "ruled": np.arange(50, 1200)}[case]
    width = 0.7 if case == "ruled" else None
    asm = build_assembly(field, spec_linear, region, ruling_width=width)
    K, mass = _profile_assembly_loop(field, spec_linear, region, width)
    for got, want in ((asm.stiffness.data, K.data), (asm.stiffness.indices, K.indices),
                      (asm.stiffness.indptr, K.indptr), (asm.mass, mass)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
