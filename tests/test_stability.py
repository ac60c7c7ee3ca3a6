import numpy as np
import pytest
import scipy.linalg
import scipy.special

import phimin as pm
from phimin import grid, stability
from phimin.solvers import (AxisRegular, NewtonConfig, PointStart,
                            ShootingConfig, solve_graph,
                            solve_rotational_profile,
                            solve_translation_profile)
from phimin.stability import (EigenConvergenceError, RulingWidthError, SupportError,
                              build_assembly, first_eigenvalue, jacobi_residual,
                              quadratic_form, stability_audit)
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
    # the profile stiffness is a grid.Tridiagonal, one off-diagonal array
    # for both sides, so it equals its transpose entry by entry
    K = asm.stiffness.toarray()
    assert np.array_equal(K, K.T)
    assert np.count_nonzero(K) == 3 * region.size - 2


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


@pytest.fixture
def hierarchies(monkeypatch):
    """Each grid.Hierarchy built, and the spd flag of each direct
    factorisation made, while the fixture is in use."""
    made = {"hierarchies": [], "factor": []}
    init, factor = grid.Hierarchy.__init__, grid._factor

    def counted_init(self, *args, **kwargs):
        made["hierarchies"].append(self)
        init(self, *args, **kwargs)

    def counted_factor(A, spd=False):
        made["factor"].append(spd)
        return factor(A, spd=spd)

    monkeypatch.setattr(grid.Hierarchy, "__init__", counted_init)
    monkeypatch.setattr(grid, "_factor", counted_factor)
    return made


@pytest.mark.parametrize("surface", ["profile", "graph"])
def test_first_eigenvalue_builds_one_hierarchy(surface, bowl_field, bowl_graphs,
                                               spec_linear, hierarchies):
    field = bowl_field if surface == "profile" else bowl_graphs["non-square"]
    region = np.flatnonzero(field.interior_mask(2))
    res = first_eigenvalue(field, spec_linear, region, tol=1e-10)
    # 9 and 11 iterations; an LU made in the wrong numbering took 78
    assert 1 < res.iterations <= 15
    # one factorisation of the shifted operator, as positive definite: the
    # cyclic reduction of the profile's Tridiagonal, the band Cholesky one
    # of the graph's CSR matrix
    assert len(hierarchies["hierarchies"]) == 1 and hierarchies["factor"] == [True]
    [hierarchy] = hierarchies["hierarchies"]
    assert hierarchy.levels == []
    assert isinstance(res.assembly.stiffness, grid.Tridiagonal) == (surface == "profile")


def test_first_eigenvalue_runs_v_cycle_levels(spec_zero, hierarchies):
    # 128 cells a side: the block is preconditioned by a V-cycle over the
    # 64-cell LU, and lambda1 of the unit square is 2 pi^2
    res = solve_graph(spec_zero, (0, 1, 0, 1), 1 / 128,
                      lambda x, y: np.zeros_like(x), NewtonConfig())
    field = sample_geometry(res.surface, spec_zero)
    del hierarchies["hierarchies"][:]  # any the Newton solve made
    out = first_eigenvalue(field, spec_zero, np.flatnonzero(field.interior_mask(1)),
                           tol=1e-10)
    [hierarchy] = hierarchies["hierarchies"]
    assert len(hierarchy.levels) == 1 and hierarchy.levels[0][0].shape == (127**2,) * 2
    assert out.lambda1 == pytest.approx(2.0 * np.pi**2, rel=1e-3)


@pytest.mark.parametrize("case", ["graph", "rotational", "translation"])
def test_first_eigenvalue_matches_dense_pencil(case, bowl_field, reaper_field,
                                               bowl_graphs, spec_linear):
    graph = bowl_graphs["non-square"]
    field, region, width = {
        "graph": (graph, np.flatnonzero(graph.interior_mask(1)), None),
        "rotational": (bowl_field, np.arange(0, 400), None),
        "translation": (reaper_field, np.arange(200, 600), 0.7)}[case]
    res = first_eigenvalue(field, spec_linear, region, ruling_width=width)
    asm = res.assembly
    # the dense pencil from each stiffness entry: a CSR matrix on the
    # graph, the diagonal and off-diagonal arrays of a Tridiagonal on the
    # profiles
    K = asm.stiffness
    if case == "graph":
        K = K.toarray()
    else:
        K = np.diag(K.diag) + np.diag(K.off, -1) + np.diag(K.off, 1)
    A = K + np.diag(asm.extra_mode * asm.mass - asm.potential_term)
    [want] = scipy.linalg.eigh(A, np.diag(asm.mass), eigvals_only=True,
                               subset_by_index=[0, 0])
    assert res.lambda1 == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("surface", ["profile", "graph"])
def test_negative_mean_eigenfunction_is_flipped(surface, bowl_field, bowl_graphs,
                                                spec_linear, monkeypatch):
    # the first Ritz vector negated: the solve is linear and sign-symmetric,
    # so every later iterate is exactly the negated one, and the final flip
    # to a positive mean must give back the unpatched solve bit for bit
    field = bowl_field if surface == "profile" else bowl_graphs["non-square"]
    region = np.flatnonzero(field.interior_mask(2))
    want = first_eigenvalue(field, spec_linear, region, tol=1e-10)
    ritz, calls = stability._lowest_ritz_vector, []

    def first_negated(a, m):
        c = ritz(a, m)
        calls.append(c)
        return -c if len(calls) == 1 else c

    monkeypatch.setattr(stability, "_lowest_ritz_vector", first_negated)
    got = first_eigenvalue(field, spec_linear, region, tol=1e-10)
    assert len(calls) == want.iterations > 1
    assert np.array_equal(got.eigenfunction, want.eigenfunction)
    assert (got.lambda1, got.iterations) == (want.lambda1, want.iterations)


def _shifted_operator(asm, shift=None):
    """A - shift M, by default first_eigenvalue's shift below the spectrum,
    in the stiffness's own form: a Tridiagonal on a profile, CSR on a
    graph."""
    V, M = asm.potential_term, asm.mass
    if shift is None:
        shift = -np.max(np.abs(V / M)) - 1.0 - asm.extra_mode
    return stability._plus_diagonal(asm.stiffness, asm.extra_mode * M - V - shift * M)


@pytest.mark.parametrize("surface", ["profile", "graph"])
def test_band_cholesky_solve_matches_dense_solve(surface, bowl_field, bowl_graphs,
                                                 spec_linear):
    # the positive definite factorisations of the shifted operator: cyclic
    # reduction of the profile's Tridiagonal, and band Cholesky of the
    # 9-point operator of the non-square h = 1/16 graph, half-bandwidth 10
    field = bowl_field if surface == "profile" else bowl_graphs["non-square"]
    S = _shifted_operator(build_assembly(field, spec_linear,
                                         np.flatnonzero(field.interior_mask(2))))
    dense = S.toarray()
    b = np.random.default_rng(2).standard_normal(S.shape[0])
    want = np.linalg.solve(dense, b)
    got = grid._factor(S, spd=True)(b)
    # backward stable: the residual is at the rounding of |S| |x|
    assert np.abs(S @ got - b).max() <= 1e-15 * np.abs(dense).max() * np.abs(got).max()
    # the forward match is bounded by the conditioning: about 30 on the
    # graph, 8.5e6 on the profile (1,997 unknowns at a 1e-3 step), where
    # cyclic reduction and the dense solve differ by about 1e-12 relative,
    # as LAPACK's dpbtrs did
    tol = {"graph": 1e-14, "profile": 1e-10}[surface]
    assert np.abs(got - want).max() <= tol * np.abs(want).max()


@pytest.mark.parametrize("surface", ["profile", "graph"])
def test_band_cholesky_refuses_an_indefinite_operator(surface, bowl_field, bowl_graphs,
                                                      spec_linear):
    # shifted 1 above lambda1, the operator stays symmetric and invertible
    # but is no longer positive definite: a dense solve (and on the graph
    # the band LU) factors it, the positive definite factorisation does not
    field = bowl_field if surface == "profile" else bowl_graphs["non-square"]
    res = first_eigenvalue(field, spec_linear, np.flatnonzero(field.interior_mask(2)))
    S = _shifted_operator(res.assembly, res.lambda1 + 1.0)
    dense = S.toarray()
    assert np.array_equal(dense, dense.T)
    b = np.ones(S.shape[0])
    assert np.all(np.isfinite(np.linalg.solve(dense, b)))
    if surface == "graph":
        assert np.all(np.isfinite(grid._factor(S)(b)))
    with pytest.raises(grid.LinearSolveError, match="not positive definite"):
        grid._factor(S, spd=True)


@pytest.mark.parametrize("surface", ["profile", "graph"])
def test_rayleigh_trials_are_twenty_single_quotients(surface, bowl_field, bowl_graphs,
                                                     spec_linear):
    # one 20 x n draw is 20 successive draws of n, and the block stiffness
    # product gives each row's quotient bit for bit
    field = bowl_field if surface == "profile" else bowl_graphs["square"]
    region = np.flatnonzero(field.interior_mask(2))
    asm = build_assembly(field, spec_linear, region)
    rng = np.random.default_rng(3)
    draws = [rng.standard_normal(region.size) for _ in range(20)]
    single = [asm.rayleigh(u) for u in draws]
    assert single == [asm.bilinear(u, u) / float(u @ (asm.mass * u)) for u in draws]
    rows = np.random.default_rng(3).standard_normal((20, region.size))
    assert np.array_equal(rows, draws)
    assert asm._rayleigh_rows(rows) == single
    audit = stability_audit(field, spec_linear, seed=3)
    assert audit.rayleigh_trial_min == min(single)


def test_unpreconditioned_eigen_solve_raises_convergence_error(bowl_field, spec_linear,
                                                               monkeypatch):
    # with the V-cycle, here the cyclic reduction of the profile operator,
    # replaced by the identity, 500 iterations are too few
    monkeypatch.setattr(grid.Hierarchy, "vcycle", lambda self, b: b)
    region = np.flatnonzero(bowl_field.interior_mask(2))
    with pytest.raises(EigenConvergenceError, match="after 500 iterations"):
        first_eigenvalue(bowl_field, spec_linear, region, tol=1e-10)


def test_one_node_translation_region_is_refused(reaper_field, spec_linear):
    with pytest.raises(RulingWidthError, match="one-node translation region"):
        build_assembly(reaper_field, spec_linear, [600])
    # a given ruling width needs no region length
    asm = build_assembly(reaper_field, spec_linear, [600], ruling_width=1.0)
    assert asm.extra_mode == pytest.approx(np.pi**2)


# -- vectorised profile assembly against the interval loop --------------------

def _profile_assembly_loop(field, spec, region, ruling_width=None):
    """(K as CSR, mass) from the per-interval loop the edge arrays must
    reproduce."""
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
    # the loop's matrix is tridiagonal, and its three diagonals are the
    # Tridiagonal's arrays bit for bit
    assert K.nnz == 3 * region.size - 2
    T = asm.stiffness
    for got, want in ((T.diag, K.diagonal()), (T.off, K.diagonal(-1)),
                      (T.off, K.diagonal(1)), (asm.mass, mass)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# -- graph assembly against the COO element assembly --------------------------

def _graph_assembly_coo(field, spec, region):
    """(K, mass) on region from a COO scatter of the element matrices over
    the whole grid, with the region's rows and columns taken afterwards."""
    import scipy.sparse as sp
    from phimin.stability import _cell_coefficients
    patch = field.source
    nx, ny, h = patch.nx, patch.ny, patch.h
    e_phi = np.exp(pm.eval_potential(spec, field.mu).phi)
    coef, gixx, giyy, gixy = _cell_coefficients(field, e_phi)
    gp = 1.0 / np.sqrt(3.0)
    ncell = (nx - 1) * (ny - 1)
    A = np.empty((ncell, 2, 2))
    A[:, 0, 0] = (coef * gixx).ravel()
    A[:, 1, 1] = (coef * giyy).ravel()
    A[:, 0, 1] = A[:, 1, 0] = (coef * gixy).ravel()
    Ke = np.zeros((ncell, 4, 4))
    for xi, et in [(-gp, -gp), (gp, -gp), (-gp, gp), (gp, gp)]:
        B = np.array([[-(1 - et), (1 - et), -(1 + et), (1 + et)],
                      [-(1 - xi), -(1 + xi), (1 - xi), (1 + xi)]]) / 4.0 * (2.0 / h)
        AB = np.einsum("cab,bj->caj", A, B)
        Ke += np.einsum("ai,caj->cij", B, AB) * (h**2 / 4.0)
    ci, cj = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    n00 = (ci * ny + cj).ravel()
    nodes = np.stack([n00, n00 + ny, n00 + 1, n00 + ny + 1], axis=1)
    rows = np.repeat(nodes, 4, axis=1).ravel()
    cols = np.tile(nodes, (1, 4)).ravel()
    K = sp.coo_matrix((Ke.ravel(), (rows, cols)), shape=(nx * ny, nx * ny)).tocsr()
    mass = np.zeros(nx * ny)
    for k in range(4):
        np.add.at(mass, nodes[:, k], coef.ravel() * h**2 / 4.0)
    return K[region][:, region].tocsr(), mass[region]


@pytest.fixture(scope="module")
def bowl_graphs(bowl, spec_linear):
    """Bowl graphs at h = 1/16 on a square and on a non-square domain."""
    from scipy.interpolate import CubicSpline
    spline = CubicSpline(bowl.surface.x, bowl.surface.z)
    fields = {}
    for name, domain in (("square", (-1.0, 1.0, -1.0, 1.0)),
                         ("non-square", (0.0, 1.0, 0.0, 0.75))):
        res = solve_graph(spec_linear, domain, 1 / 16,
                          lambda x, y: spline(np.hypot(x, y)), NewtonConfig())
        fields[name] = sample_geometry(res.surface, spec_linear)
    return fields


@pytest.mark.parametrize("margin", [0, 1, 2])
@pytest.mark.parametrize("domain", ["square", "non-square"])
def test_graph_assembly_matches_coo_assembly(bowl_graphs, spec_linear, domain,
                                             margin):
    field = bowl_graphs[domain]
    region = np.flatnonzero(field.interior_mask(margin))
    asm = build_assembly(field, spec_linear, region)
    K, mass = _graph_assembly_coo(field, spec_linear, region)
    for got, want in ((asm.stiffness.indices, K.indices),
                      (asm.stiffness.indptr, K.indptr), (asm.mass, mass)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # the closed-form element matrix sums in another order than the Gauss
    # points of the reference: each entry within rounding of its row's largest
    row_max = np.repeat(np.maximum.reduceat(abs(K.data), K.indptr[:-1]), np.diff(K.indptr))
    assert asm.stiffness.data.dtype == K.data.dtype
    assert np.all(abs(asm.stiffness.data - K.data) <= 1e-14 * row_max)


@pytest.mark.parametrize("margin", [0, 1, 2])
@pytest.mark.parametrize("domain", ["square", "non-square"])
def test_graph_stiffness_is_exactly_symmetric(bowl_graphs, spec_linear, domain, margin):
    field = bowl_graphs[domain]
    K = build_assembly(field, spec_linear, np.flatnonzero(field.interior_mask(margin))).stiffness
    assert (K != K.T).nnz == 0


def test_graph_region_must_be_a_block(bowl_graphs, spec_linear):
    field = bowl_graphs["non-square"]
    nx, ny = field.source.nx, field.source.ny
    block = np.zeros((nx, ny), dtype=bool)
    block[2:-2, 2:-2] = True
    L_shape = block.copy()
    L_shape[nx // 2:-2, ny // 2:-2] = False
    build_assembly(field, spec_linear, np.flatnonzero(block))
    with pytest.raises(ValueError, match="rectangular blocks"):
        build_assembly(field, spec_linear, np.flatnonzero(L_shape))


def test_region_is_sorted_distinct_and_checked(bowl_field):
    n = bowl_field.n_samples
    region = stability._region(bowl_field, [7, 3, 7, n - 1, 3, 0])
    assert region.dtype == np.int64 and region.tolist() == [0, 3, 7, n - 1]
    drawn = np.random.default_rng(0).integers(0, n, size=3 * n)
    assert stability._region(bowl_field, drawn).tolist() == sorted(set(drawn.tolist()))
    for bad, match in (([], "empty"), (np.array([], dtype=int), "empty"),
                       ([4, -1, 4], "out of range"), ([0, n], "out of range")):
        with pytest.raises(ValueError, match=match):
            stability._region(bowl_field, bad)


@pytest.mark.parametrize("form", [True, False], ids=["quadratic_form", "build_assembly"])
@pytest.mark.parametrize("refusal, match", [("empty", "empty"),
                                            ("negative", "out of range"),
                                            ("past-end", "out of range")])
def test_bad_regions_are_refused(bowl_field, spec_linear, form, refusal, match):
    n = bowl_field.n_samples
    region = {"empty": [], "negative": [-1], "past-end": [n + 5]}[refusal]
    with pytest.raises(ValueError, match=match):
        if form:
            quadratic_form(bowl_field, spec_linear, np.zeros(n), region)
        else:
            build_assembly(bowl_field, spec_linear, region)
