import gc
import json
import math
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import phimin as pm
from phimin import grid, solvers
from phimin.cli import main
from phimin.grid import Hierarchy, LinearSolveError, transfers
from phimin.potential import FAMILIES, PotentialDomainError, PotentialSpec
from phimin.solvers import (AxisRegular, NewtonConfig, PointStart, ShootingConfig,
                            _graph_jacobian, _harmonic_extension, _newton,
                            _trial, graph_pde_residual, rotational_curve,
                            solve_graph, solve_rotational_profile,
                            solve_translation_profile)
from phimin.surface_geometry import (AxisSingularityError, sample_geometry,
                                     phi_minimal_residual)


def _catenoid_error(spec, step):
    cfg = ShootingConfig(start=PointStart(1.0, 0.0, np.pi / 2), s_max=1.2, step=step)
    curve = solve_rotational_profile(spec, cfg).surface
    return np.abs(curve.x - np.cosh(curve.z)).max()


def _reaper_error(spec, step, s_max=2.5):
    cfg = ShootingConfig(start=PointStart(0.0, 0.0, 0.0), s_max=s_max, step=step)
    curve = solve_translation_profile(spec, cfg).surface
    return np.abs(curve.z + np.log(np.cos(curve.x))).max()


def test_catenoid_closed_form(spec_zero):
    cfg = ShootingConfig(start=PointStart(1.0, 0.0, np.pi / 2), s_max=1.2, step=1e-4)
    res = solve_rotational_profile(spec_zero, cfg)
    curve = res.surface
    mask = np.abs(curve.z) <= 1.0
    rel = (np.abs(curve.x - np.cosh(curve.z)) / np.cosh(curve.z))[mask]
    assert rel.max() <= 1e-6
    assert res.converged


def test_grim_reaper_closed_form(spec_linear):
    cfg = ShootingConfig(start=PointStart(0.0, 0.0, 0.0), s_max=2.5, step=1e-4)
    res = solve_translation_profile(spec_linear, cfg)
    curve = res.surface
    mask = np.abs(curve.x) <= 1.4
    err = np.abs(curve.z + np.log(np.cos(curve.x)))[mask]
    assert err.max() <= 1e-6


def test_fourth_order_convergence(spec_zero, spec_linear):
    cat = [_catenoid_error(spec_zero, h) for h in (0.04, 0.02)]
    reap = [_reaper_error(spec_linear, h) for h in (0.04, 0.02)]
    assert 13.0 <= cat[0] / cat[1] <= 19.0
    assert 13.0 <= reap[0] / reap[1] <= 19.0


def test_axis_start_curvature_split(spec_linear, bowl):
    # theta'(0) = phi'(z0)/2 at a regular axis point
    curve = bowl.surface
    dtheta = np.gradient(curve.theta, curve.step, edge_order=2)
    assert dtheta[0] == pytest.approx(0.5, abs=1e-6)
    field = sample_geometry(curve, spec_linear)
    assert field.k1[0] == pytest.approx(-0.5, abs=1e-6)
    assert field.k2[0] == pytest.approx(-0.5, abs=1e-6)


def test_bowl_far_field_flattens(spec_linear):
    # u(r) - (r^2/2 - log r) approaches a constant; the drift over a far
    # radial window shrinks compared with an inner one
    cfg = ShootingConfig(start=AxisRegular(0.0), s_max=130.0, step=5e-3)
    curve = solve_rotational_profile(spec_linear, cfg).surface
    gap = curve.z - (curve.x**2 / 2.0 - np.log(np.maximum(curve.x, 1e-12)))
    inner = (curve.x > 2.0) & (curve.x < 5.0)
    outer = (curve.x > 8.0) & (curve.x < 15.0)
    assert np.ptp(gap[outer]) <= 0.05
    assert np.ptp(gap[outer]) <= 0.2 * np.ptp(gap[inner])


def test_bowl_is_mean_convex_graph_near_axis(bowl_field):
    interior = bowl_field.interior_mask(2)
    assert np.all(bowl_field.eta[interior] > 0.0)
    assert np.all(bowl_field.H[interior] < 0.0)


def test_translation_with_zero_slope_is_line(spec_zero):
    cfg = ShootingConfig(start=PointStart(0.0, 0.0, 0.3), s_max=1.0, step=1e-3)
    curve = solve_translation_profile(spec_zero, cfg).surface
    assert np.ptp(curve.theta) == 0.0


def test_translation_initial_turning_rate(spec_quadratic):
    cfg = ShootingConfig(start=PointStart(0.0, 1.0, 0.0), s_max=0.5, step=1e-4)
    curve = solve_translation_profile(spec_quadratic, cfg).surface
    dtheta = np.gradient(curve.theta, curve.step, edge_order=2)
    assert dtheta[0] == pytest.approx(2.0, abs=1e-6)  # phi'(1) = 2


def test_domain_exit_error():
    spec = pm.PotentialSpec.log_power(1.0)  # domain z > 0
    cfg = ShootingConfig(start=PointStart(1.0, 0.5, -np.pi / 2), s_max=2.0, step=1e-3)
    with pytest.raises(PotentialDomainError):
        solve_translation_profile(spec, cfg)


def test_domain_exit_at_a_stage_inside_the_step():
    # z0 = 5e-4 falling straight down with step 1e-3: the second stage lands
    # on z = 0, where phi' = a/z is singular, before the step end is reached
    spec = pm.PotentialSpec.log_power(1.0)
    cfg = ShootingConfig(start=PointStart(1.0, 5e-4, -np.pi / 2), s_max=0.1,
                         step=1e-3)
    with pytest.raises(PotentialDomainError, match="at stage 2 of step 1"):
        solve_translation_profile(spec, cfg)


def test_domain_exit_at_the_start():
    spec = pm.PotentialSpec.log_power(1.0)
    cfg = ShootingConfig(start=PointStart(1.0, 0.0, 0.0), s_max=0.1, step=1e-3)
    with pytest.raises(PotentialDomainError, match="start height"):
        solve_translation_profile(spec, cfg)


def test_axis_point_start_rejected(spec_linear):
    cfg = ShootingConfig(start=PointStart(0.0, 0.0, 0.0), s_max=1.0, step=1e-3)
    with pytest.raises(AxisSingularityError):
        solve_rotational_profile(spec_linear, cfg)


@pytest.mark.parametrize("x0", [0.01, 0.05])
def test_shot_into_the_axis_lands_within_one_step(spec_zero, x0):
    # theta0 = pi heads straight at the axis with no weight, the flat disk:
    # from x0 = 0.01 a stage of step 10 lands on x = 0 exactly, from
    # x0 = 0.05 step 50 ends within AXIS_TOL of it; either step is dropped
    # and the shot ends at the sample before it, with x sin(theta) kept
    h = 1e-3
    cfg = ShootingConfig(start=PointStart(x0, 0.0, np.pi), s_max=1.0, step=h)
    curve = solve_rotational_profile(spec_zero, cfg).surface
    assert len(curve) == round(x0 / h)
    assert 0.0 < curve.x[-1] <= h * (1 + 1e-9)
    assert np.ptp(curve.x * np.sin(curve.theta)) <= 1e-16


def test_unresolved_approach_to_the_axis_is_an_axis_singularity(spec_linear):
    # with phi' = 1 the shot from x0 = 0.01 turns over before the axis, and
    # step 11 reaches it from a sample whose tangent is not axial
    cfg = ShootingConfig(start=PointStart(0.01, 0.0, np.pi), s_max=1.0, step=1e-3)
    with pytest.raises(AxisSingularityError, match="step 11 reached the axis"):
        solve_rotational_profile(spec_linear, cfg)


def test_stage_on_the_axis_exits_2_in_one_line(tmp_path, capsys):
    # the Linear shot of the test above exits 2, the flat disk lands and exits 0
    for family, code in (({"family": "Linear", "slope": 1.0}, 2),
                         ({"family": "Constant", "c0": 0.0}, 0)):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "potential": family, "command": "SolveRotational",
            "command_params": {"start": {"kind": "point", "x0": 0.01, "z0": 0.0,
                                         "theta0": math.pi},
                               "s_max": 1.0, "step": 1e-3}}))
        out = tmp_path / family["family"]
        assert main(["--config", str(path), "--out", str(out)]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("error: AxisSingularityError: step 11 reached the axis")
            assert err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err == ""


# a weight of each family whose shots from heights in [1, 2] stay well
# inside its domain over arclength 0.5
_FIRST_INTEGRAL_WEIGHTS = {
    "Constant": st.builds(PotentialSpec.constant, st.floats(-1.0, 1.0)),
    "Linear": st.builds(PotentialSpec.linear, st.floats(-2.0, 2.0)),
    "Quadratic": st.builds(PotentialSpec.quadratic, st.floats(0.0, 1.5),
                           st.floats(-1.0, 1.5)),
    "LogPower": st.builds(PotentialSpec.log_power, st.floats(-2.0, 2.0)),
    "Series": st.builds(lambda lam, beta, c: PotentialSpec.series(lam, beta, c, u0=1.0),
                        st.floats(0.0, 1.0), st.floats(-1.0, 1.0),
                        st.lists(st.floats(-0.5, 0.5), max_size=2)),
}

# a shot's first-integral defect at step h is at most _FI_ORDER_C h^4 of its
# largest term (the largest seen in 300 draws a family was 0.61 h^4); a
# defect above _FI_ROUNDING, about 1000 times the rounding of these shots,
# falls at least 2^3.5 times when the step is halved
_FI_ORDER_C = 5.0
_FI_ROUNDING = 1e-11


def _shots(family):
    """(kind, start) of the shots the first-integral tests draw: translation,
    an axis start, a point start with theta0 <= 2.4, so that a Constant
    weight's neck x0 sin(theta0) is at least 0.3, and for the Constant
    weight the flat disk, which lands on the axis."""
    heights = st.floats(1.0, 2.0)
    shots = [st.tuples(st.just("translation"), st.builds(
                 PointStart, st.just(0.0), heights, st.floats(-1.2, 1.2))),
             st.tuples(st.just("rotational"), st.builds(AxisRegular, heights)),
             st.tuples(st.just("rotational"), st.builds(
                 PointStart, st.floats(0.5, 1.5), heights, st.floats(-1.2, 2.4)))]
    if family == "Constant":
        shots.append(st.tuples(st.just("rotational"), st.builds(
            PointStart, st.floats(0.05, 0.4), heights, st.just(math.pi))))
    return st.one_of(shots)


def _shoot(spec, kind, start, step, s_max=0.5):
    cfg = ShootingConfig(start=start, s_max=s_max, step=step)
    if kind == "rotational":
        return rotational_curve(spec, cfg)
    return solve_translation_profile(spec, cfg).surface


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_first_integrals_hold_to_fourth_order(first_integral_defects, family, data):
    spec = data.draw(_FIRST_INTEGRAL_WEIGHTS[family])
    kind, start = data.draw(_shots(family))
    h = data.draw(st.sampled_from([2e-3, 4e-3, 8e-3]))
    coarse = first_integral_defects(spec, _shoot(spec, kind, start, h))
    fine = first_integral_defects(spec, _shoot(spec, kind, start, h / 2))
    for name, defect in coarse.items():
        assert defect <= _FI_ORDER_C * h**4, name
        assert fine[name] <= _FI_ORDER_C * (h / 2) ** 4, name
        if defect > _FI_ROUNDING:
            assert defect >= 2.0**3.5 * fine[name], name


def test_every_converged_solve_passes_minimality(bowl, reaper, catenoid,
                                                 spec_linear, spec_zero):
    for res, spec in ((bowl, spec_linear), (reaper, spec_linear),
                      (catenoid, spec_zero)):
        field = sample_geometry(res.surface, spec)
        rep = phi_minimal_residual(field, spec)
        assert rep.max_abs_residual <= 60.0 * res.surface.step**2


def test_flat_graph_unique_solution(spec_zero):
    res = solve_graph(spec_zero, (0, 1, 0, 1), 1 / 16,
                      lambda x, y: np.zeros_like(x), NewtonConfig())
    assert res.converged
    assert np.abs(res.surface.u).max() == 0.0


def _reaper_1d_discrete(xs, h, tol=1e-13):
    """Newton for the one-dimensional ruled-profile stencil, boundary from
    the closed form; gives nodal values the 2-D solver preserves exactly."""
    u = -np.log(np.cos(xs))
    n = len(xs)
    for _ in range(50):
        p = (u[2:] - u[:-2]) / (2 * h)
        r = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        w2 = 1.0 + p**2
        F = r / w2**1.5 - 1.0 / np.sqrt(w2)
        if np.abs(F).max() <= tol:
            break
        J = np.zeros((n - 2, n - 2))
        eps = 1e-7
        for k in range(n - 2):
            up = u.copy()
            up[k + 1] += eps
            pp = (up[2:] - up[:-2]) / (2 * h)
            rp = (up[2:] - 2 * up[1:-1] + up[:-2]) / h**2
            w2p = 1.0 + pp**2
            J[:, k] = ((rp / w2p**1.5 - 1.0 / np.sqrt(w2p)) - F) / eps
        u[1:-1] += np.linalg.solve(J, -F)
    return u


def test_graph_preserves_ruling_symmetry(spec_linear):
    h = 1 / 16
    n = int(round(2.0 / h)) + 1
    xs = -1.0 + h * np.arange(n)
    u1d = _reaper_1d_discrete(xs, h)
    lookup = dict(zip(np.round(xs, 12), u1d))
    boundary = lambda x, y: np.array([lookup[v] for v in np.round(np.atleast_1d(x), 12)])
    res = solve_graph(spec_linear, (-1, 1, -1, 1), h, boundary,
                      NewtonConfig(tol_residual=1e-12))
    assert res.converged
    u = res.surface.u
    assert np.abs(u - u[:, :1]).max() <= 1e-10


def test_newton_from_exact_solution_stops_immediately(spec_linear):
    h = 1 / 16
    n = int(round(2.0 / h)) + 1
    xs = -1.0 + h * np.arange(n)
    u1d = _reaper_1d_discrete(xs, h)
    grid = np.tile(u1d[:, None], (1, n))
    _, res_norm, iters, _ = _newton(spec_linear, grid, h, NewtonConfig(tol_residual=1e-10))
    assert res_norm <= 1e-10 and iters <= 2


def _bowl_boundary(bowl):
    curve = bowl.surface
    assert curve.x.max() > np.sqrt(2.0)  # the profile reaches the corners
    return lambda x, y: np.interp(np.hypot(x, y), curve.x, curve.z)


def test_nested_start_matches_single_level_solve(spec_linear, bowl):
    h = 1 / 32
    boundary = _bowl_boundary(bowl)
    nested = solve_graph(spec_linear, (-1, 1, -1, 1), h, boundary, NewtonConfig())
    assert nested.converged and "nested start" in nested.diagnostics
    n = int(round(2.0 / h)) + 1
    xs = -1.0 + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u_bc = boundary(X, Y)
    single, res_norm, _, _ = _newton(spec_linear, _harmonic_extension(u_bc), h,
                                     NewtonConfig())
    assert res_norm <= NewtonConfig().tol_residual
    assert np.abs(nested.surface.u - single).max() <= 1e-12


def test_nested_start_needs_few_fine_steps(spec_linear, bowl):
    res = solve_graph(spec_linear, (-1, 1, -1, 1), 1 / 64, _bowl_boundary(bowl),
                      NewtonConfig())
    assert res.converged and res.iterations <= 2
    # one note per coarser grid: h = 1/8, 1/16, 1/32
    assert res.diagnostics.count("Newton steps to residual") == 3


def test_odd_grid_uses_harmonic_start(spec_linear, bowl):
    res = solve_graph(spec_linear, (-1, 1, -1, 1), 2 / 15, _bowl_boundary(bowl),
                      NewtonConfig())
    assert res.surface.u.shape == (16, 16)
    assert res.converged and "nested start" not in res.diagnostics


def test_boundary_evaluated_once_per_solve(spec_linear, bowl):
    inner = _bowl_boundary(bowl)
    calls = []

    def boundary(x, y):
        calls.append(np.size(x))
        return inner(x, y)

    res = solve_graph(spec_linear, (-1, 1, -1, 1), 1 / 64, boundary, NewtonConfig())
    assert res.converged and "nested start" in res.diagnostics
    assert calls == [4 * 128]


def test_nested_start_on_non_square_domain(spec_linear, bowl):
    res = solve_graph(spec_linear, (-1, 1, -0.5, 0.5), 1 / 32, _bowl_boundary(bowl),
                      NewtonConfig())
    assert res.surface.u.shape == (65, 33)
    assert res.converged and "nested start: h = 0.0625" in res.diagnostics


def test_prolonged_start_outside_domain_falls_back_to_harmonic():
    # a boundary spike makes the cubic prolongation undershoot the floor
    # alpha = 0 next to it; the harmonic extension keeps within the data
    spec = pm.PotentialSpec.constant(0.0, alpha=0.0)
    boundary = lambda x, y: np.where(np.isclose(x, 0.0) & np.isclose(y, -1.0),
                                     1.0, 1e-3)
    res = solve_graph(spec, (-1, 1, -1, 1), 1 / 32, boundary, NewtonConfig())
    assert res.converged and res.surface.u.min() > 0.0
    assert "h = 0.03125: prolonged start left the weight domain" in res.diagnostics


def _no_superlu(*args, **kwargs):
    raise AssertionError("an operator of half-bandwidth at most 64 reached SuperLU")


def _random_stencil(m, n, seed=7):
    """A non-symmetric, diagonally dominant 9-point operator on m x n
    unknowns."""
    coefs = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, n, 9))
    coefs[..., 4] = 10.0
    return grid.stencil_matrix(grid.NINE_POINT, coefs)


@pytest.mark.parametrize("m, n", [(1, 1), (4, 4), (5, 5), (31, 31), (63, 31),
                                  (7, 12), (15, 9), (1, 13), (13, 1)])
def test_coarsest_lu_matches_the_dense_solve(m, n, monkeypatch):
    # a non-symmetric 9-point operator on m x n unknowns, thin and single
    # node grids included: its half-bandwidth n + 1 is at most 64, so the
    # coarsest LU is the banded one, and it solves to rounding
    monkeypatch.setattr(spla, "splu", _no_superlu)
    A = _random_stencil(m, n)
    b = np.random.default_rng(8).standard_normal(m * n)
    assert transfers(m + 1, n + 1) == []
    sol, iters = Hierarchy(A, []).solve(b, 0.0)
    assert iters == 0
    ref = np.linalg.solve(A.toarray(), b)
    assert np.abs(sol - ref).max() <= 1e-14 * np.abs(ref).max()
    assert np.abs(A @ sol - b).max() <= 1e-12 * np.abs(b).max()


def test_galerkin_and_tridiagonal_lus_match_the_dense_solve(monkeypatch):
    # the Galerkin operator of a 96 x 16-cell grid on its 48 x 8-cell
    # coarsest grid, and a tridiagonal operator in CSR, take the banded LU
    # too
    monkeypatch.setattr(spla, "splu", _no_superlu)
    [(P, R)] = transfers(96, 16)
    A = _random_stencil(95, 15)
    coarse = (R @ (A @ P)).toarray()
    rng = np.random.default_rng(9)
    b = rng.standard_normal(coarse.shape[0])
    ref = np.linalg.solve(coarse, b)
    assert np.abs(Hierarchy(A, [(P, R)]).coarse_solve(b) - ref).max() <= (
        1e-14 * np.abs(ref).max())
    T = sp.diags([rng.uniform(-1.0, 1.0, 199), rng.uniform(3.0, 4.0, 200),
                  rng.uniform(-1.0, 1.0, 199)], [-1, 0, 1], format="csr")
    b = rng.standard_normal(200)
    sol, iters = Hierarchy(T, []).solve(b, 0.0)
    ref = np.linalg.solve(T.toarray(), b)
    assert iters == 0 and np.abs(sol - ref).max() <= 1e-14 * np.abs(ref).max()


def test_wide_operator_falls_back_to_superlu(monkeypatch):
    # a 65 x 65-cell grid has an odd number of cells, so it is not halved,
    # and its 9-point operator on 64 x 64 unknowns has half-bandwidth 65:
    # SuperLU factors it, and the banded LU of the same operator (with the
    # bound raised to 65) gives the same solution to rounding
    factored = []
    splu = spla.splu

    def counted(A, *args, **kwargs):
        factored.append(A.shape[0])
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(spla, "splu", counted)
    A = _random_stencil(64, 64)
    b = np.random.default_rng(10).standard_normal(64 * 64)
    assert transfers(65, 65) == []
    sol, _ = Hierarchy(A, []).solve(b, 0.0)
    assert factored == [64 * 64]
    monkeypatch.setattr(grid, "_DIRECT_CELLS", 65)
    band, _ = Hierarchy(A, []).solve(b, 0.0)
    assert factored == [64 * 64]
    assert np.abs(sol - band).max() <= 1e-14 * np.abs(band).max()
    assert np.abs(A @ sol - b).max() <= 1e-12 * np.abs(b).max()


@pytest.mark.parametrize("m, n", [(1, 5), (64, 64)])
def test_exactly_singular_lu_raises(m, n):
    # a zero column leaves an exactly zero pivot: the banded LU's info > 0
    # on 1 x 5 unknowns, and SuperLU's refusal on the 65 x 65-cell operator
    # of half-bandwidth 65
    keep = np.arange(m * n) != m * n // 2
    A = (_random_stencil(m, n) @ sp.diags(keep.astype(float))).tocsr()
    with pytest.raises(LinearSolveError, match=f"LU of {m * n} unknowns"):
        Hierarchy(A, [])


def _random_tridiagonal(n, seed):
    """A symmetric tridiagonal operator on n unknowns whose diagonal exceeds
    the absolute sum of its row's off-diagonal entries by 0.25 to 0.5, with
    the same matrix in CSR."""
    rng = np.random.default_rng(seed)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = (np.abs(np.append(off, 0.0)) + np.abs(np.append(0.0, off))
            + rng.uniform(0.25, 0.5, n))
    return (grid.Tridiagonal(diag, off),
            sp.diags([off, diag, off], [-1, 0, 1], shape=(n, n)).tocsr())


# every size up to 9, each side of three powers of two, and a large odd one
TRIDIAGONAL_SIZES = [*range(1, 10), *(2**k + d for k in (4, 7, 10) for d in (-1, 0, 1)),
                     1997]


@pytest.mark.parametrize("n", TRIDIAGONAL_SIZES)
def test_tridiagonal_products_match_csr_bit_for_bit(n):
    # lower, diagonal, upper from zero, as scipy's CSR product sums each row
    T, C = _random_tridiagonal(n, seed=n)
    rng = np.random.default_rng(n + 1)
    x = rng.standard_normal(n)
    U = rng.standard_normal((20, n))
    assert np.array_equal(T @ x, C @ x)
    assert np.array_equal(abs(T) @ np.abs(x), abs(C) @ np.abs(x))
    # a C-ordered block, and the Fortran-ordered transpose the Rayleigh
    # trials multiply
    for block in (np.ascontiguousarray(U.T), U.T):
        assert np.array_equal(T @ block, C @ block)


@pytest.mark.parametrize("n", TRIDIAGONAL_SIZES)
def test_cyclic_reduction_matches_the_dense_solve(n):
    T, C = _random_tridiagonal(n, seed=n)
    b = np.random.default_rng(n + 2).standard_normal(n)
    got = grid._factor(T, spd=True)(b)
    # backward stable: the residual is at the rounding of |T| |x|
    assert np.abs(C @ got - b).max() <= 1e-15 * abs(C).max() * np.abs(got).max()
    # diagonally dominant, so well conditioned: the forward match is at
    # rounding too
    want = np.linalg.solve(C.toarray(), b)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize("n", [1, 2, 5, 8, 33])
def test_cyclic_reduction_refuses_an_indefinite_operator(n):
    # shifted by its least eigenvalue plus a half, the operator is
    # symmetric and invertible, but not positive definite
    T, C = _random_tridiagonal(n, seed=n)
    least = np.linalg.eigvalsh(C.toarray())[0]
    S = grid.Tridiagonal(T.diag - least - 0.5, T.off)
    assert np.all(np.isfinite(np.linalg.solve(S.toarray(), np.ones(n))))
    with pytest.raises(LinearSolveError, match=f"cyclic reduction of {n} unknowns: "
                       "a pivot is not positive"):
        grid._factor(S, spd=True)


@pytest.mark.parametrize("nx, ny", [(9, 17), (17, 9), (33, 33), (49, 33),
                                    (65, 65), (129, 129)])
def test_harmonic_extension_reproduces_a_harmonic_cubic(nx, ny):
    # the 5-point Laplacian is exact on x^3 - 3 x y^2, so the discrete
    # harmonic extension of its boundary values is the cubic itself, to
    # rounding: on the banded LU and, at 129 x 129 nodes (half-bandwidth
    # 127), on SuperLU
    X, Y = np.meshgrid(np.arange(nx) / 64.0, np.arange(ny) / 64.0 - 0.5,
                       indexing="ij")
    cubic = X**3 - 3.0 * X * Y**2
    u_bc = cubic.copy()
    u_bc[1:-1, 1:-1] = np.random.default_rng(nx * ny).uniform(-1.0, 1.0,
                                                              (nx - 2, ny - 2))
    u = _harmonic_extension(u_bc)
    assert np.abs(u - cubic).max() <= 1e-12
    assert np.array_equal(u[0], u_bc[0]) and np.array_equal(u[:, -1], u_bc[:, -1])


def test_lu_solve_matches_the_dense_solve(spec_linear, bowl):
    # with no grid above the coarsest, a hierarchy is the LU back-solve of
    # the Newton Jacobian at the bowl's harmonic start
    h = 1 / 16
    n = int(round(2.0 / h)) + 1
    xs = -1.0 + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u = _harmonic_extension(_bowl_boundary(bowl)(X, Y))
    rhs = -graph_pde_residual(spec_linear, u, h).ravel()
    J = _graph_jacobian(spec_linear, u, h)
    ref = np.linalg.solve(J.toarray(), rhs)
    sol, iters = Hierarchy(J, []).solve(rhs, 1e-4)
    assert iters == 0
    assert np.abs(sol - ref).max() <= 1e-13 * np.abs(ref).max()


def _coo_stencil(stencil, nx, ny):
    """The stencil [(di, dj, coef)] of an nx x ny grid assembled as COO
    triples over the interior unknowns, numbered row-major, and converted
    by scipy."""
    n = (nx - 2) * (ny - 2)
    number = np.arange(n)
    unknown = np.full((nx, ny), -1, dtype=np.int64)
    unknown[1:-1, 1:-1] = number.reshape(nx - 2, ny - 2)
    rows, cols, vals = [], [], []
    for di, dj, coef in stencil:
        nbr = unknown[1 + di:nx - 1 + di, 1 + dj:ny - 1 + dj].ravel()
        keep = nbr >= 0
        rows.append(number[keep])
        cols.append(nbr[keep])
        vals.append(np.broadcast_to(coef, (nx - 2, ny - 2)).ravel()[keep])
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n))


def _same_arrays(A, B):
    return all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in ((A.indptr, B.indptr), (A.indices, B.indices),
                            (A.data, B.data)))


@pytest.mark.parametrize("nx, ny", [(3, 3), (3, 7), (7, 3), (17, 17), (129, 129)])
@pytest.mark.parametrize("case", ["jacobian-row-major", "laplacian"])
def test_stencil_matrix_matches_the_coo_assembly(spec_linear, monkeypatch,
                                                 nx, ny, case):
    calls = []
    stencil_matrix = solvers.stencil_matrix

    def captured(offsets, coefs):
        A = stencil_matrix(offsets, coefs)
        calls.append((offsets, coefs, A))
        return A

    monkeypatch.setattr(solvers, "stencil_matrix", captured)
    h = 1 / 8
    # heights even in x and y about the middle node: p = 0 and q = 0 on the
    # middle lines, where the corner coefficients are signed zeros
    X, Y = np.meshgrid(h * (np.arange(nx) - nx // 2), h * (np.arange(ny) - ny // 2),
                       indexing="ij")
    u = 1.0 + 0.5 * X**2 + 0.3 * Y**2
    if case == "laplacian":
        _harmonic_extension(u)
        (_, _, got), = calls
        stencil = [(0, 0, 4.0), (1, 0, -1.0), (-1, 0, -1.0), (0, 1, -1.0),
                   (0, -1, -1.0)]
    else:
        _graph_jacobian(spec_linear, u, h)
        (offsets, coefs, got), = calls
        assert np.any(coefs == 0.0)
        # the COO route took the offsets in another order
        stencil = [(di, dj, coefs[..., m])
                   for m, (di, dj) in reversed(list(enumerate(offsets)))]
    want = _coo_stencil(stencil, nx, ny)
    assert isinstance(got, sp.csr_matrix) and got.shape == want.shape
    assert _same_arrays(got, want.tocsr())
    # the LU and the harmonic solve take the CSC form
    assert _same_arrays(got.tocsc(), want.tocsc())


def test_jacobian_assembly_peak_memory(spec_linear):
    # h = 1/128 on [-1, 1]^2: 65,025 unknowns, 9-point rows; the COO
    # assembly with its conversion to CSR peaked at 47.0 MiB, this one 27.1
    h = 1 / 128
    xs = -1.0 + h * np.arange(257)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u = 1.0 + 0.5 * X**2 + 0.3 * Y**2
    tracemalloc.start()
    try:
        J = _graph_jacobian(spec_linear, u, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert J.nnz == 9 * 255**2 - 12 * 255 + 4
    assert peak <= 32 * 2**20


def _count_factorisations(monkeypatch):
    """Unknowns of each matrix grid._factor factors, in call order; every
    one an LU, as the graph solver declares no operator positive definite."""
    sizes = []
    factor = grid._factor

    def counted(A, spd=False):
        assert not spd
        sizes.append(A.shape[0])
        return factor(A, spd=spd)

    monkeypatch.setattr(grid, "_factor", counted)
    return sizes


def _count_hierarchies(monkeypatch):
    """Unknowns of the Jacobian of each Hierarchy built, in call order,
    and a weak reference to each hierarchy."""
    sizes, refs = [], []

    class Counted(Hierarchy):
        def __init__(self, J, transfers):
            super().__init__(J, transfers)
            sizes.append(J.shape[0])
            refs.append(weakref.ref(self))

    monkeypatch.setattr(solvers, "Hierarchy", Counted)
    return sizes, refs


def test_bowl_factors_once_on_its_own_grid(spec_linear, bowl, monkeypatch):
    # h = 1/64 on [-1, 1]^2 has 128 cells a side: one V-cycle hierarchy,
    # whose coarsest grid of 64 cells is the only LU on that grid
    sizes, _ = _count_hierarchies(monkeypatch)
    res = solve_graph(spec_linear, (-1, 1, -1, 1), 1 / 64, _bowl_boundary(bowl),
                      NewtonConfig())
    assert res.converged and res.iterations <= 2
    assert sizes.count(127 * 127) == 1
    fine, nested = res.diagnostics.split("; nested start: ")
    assert "Newton steps (1 LU, " in fine and fine.endswith(" GMRES iterations)")
    # the grids of at most 64 cells keep the LU back-solve and its note
    assert "GMRES" not in nested and "h = 0.03125: 2 Newton steps" in nested


def _bowl_jacobian(spec, bowl, h):
    """(J, the transfers of its grid, a right-hand side) at the harmonic
    start of the bowl on [-1, 1]^2."""
    n = int(round(2.0 / h)) + 1
    xs = -1.0 + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u = _harmonic_extension(_bowl_boundary(bowl)(X, Y))
    rhs = -graph_pde_residual(spec, u, h).ravel()
    return _graph_jacobian(spec, u, h), transfers(n - 1, n - 1), rhs


@pytest.mark.parametrize("h", [1 / 64, 1 / 128])
def test_hierarchy_solve_matches_the_lu_solve(spec_linear, bowl, h):
    J, transfers, rhs = _bowl_jacobian(spec_linear, bowl, h)
    assert len(transfers) == round(math.log2(1 / (32 * h)))
    sol, iters = Hierarchy(J, transfers).solve(rhs, 1e-10)
    ref = spla.spsolve(J.tocsc(), rhs, permc_spec="MMD_AT_PLUS_A")
    assert 0 < iters <= 30
    assert np.abs(sol - ref).max() <= 1e-12 * np.abs(ref).max()


def test_hierarchy_is_freed_when_newton_returns(spec_linear, bowl, monkeypatch):
    # a hierarchy that closed a reference cycle would outlive _newton until
    # a full collection, holding every grid operator
    _, refs = _count_hierarchies(monkeypatch)
    h = 1 / 64
    n = int(round(2.0 / h)) + 1
    xs = -1.0 + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    u0 = _harmonic_extension(_bowl_boundary(bowl)(X, Y))
    gc.disable()
    try:
        _, res_norm, _, _ = _newton(spec_linear, u0, h, NewtonConfig())
        alive = [ref() is not None for ref in refs]
    finally:
        gc.enable()
    assert res_norm <= 1e-10 and refs and not any(alive)


def _lu_newton(spec, u, h, cfg):
    """The graph Newton with an LU of every Jacobian, as before the V-cycle:
    (last iterate, residual norm, steps, LU count)."""
    nx, ny = u.shape

    def back_solve(lu, res):
        return lu.solve(-res.ravel()).reshape(nx - 2, ny - 2)

    res = graph_pde_residual(spec, u, h)
    res_norm = float(np.abs(res).max())
    iters = lus = 0
    lu = None
    while res_norm > cfg.tol_residual and iters < cfg.max_iters:
        if lu is not None:
            u_try, res_try, try_norm = _trial(spec, u, h, back_solve(lu, res))
            if try_norm <= 0.1 * res_norm:
                u, res, res_norm = u_try, res_try, try_norm
                iters += 1
                continue
        J = _graph_jacobian(spec, u, h)
        lu = spla.splu(J.tocsc(), permc_spec="MMD_AT_PLUS_A")
        lus += 1
        delta = back_solve(lu, res)
        step_len = 1.0
        while step_len >= 2.0**-10:
            u_try, res_try, try_norm = _trial(spec, u, h, step_len * delta)
            if try_norm < res_norm:
                break
            step_len *= 0.5
        else:
            break
        u, res, res_norm = u_try, res_try, try_norm
        iters += 1
    return u, res_norm, iters, lus


@pytest.mark.parametrize("case", ["bowl-64", "bowl-48x32", "reaper-16"])
def test_small_grids_take_the_lu_newton_steps(spec_linear, bowl, case):
    # grids of at most 64 cells a side have no level above the coarsest,
    # so each step is the banded LU back-solve of the Jacobian: the steps
    # and LUs of SuperLU's Newton, and its u to rounding
    domain, h, boundary = {
        "bowl-64": ((-1, 1, -1, 1), 1 / 32, _bowl_boundary(bowl)),
        "bowl-48x32": ((-0.75, 0.75, -0.5, 0.5), 1 / 32, _bowl_boundary(bowl)),
        "reaper-16": ((-1, 1, -1, 1), 1 / 8, lambda x, y: -np.log(np.cos(x))),
    }[case]
    xs = np.arange(domain[0], domain[1] + h / 2, h)
    ys = np.arange(domain[2], domain[3] + h / 2, h)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    u0 = _harmonic_extension(boundary(X, Y))
    assert transfers(len(xs) - 1, len(ys) - 1) == []
    u, res_norm, iters, note = _newton(spec_linear, u0, h, NewtonConfig())
    ref, ref_norm, ref_iters, ref_lus = _lu_newton(spec_linear, u0, h, NewtonConfig())
    assert np.abs(u - ref).max() <= 1e-14
    assert (iters, note) == (ref_iters, f"{ref_lus} LU")
    assert res_norm == pytest.approx(ref_norm, rel=1e-2)


def _grid_start(spec, boundary, h, cfg):
    """The nested start of solve_graph on [-1, 1]^2 at spacing h."""
    n = int(round(2.0 / h)) + 1
    xs = -1.0 + h * np.arange(n)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    return solvers._nested_start(spec, boundary(X, Y), h, cfg, [])


@pytest.mark.parametrize("case, tol", [("bowl", 1e-10), ("quadratic-bowl", 1e-10),
                                       ("reaper", 1e-10), ("bowl", 1e-6),
                                       ("bowl", 1e-12)])
def test_v_cycle_newton_takes_the_lu_newton_steps(spec_linear, spec_quadratic,
                                                  bowl, case, tol):
    # the forcing term's cap is small enough that an inexact step does the
    # work of an exact one: a cap of 1e-2 adds a step on four of these
    # cases, and a cap of 1e-3 on the bowl at tol 1e-6 and 1e-12
    spec, boundary = {
        "bowl": (spec_linear, _bowl_boundary(bowl)),
        "quadratic-bowl": (spec_quadratic, _bowl_boundary(pm.solve_rotational_profile(
            spec_quadratic, ShootingConfig(start=AxisRegular(0.0), s_max=2.0,
                                           step=1e-3)))),
        "reaper": (spec_linear, lambda x, y: -np.log(np.cos(x))),
    }[case]
    h, cfg = 1 / 64, NewtonConfig(tol_residual=tol)
    u0 = _grid_start(spec, boundary, h, cfg)
    assert transfers(128, 128)
    u, res_norm, iters, note = _newton(spec, u0, h, cfg)
    ref, ref_norm, ref_iters, ref_lus = _lu_newton(spec, u0, h, cfg)
    assert res_norm <= tol and ref_norm <= tol
    assert iters == ref_iters and note.startswith(f"{ref_lus} LU, ")
    assert np.abs(u - ref).max() <= 1e-11


@pytest.mark.parametrize("tol", [1e-10, 1e-12])
def test_gmres_rtol_is_the_forcing_term(spec_linear, bowl, monkeypatch, tol):
    calls = []
    gmres = spla.gmres

    def recorded(A, b, **kwargs):
        calls.append((A.shape[0], kwargs["rtol"], np.linalg.norm(b)))
        return gmres(A, b, **kwargs)

    monkeypatch.setattr(spla, "gmres", recorded)
    res = solve_graph(spec_linear, (-1, 1, -1, 1), 1 / 64, _bowl_boundary(bowl),
                      NewtonConfig(tol_residual=tol))
    assert res.converged and res.iterations == len(calls) == 2
    assert "after 2 Newton steps (1 LU, " in res.diagnostics
    # the coarser grids of the nested start are LU-factored: no GMRES
    assert {size for size, _, _ in calls} == {127 * 127}
    eta_max = solvers._ETA_MAX
    for _, rtol, b_norm in calls:
        assert min(eta_max, 0.5 * tol / b_norm) <= rtol <= eta_max
    (_, eta0, norm0), (_, eta1, norm1) = calls
    assert eta0 == eta_max
    # at tol 1e-10 the floor lies above the cap, at 1e-12 below it
    want = min(eta_max, max(0.9 * (norm1 / norm0) ** 2, 0.5 * tol / norm1))
    assert eta1 == pytest.approx(want, rel=1e-12)
    assert (eta1 < eta_max) == (tol < 1e-10)


def _failing_gmres(A, b, **kwargs):
    """A stand-in for spla.gmres that reports no convergence (info 30)."""
    return np.zeros_like(b), 30


def test_gmres_failure_raises_and_takes_no_step(spec_linear, bowl, monkeypatch):
    events = []
    residual = solvers.graph_pde_residual

    def counted(*args):
        events.append("residual")
        return residual(*args)

    def gmres(A, b, **kwargs):
        events.append("gmres")
        return _failing_gmres(A, b)

    monkeypatch.setattr(solvers, "graph_pde_residual", counted)
    monkeypatch.setattr(spla, "gmres", gmres)
    # the first step's forcing term is the cap, and the message names it
    with pytest.raises(LinearSolveError,
                       match=r"GMRES missed relative residual eta_k = 0\.0001 "):
        solve_graph(spec_linear, (-1, 1, -1, 1), 1 / 64, _bowl_boundary(bowl),
                    NewtonConfig())
    # the 128-cell grid's first solve failed, and no trial iterate followed
    assert events.count("gmres") == 1 and events[-1] == "gmres"


def test_gmres_failure_exits_2_in_one_line(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(spla, "gmres", _failing_gmres)
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "potential": {"family": "Linear", "slope": 1}, "command": "SolveGraph",
        "command_params": {"domain": [-1, 1, -1, 1], "h": 1 / 64,
                           "boundary": {"kind": "bowl_profile"}}}))
    assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: LinearSolveError: GMRES missed") and err.count("\n") == 1


def test_rejected_chord_step_refactors_and_converges(spec_linear, monkeypatch):
    # from the harmonic start on the coarse grim reaper grid a chord step
    # misses the 0.1 residual cut, so the Jacobian is factored again
    sizes = _count_factorisations(monkeypatch)
    res = solve_graph(spec_linear, (-1, 1, -1, 1), 1 / 8,
                      lambda x, y: -np.log(np.cos(x)), NewtonConfig())
    assert res.converged and res.residual <= 1e-10
    # the first LU is the harmonic start's Laplacian, the rest Jacobians
    lus = len(sizes) - 1
    assert lus > 1 and set(sizes) == {15 * 15}
    assert res.iterations > lus  # some chord steps were kept
    assert f"({lus} LU)" in res.diagnostics


def test_stalled_line_search_stops_newton_unconverged(spec_linear, bowl):
    # a tolerance below the rounding of the residual: once no step of
    # length 2^-10 or more lowers it, Newton stops before max_iters (here
    # after 4 steps, 3 of them factored) and reports the last iterate
    cfg = NewtonConfig(tol_residual=1e-15)
    res = solve_graph(spec_linear, (-1, 1, -1, 1), 1 / 16, _bowl_boundary(bowl), cfg)
    assert not res.converged and res.iterations < cfg.max_iters
    assert 1e-15 < res.residual <= 1e-12


def test_single_newton_step_leaves_solve_unconverged(spec_linear, bowl):
    res = solve_graph(spec_linear, (-1, 1, -1, 1), 1 / 64, _bowl_boundary(bowl),
                      NewtonConfig(max_iters=1))
    assert not res.converged and res.iterations == 1
    assert res.residual > 1e-10


def test_graph_residual_definition(spec_linear):
    # flat graph residual is -phi'/W = -1 everywhere for the unit slope
    u = np.zeros((9, 9))
    res = graph_pde_residual(spec_linear, u, 0.25)
    assert np.allclose(res, -1.0)


def test_graph_boundary_domain_exit():
    spec = pm.PotentialSpec.log_power(1.0)  # needs u > 0
    with pytest.raises(PotentialDomainError):
        solve_graph(spec, (0, 1, 0, 1), 1 / 8,
                    lambda x, y: np.zeros_like(x) - 1.0, NewtonConfig())


def test_shooting_config_validation():
    with pytest.raises(ValueError):
        ShootingConfig(start=AxisRegular(0.0), s_max=0.01, step=0.1)
    with pytest.raises(ValueError):
        NewtonConfig(tol_residual=-1.0)
