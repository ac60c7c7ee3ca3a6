"""Constructors for weighted-minimal surfaces.

Profiles come from a classical RK4 shooting integration of the
curvature balance specialised to the symmetric cases,

    rotational:             theta' = phi'(z) cos(theta) - sin(theta)/x
    translation-invariant:  theta' = phi'(z) cos(theta)

with x' = cos(theta), z' = sin(theta).  Axis-regular rotational starts
use the series x = s - (a^2/24) s^3, theta = (a/2) s + a(2b - a^2)/32 s^3
(a = phi'(z0), b = phi''(z0)) across the removable x = 0 singularity.

Graphs come from a Newton iteration on the second-order central
difference discretisation of  div(grad u / W) = phi'(u) / W,
W = sqrt(1 + |grad u|^2), with an analytically assembled Jacobian
including the -phi''(u)/W zeroth-order term.  Each Jacobian is factored
once, as a grid.Hierarchy, and its factor is reused for chord steps
(Shamanskii's method; Kelley, Solving Nonlinear Equations with Newton's
Method, SIAM 2003): a step whose max-norm residual is at most
_CHORD_RATIO = 0.1 of the last one is kept, otherwise the Jacobian is
rebuilt and factored at the current iterate and its step damped.  At
h = 1/128 on [-1, 1]^2 a standalone solve peaks at about 109 MiB of
resident memory, against about 127 MiB with a COO assembly and 170 MiB
with an LU of the whole grid.  Newton starts from nested iteration
(Briggs, Henson and McCormick, ch. 3): the grid of spacing 2h is solved
first and its solution interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import FIVE_POINT, NINE_POINT, Hierarchy, stencil_matrix, transfers
from .potential import PotentialSpec, eval_potential
from .surface_geometry import (GeometryField, GraphPatch, ProfileCurve,
                               ROTATIONAL, TRANSLATION, grid_shape,
                               sample_geometry, phi_minimal_residual)


class DomainExitError(RuntimeError):
    """Integration or iteration left the weight's height domain."""


class AxisCollisionError(RuntimeError):
    """Rotational profile reached x = 0 with a non-axial tangent."""


@dataclass(frozen=True)
class AxisRegular:
    z0: float


@dataclass(frozen=True)
class PointStart:
    x0: float
    z0: float
    theta0: float


@dataclass
class ShootingConfig:
    start: object
    s_max: float
    step: float

    def __post_init__(self):
        if self.step <= 0 or self.s_max <= self.step:
            raise ValueError("need 0 < step < s_max")


@dataclass
class NewtonConfig:
    tol_residual: float = 1e-10
    max_iters: int = 30

    def __post_init__(self):
        if self.tol_residual <= 0:
            raise ValueError("tol_residual must be positive")


@dataclass
class SolveResult:
    surface: object
    residual: float
    iterations: int
    converged: bool
    diagnostics: str = ""
    # the geometry sampled for a profile's residual; None for a graph
    field: GeometryField | None = None


def _integrate_profile(spec: PotentialSpec, kind: str, s0: float, y0, cfg,
                       x_stop: float = math.inf):
    """RK4 on (x, z, theta) from arclength s0 with domain monitoring: the
    height is checked against the domain floor before each stage evaluates
    phi', and at the end of each step.  A rotational stage on the axis
    x = 0, or a step ending within 1e-9 of it with a non-axial tangent,
    raises AxisCollisionError.  The integration ends early at the first
    sample with x >= x_stop."""
    d1 = spec.rules.d1_scalar(spec)
    floor = spec.domain_left
    rotational = kind == ROTATIONAL
    cos, sin = math.cos, math.sin

    def stage_exit(z, k, stage):
        return DomainExitError(f"height {z:.6g} reached the domain boundary "
                               f"at stage {stage} of step {k + 1}")

    h = cfg.step
    hh = 0.5 * h
    h6 = h / 6.0
    n_steps = int(round((cfg.s_max - s0) / h))
    xs = np.empty(n_steps + 1)
    zs = np.empty(n_steps + 1)
    ts = np.empty(n_steps + 1)
    x, z, t = y0
    if z <= floor:
        raise DomainExitError(f"start height {z:.6g} is not above the domain "
                              f"boundary {floor:.6g}")
    xs[0], zs[0], ts[0] = x, z, t
    try:
        for k in range(n_steps):
            # stage i: (a_i, b_i, c_i) = (x', z', theta') at its (x, z, theta)
            a1 = cos(t)
            b1 = sin(t)
            c1 = d1(z) * a1
            if rotational:
                c1 -= b1 / x
            x2, z2, t2 = x + hh * a1, z + hh * b1, t + hh * c1
            if z2 <= floor:
                raise stage_exit(z2, k, 2)
            a2 = cos(t2)
            b2 = sin(t2)
            c2 = d1(z2) * a2
            if rotational:
                c2 -= b2 / x2
            x3, z3, t3 = x + hh * a2, z + hh * b2, t + hh * c2
            if z3 <= floor:
                raise stage_exit(z3, k, 3)
            a3 = cos(t3)
            b3 = sin(t3)
            c3 = d1(z3) * a3
            if rotational:
                c3 -= b3 / x3
            x4, z4, t4 = x + h * a3, z + h * b3, t + h * c3
            if z4 <= floor:
                raise stage_exit(z4, k, 4)
            a4 = cos(t4)
            b4 = sin(t4)
            c4 = d1(z4) * a4
            if rotational:
                c4 -= b4 / x4
            x += h6 * (a1 + 2 * a2 + 2 * a3 + a4)
            z += h6 * (b1 + 2 * b2 + 2 * b3 + b4)
            t += h6 * (c1 + 2 * c2 + 2 * c3 + c4)
            if z <= floor:
                raise DomainExitError(
                    f"height {z:.6g} reached the domain boundary at step {k + 1}")
            if rotational and x < 1e-9:
                if abs(sin(t)) > 1e-6:
                    raise AxisCollisionError(
                        f"profile hit the axis with theta = {t:.6g}")
                break
            xs[k + 1], zs[k + 1], ts[k + 1] = x, z, t
            if x >= x_stop:
                return xs[:k + 2], zs[:k + 2], ts[:k + 2]
        else:
            return xs, zs, ts
    except ZeroDivisionError as exc:
        # every stage's z is above the domain floor before phi' is read, so
        # the only division by zero left is sin(theta) / x at x = 0
        raise AxisCollisionError(
            f"a stage of step {k + 1} landed on the axis x = 0") from exc
    return xs[:k + 1], zs[:k + 1], ts[:k + 1]


def _profile_result(spec, curve: ProfileCurve) -> SolveResult:
    field = sample_geometry(curve, spec)
    report = phi_minimal_residual(field, spec)
    c_factor = report.max_abs_residual / curve.step**2
    return SolveResult(
        surface=curve,
        residual=report.max_abs_residual,
        iterations=len(curve) - 1,
        converged=True,
        diagnostics=f"minimality residual <= C step^2 with C = {c_factor:.3g}",
        field=field,
    )


def rotational_curve(spec: PotentialSpec, cfg: ShootingConfig,
                     x_stop: float = math.inf) -> ProfileCurve:
    """The rotationally symmetric profile of a weighted-minimal surface,
    shot until s_max or its first sample with x >= x_stop; axis-regular
    starts cross x = 0 by a series step."""
    if isinstance(cfg.start, AxisRegular):
        z0 = cfg.start.z0
        ev = eval_potential(spec, z0)
        a, b = ev.d1, ev.d2
        h = cfg.step
        th1 = a / 2.0
        th3 = a * (2.0 * b - a * a) / 32.0
        x1 = h - th1**2 * h**3 / 6.0
        z1 = z0 + th1 * h**2 / 2.0 + (th3 - th1**3 / 6.0) * h**4 / 4.0
        t1 = th1 * h + th3 * h**3
        xs, zs, ts = _integrate_profile(spec, ROTATIONAL, h, (x1, z1, t1), cfg,
                                        x_stop)
        xs = np.concatenate([[0.0], xs])
        zs = np.concatenate([[z0], zs])
        ts = np.concatenate([[0.0], ts])
    elif isinstance(cfg.start, PointStart):
        if cfg.start.x0 <= 0.0:
            raise AxisCollisionError("point starts need x0 > 0; use AxisRegular")
        y0 = (cfg.start.x0, cfg.start.z0, cfg.start.theta0)
        xs, zs, ts = _integrate_profile(spec, ROTATIONAL, 0.0, y0, cfg, x_stop)
    else:
        raise TypeError("start must be AxisRegular or PointStart")
    s = cfg.step * np.arange(len(xs))
    return ProfileCurve(s=s, x=xs, z=zs, theta=ts, kind=ROTATIONAL, step=cfg.step)


def solve_rotational_profile(spec: PotentialSpec, cfg: ShootingConfig) -> SolveResult:
    """The rotational profile of rotational_curve, shot to s_max, with its
    sampled geometry and minimality residual."""
    return _profile_result(spec, rotational_curve(spec, cfg))


def solve_translation_profile(spec: PotentialSpec, cfg: ShootingConfig) -> SolveResult:
    """Integrate the translation-invariant profile (ruled second direction)."""
    if not isinstance(cfg.start, PointStart):
        raise TypeError("translation-invariant profiles need a PointStart")
    y0 = (cfg.start.x0, cfg.start.z0, cfg.start.theta0)
    xs, zs, ts = _integrate_profile(spec, TRANSLATION, 0.0, y0, cfg)
    s = cfg.step * np.arange(len(xs))
    curve = ProfileCurve(s=s, x=xs, z=zs, theta=ts, kind=TRANSLATION, step=cfg.step)
    return _profile_result(spec, curve)


# ---------------------------------------------------------------------------
# graph Newton solver


def _pde_parts(u: np.ndarray, h: float):
    """Interior first/second differences (p, q, r, s, t) of the grid
    function u, with W^2, W and the numerator g of div(grad u / W) = g / W^3."""
    p = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2 * h)
    q = (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * h)
    r = (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h**2
    s = (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h**2
    t = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * h**2)
    w2 = 1.0 + p**2 + q**2
    w = np.sqrt(w2)
    g = (1.0 + q**2) * r - 2.0 * p * q * t + (1.0 + p**2) * s
    return p, q, r, s, t, w2, w, g


def graph_pde_residual(spec: PotentialSpec, u: np.ndarray, h: float) -> np.ndarray:
    """div(grad u / W) - phi'(u)/W at interior nodes."""
    *_, w2, w, g = _pde_parts(u, h)
    d1 = eval_potential(spec, u[1:-1, 1:-1]).d1
    return g / (w2 * w) - d1 / w


def _graph_jacobian(spec: PotentialSpec, u: np.ndarray, h: float):
    """Jacobian of graph_pde_residual in u's interior, its unknowns
    numbered row-major."""
    p, q, r, s, t, w2, w, g = _pde_parts(u, h)
    w3 = w2 * w
    w5 = w2 * w3
    ev = eval_potential(spec, u[1:-1, 1:-1])
    f_r = (1.0 + q**2) / w3
    f_s = (1.0 + p**2) / w3
    f_t = -2.0 * p * q / w3
    f_p = (2.0 * p * s - 2.0 * q * t) / w3 - 3.0 * p * g / w5 + ev.d1 * p / w3
    f_q = (2.0 * q * r - 2.0 * p * t) / w3 - 3.0 * q * g / w5 + ev.d1 * q / w3
    f_u = -ev.d2 / w
    x_r, x_p = f_r / h**2, f_p / (2 * h)
    y_s, y_q = f_s / h**2, f_q / (2 * h)
    corner = f_t / (4 * h**2)
    # column m weighs the neighbour NINE_POINT[m]
    coefs = np.empty(f_u.shape + (9,))
    coefs[..., 0] = coefs[..., 8] = corner
    coefs[..., 1] = x_r - x_p
    coefs[..., 2] = coefs[..., 6] = -corner
    coefs[..., 3] = y_s - y_q
    coefs[..., 4] = -2.0 * f_r / h**2 - 2.0 * f_s / h**2 + f_u
    coefs[..., 5] = y_s + y_q
    coefs[..., 7] = x_r + x_p
    return stencil_matrix(NINE_POINT, coefs)


def _harmonic_extension(u_bc: np.ndarray) -> np.ndarray:
    """Interior = discrete harmonic extension of the boundary values."""
    nx, ny = u_bc.shape
    A = stencil_matrix(FIVE_POINT, np.broadcast_to([-1.0, -1.0, 4.0, -1.0, -1.0],
                                                   (nx - 2, ny - 2, 5)))
    # the edge neighbours' values, moved to the right-hand side
    b = u_bc.copy()
    b[1:-1, 1:-1] = 0.0
    rhs = b[2:, 1:-1] + b[:-2, 1:-1] + b[1:-1, 2:] + b[1:-1, :-2]
    sol = Hierarchy(A, []).solve(rhs.ravel(), 0.0)[0]
    u = u_bc.copy()
    u[1:-1, 1:-1] = sol.reshape(nx - 2, ny - 2)
    return u


# a grid is solved on the grid of spacing 2h first while that grid keeps at
# least this many cells on each side
_COARSEST_CELLS = 16


def _prolong_axis(c: np.ndarray, axis: int) -> np.ndarray:
    """Cubic interpolation to the midpoints along one axis: (-1, 9, 9, -1)/16
    of the four coarse neighbours, (5, 15, -5, 1)/16 of the four nearest
    nodes for the midpoint next to either end."""
    c = np.moveaxis(c, axis, 0)
    f = np.empty((2 * c.shape[0] - 1,) + c.shape[1:])
    f[::2] = c
    f[3:-3:2] = (9.0 * (c[1:-2] + c[2:-1]) - (c[:-3] + c[3:])) / 16.0
    f[1] = (5.0 * c[0] + 15.0 * c[1] - 5.0 * c[2] + c[3]) / 16.0
    f[-2] = (c[-4] - 5.0 * c[-3] + 15.0 * c[-2] + 5.0 * c[-1]) / 16.0
    return np.moveaxis(f, 0, axis)


def _nested_start(spec: PotentialSpec, u_bc: np.ndarray, h: float,
                  cfg: NewtonConfig, levels: list) -> np.ndarray:
    """Nested iteration: solve with the boundary data restricted to the grid
    of spacing 2h (itself started this way), prolong by cubic interpolation
    and restore the boundary data.  The coarsest grid, and any grid whose
    prolonged start leaves the weight domain, starts from the discrete
    harmonic extension.  One note per coarse grid is appended to levels."""
    nx, ny = u_bc.shape
    if (nx - 1) % 2 or (ny - 1) % 2 or min(nx, ny) - 1 < 2 * _COARSEST_CELLS:
        return _harmonic_extension(u_bc)
    coarse = _nested_start(spec, u_bc[::2, ::2], 2 * h, cfg, levels)
    coarse, res_norm, iters, note = _newton(spec, coarse, 2 * h, cfg)
    levels.append(f"h = {2 * h:.6g}: {iters} Newton steps to residual "
                  f"{res_norm:.3e} ({note})")
    u = _prolong_axis(_prolong_axis(coarse, 0), 1)
    u[0, :], u[-1, :] = u_bc[0, :], u_bc[-1, :]
    u[:, 0], u[:, -1] = u_bc[:, 0], u_bc[:, -1]
    if np.any(u <= spec.domain_left):
        levels.append(f"h = {h:.6g}: prolonged start left the weight domain, "
                      "harmonic start")
        return _harmonic_extension(u_bc)
    return u


# the cap eta_max of _newton's forcing term, a share of the right-hand side
_ETA_MAX = 1e-4
# a chord step is kept when it cuts the max-norm residual to at most this
# share of the last one
_CHORD_RATIO = 0.1
# a factored Newton step that fails the domain or residual test is shortened
# by this factor
_DAMPING = 0.5


def _trial(spec: PotentialSpec, u: np.ndarray, h: float, delta: np.ndarray):
    """(u + delta in the interior, its residual, its max norm); the norm is
    inf when the trial iterate leaves the weight domain."""
    u_try = u.copy()
    u_try[1:-1, 1:-1] += delta
    if not np.all(u_try > spec.domain_left):
        return u_try, None, math.inf
    res_try = graph_pde_residual(spec, u_try, h)
    return u_try, res_try, float(np.abs(res_try).max())


def _newton(spec: PotentialSpec, u: np.ndarray, h: float, cfg: NewtonConfig):
    """Newton with chord steps from the iterate u: (last iterate, its
    max-norm PDE residual, steps taken, note), where the note counts the
    LU factorisations and, on a grid solved through a V-cycle, the GMRES
    iterations.  Once a Jacobian is factored (its Hierarchy built), each
    step first solves with that factor and is kept whole when it stays in
    the weight domain and cuts the residual to at most _CHORD_RATIO of the
    last one.  Otherwise the Jacobian is rebuilt and factored at the
    current iterate, and its step is shortened by _DAMPING until it stays
    in the weight domain and lowers the residual; the iteration stops when
    that needs a step below 2^-10.

    On a grid solved through a V-cycle, the Newton or chord step from the
    k-th iterate, of residual F_k, is solved by GMRES to the relative
    residual given by the forcing term of Eisenstat and Walker (SIAM J.
    Sci. Comput. 17, 1996, choice 2, gamma = 0.9, alpha = 2), capped at
    _ETA_MAX = 1e-4 and bounded below as in Kelley (Iterative Methods for
    Linear and Nonlinear Equations, SIAM 1995, ch. 6):

        eta_k = min(1e-4, max(eta_EW, 0.5 tol_residual / |F_k|_2)),
        eta_EW = 0.9 (|F_k|_2 / |F_{k-1}|_2)^2,

    with eta_0 = 1e-4; their safeguard, 0.9 eta_{k-1}^2 when that exceeds
    0.1, cannot bind under the cap, as 0.9 (1e-4)^2 < 0.1.  At the floor
    the linear residual is 0.5 tol_residual in the 2-norm that GMRES
    measures, so at most that in the max norm of the stop test, and the
    last step solves no further than that test needs.  A rejected chord step and the Newton step that
    replaces it share eta_k.  A grid that is LU-factored ignores eta_k."""
    nx, ny = u.shape
    grid_transfers = transfers(nx - 1, ny - 1)
    gmres_iters = 0

    def step(hierarchy, res, eta):
        nonlocal gmres_iters
        delta, n = hierarchy.solve(-res.ravel(), eta)
        gmres_iters += n
        return delta.reshape(nx - 2, ny - 2)

    res = graph_pde_residual(spec, u, h)
    res_norm = float(np.abs(res).max())
    # with |F_{-1}| = |F_0|, eta_0 comes out as _ETA_MAX
    last_norm2 = float(np.linalg.norm(res))
    iters = lus = 0
    hierarchy = None
    while res_norm > cfg.tol_residual and iters < cfg.max_iters:
        norm2 = float(np.linalg.norm(res))
        eta = min(_ETA_MAX, max(0.9 * (norm2 / last_norm2) ** 2,
                                0.5 * cfg.tol_residual / norm2))
        last_norm2 = norm2
        if hierarchy is not None:
            u_try, res_try, try_norm = _trial(spec, u, h, step(hierarchy, res, eta))
            if try_norm <= _CHORD_RATIO * res_norm:
                u, res, res_norm = u_try, res_try, try_norm
                iters += 1
                continue
        hierarchy = None  # release the old factor before the new one is made
        hierarchy = Hierarchy(_graph_jacobian(spec, u, h), grid_transfers)
        lus += 1
        delta = step(hierarchy, res, eta)
        step_len = 1.0
        while step_len >= 2.0**-10:
            u_try, res_try, try_norm = _trial(spec, u, h, step_len * delta)
            if try_norm < res_norm:
                break
            step_len *= _DAMPING
        else:
            break  # stalled
        u, res, res_norm = u_try, res_try, try_norm
        iters += 1
    note = f"{lus} LU"
    if grid_transfers:
        note += f", {gmres_iters} GMRES iterations"
    return u, res_norm, iters, note


def solve_graph(spec: PotentialSpec, domain, h: float, boundary,
                cfg: NewtonConfig) -> SolveResult:
    """Newton with chord steps for the weighted-minimal graph with
    Dirichlet data.

    ``boundary`` is a callable (x, y) -> height, evaluated once on the
    edge nodes.  Newton starts from the nested-iteration grid of
    _nested_start.  Convergence means max-norm PDE residual <=
    cfg.tol_residual; on failure the last iterate is returned with
    converged = False.  ``iterations`` counts the Newton steps, chord
    steps included, on this grid; ``diagnostics`` gives them with the
    number of LU factorisations, on this grid and on each coarser one.
    """
    domain = tuple(float(v) for v in domain)
    patch = GraphPatch(domain=domain, h=h, u=np.zeros(grid_shape(domain, h)))
    X, Y = patch.grid()

    u = patch.u
    mask_edge = np.zeros(u.shape, dtype=bool)
    mask_edge[0, :] = mask_edge[-1, :] = True
    mask_edge[:, 0] = mask_edge[:, -1] = True
    u[mask_edge] = np.asarray(boundary(X[mask_edge], Y[mask_edge]), dtype=float)
    if np.any(u[mask_edge] <= spec.domain_left):
        raise DomainExitError("boundary heights leave the weight domain")
    levels = []
    u = _nested_start(spec, u, h, cfg, levels)
    if np.any(u <= spec.domain_left):
        raise DomainExitError("initial iterate leaves the weight domain")

    u, res_norm, iters, note = _newton(spec, u, h, cfg)
    diagnostics = (f"PDE max-norm residual {res_norm:.3e} after {iters} Newton "
                   f"steps ({note})")
    if levels:
        diagnostics += "; nested start: " + "; ".join(levels)
    return SolveResult(
        surface=GraphPatch(domain=domain, h=h, u=u),
        residual=res_norm,
        iterations=iters,
        converged=res_norm <= cfg.tol_residual,
        diagnostics=diagnostics,
    )
