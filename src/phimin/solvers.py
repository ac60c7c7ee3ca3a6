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
including the -phi''(u)/W zeroth-order term.  Each Jacobian is LU-factored
once and its factor reused for chord steps (Shamanskii's method; Kelley,
Solving Nonlinear Equations with Newton's Method, SIAM 2003): a back-solve
whose step cuts the max-norm residual to at most _CHORD_RATIO = 0.1 of the
last one is kept, otherwise the Jacobian is rebuilt and factored at the
current iterate and its step damped.  The unknowns are numbered in a
nested-dissection order of the grid (George, SIAM J. Numer. Anal. 10,
1973), so the LU keeps that order (NATURAL column ordering).  The default
start is nested iteration (Briggs, Henson and McCormick, A Multigrid
Tutorial, ch. 3): the grid of spacing 2h is solved first and its solution
interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .potential import PotentialSpec, eval_potential
from .surface_geometry import (GraphPatch, ProfileCurve, ROTATIONAL,
                               TRANSLATION, sample_geometry,
                               phi_minimal_residual)


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
    initial_guess: object = "harmonic"

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


def _integrate_profile(spec: PotentialSpec, kind: str, s0: float, y0, cfg):
    """RK4 on (x, z, theta) from arclength s0 with domain monitoring."""
    d1 = spec.rules.d1_scalar(spec)
    floor = spec.domain_left
    rotational = kind == ROTATIONAL

    def rhs(x, z, theta):
        ct = math.cos(theta)
        st = math.sin(theta)
        dtheta = d1(z) * ct
        if rotational:
            dtheta -= st / x
        return ct, st, dtheta

    h = cfg.step
    n_steps = int(round((cfg.s_max - s0) / h))
    xs = np.empty(n_steps + 1)
    zs = np.empty(n_steps + 1)
    ts = np.empty(n_steps + 1)
    x, z, t = y0
    xs[0], zs[0], ts[0] = x, z, t
    for k in range(n_steps):
        k1 = rhs(x, z, t)
        k2 = rhs(x + 0.5 * h * k1[0], z + 0.5 * h * k1[1], t + 0.5 * h * k1[2])
        k3 = rhs(x + 0.5 * h * k2[0], z + 0.5 * h * k2[1], t + 0.5 * h * k2[2])
        k4 = rhs(x + h * k3[0], z + h * k3[1], t + h * k3[2])
        x += (h / 6.0) * (k1[0] + 2 * k2[0] + 2 * k3[0] + k4[0])
        z += (h / 6.0) * (k1[1] + 2 * k2[1] + 2 * k3[1] + k4[1])
        t += (h / 6.0) * (k1[2] + 2 * k2[2] + 2 * k3[2] + k4[2])
        if z <= floor:
            raise DomainExitError(
                f"height {z:.6g} reached the domain boundary at step {k + 1}")
        if rotational and x < 1e-9:
            if abs(math.sin(t)) > 1e-6:
                raise AxisCollisionError(
                    f"profile hit the axis with theta = {t:.6g}")
            break
        xs[k + 1], zs[k + 1], ts[k + 1] = x, z, t
    else:
        return xs, zs, ts
    return xs[:k + 1], zs[:k + 1], ts[:k + 1]


def _profile_result(spec, curve: ProfileCurve) -> SolveResult:
    report = phi_minimal_residual(sample_geometry(curve, spec), spec)
    c_factor = report.max_abs_residual / curve.step**2
    return SolveResult(
        surface=curve,
        residual=report.max_abs_residual,
        iterations=len(curve) - 1,
        converged=True,
        diagnostics=f"minimality residual <= C step^2 with C = {c_factor:.3g}",
    )


def solve_rotational_profile(spec: PotentialSpec, cfg: ShootingConfig) -> SolveResult:
    """Integrate the rotationally symmetric profile of a weighted-minimal
    surface; axis-regular starts cross x = 0 by a series step."""
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
        xs, zs, ts = _integrate_profile(spec, ROTATIONAL, h, (x1, z1, t1), cfg)
        xs = np.concatenate([[0.0], xs])
        zs = np.concatenate([[z0], zs])
        ts = np.concatenate([[0.0], ts])
    elif isinstance(cfg.start, PointStart):
        if cfg.start.x0 <= 0.0:
            raise AxisCollisionError("point starts need x0 > 0; use AxisRegular")
        y0 = (cfg.start.x0, cfg.start.z0, cfg.start.theta0)
        xs, zs, ts = _integrate_profile(spec, ROTATIONAL, 0.0, y0, cfg)
    else:
        raise TypeError("start must be AxisRegular or PointStart")
    s = cfg.step * np.arange(len(xs))
    curve = ProfileCurve(s=s, x=xs, z=zs, theta=ts, kind=ROTATIONAL, step=cfg.step)
    return _profile_result(spec, curve)


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
    """Interior first/second differences of the grid function u."""
    p = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2 * h)
    q = (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * h)
    r = (u[2:, 1:-1] - 2 * u[1:-1, 1:-1] + u[:-2, 1:-1]) / h**2
    s = (u[1:-1, 2:] - 2 * u[1:-1, 1:-1] + u[1:-1, :-2]) / h**2
    t = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * h**2)
    return p, q, r, s, t


def graph_pde_residual(spec: PotentialSpec, u: np.ndarray, h: float) -> np.ndarray:
    """div(grad u / W) - phi'(u)/W at interior nodes."""
    p, q, r, s, t = _pde_parts(u, h)
    w2 = 1.0 + p**2 + q**2
    w = np.sqrt(w2)
    g = (1.0 + q**2) * r - 2.0 * p * q * t + (1.0 + p**2) * s
    d1 = eval_potential(spec, u[1:-1, 1:-1]).d1
    return g / (w2 * w) - d1 / w


def _interior_maps(nx: int, ny: int):
    """(ii, jj, col_of) of an nx x ny grid: the interior node indices and
    the unknown number of every flat node index, -1 on the edge."""
    ii, jj = np.meshgrid(np.arange(1, nx - 1), np.arange(1, ny - 1), indexing="ij")
    col_of = -np.ones(nx * ny, dtype=np.int64)
    col_of[(ii * ny + jj).ravel()] = np.arange(ii.size)
    return ii, jj, col_of


# blocks with at most this many nodes on each side are not dissected further
_DISSECTION_LEAF = 4


def _dissection_order(m: int, n: int) -> np.ndarray:
    """Nested-dissection order of an m x n grid: the flat node indices
    i * n + j in elimination order.  A block is bisected along its longer
    side by one grid line, which follows both halves; blocks with at most
    _DISSECTION_LEAF nodes on each side keep their row-major order."""
    parts = []

    def visit(block):
        rows, cols = block.shape
        if rows <= _DISSECTION_LEAF and cols <= _DISSECTION_LEAF:
            parts.append(block.ravel())
        elif rows >= cols:
            visit(block[:rows // 2])
            visit(block[rows // 2 + 1:])
            parts.append(block[rows // 2])
        else:
            visit(block[:, :cols // 2])
            visit(block[:, cols // 2 + 1:])
            parts.append(block[:, cols // 2])

    visit(np.arange(m * n).reshape(m, n))
    return np.concatenate(parts)


def _graph_jacobian(spec: PotentialSpec, u: np.ndarray, h: float,
                    order: np.ndarray) -> sp.csc_matrix:
    """Jacobian of graph_pde_residual in u's interior, with the interior
    node order[k] (a row-major index) as unknown k."""
    nx, ny = u.shape
    p, q, r, s, t = _pde_parts(u, h)
    w2 = 1.0 + p**2 + q**2
    w = np.sqrt(w2)
    w3 = w2 * w
    w5 = w2 * w3
    g = (1.0 + q**2) * r - 2.0 * p * q * t + (1.0 + p**2) * s
    ev = eval_potential(spec, u[1:-1, 1:-1])
    f_r = (1.0 + q**2) / w3
    f_s = (1.0 + p**2) / w3
    f_t = -2.0 * p * q / w3
    f_p = (2.0 * p * s - 2.0 * q * t) / w3 - 3.0 * p * g / w5 + ev.d1 * p / w3
    f_q = (2.0 * q * r - 2.0 * p * t) / w3 - 3.0 * q * g / w5 + ev.d1 * q / w3
    f_u = -ev.d2 / w

    ii, jj, col_of = _interior_maps(nx, ny)
    number = np.empty(order.size, dtype=np.int64)
    number[order] = np.arange(order.size)
    col_of[(ii * ny + jj).ravel()] = number
    stencil = [
        (1, 0, f_r / h**2 + f_p / (2 * h)),
        (-1, 0, f_r / h**2 - f_p / (2 * h)),
        (0, 1, f_s / h**2 + f_q / (2 * h)),
        (0, -1, f_s / h**2 - f_q / (2 * h)),
        (1, 1, f_t / (4 * h**2)),
        (-1, -1, f_t / (4 * h**2)),
        (1, -1, -f_t / (4 * h**2)),
        (-1, 1, -f_t / (4 * h**2)),
        (0, 0, -2.0 * f_r / h**2 - 2.0 * f_s / h**2 + f_u),
    ]
    rows, cols, vals = [], [], []
    for di, dj, coef in stencil:
        nbr = col_of[((ii + di) * ny + (jj + dj)).ravel()]
        keep = nbr >= 0
        rows.append(number[keep])
        cols.append(nbr[keep])
        vals.append(coef.ravel()[keep])
    J = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(ii.size, ii.size))
    return J.tocsc()


def _harmonic_extension(u_bc: np.ndarray) -> np.ndarray:
    """Interior = discrete harmonic extension of the boundary values."""
    nx, ny = u_bc.shape
    ii, jj, col_of = _interior_maps(nx, ny)
    rows, cols, vals = [], [], []
    rhs = np.zeros(ii.size)
    u_flat = u_bc.ravel()
    for di, dj, coef in ((0, 0, 4.0), (1, 0, -1.0), (-1, 0, -1.0),
                         (0, 1, -1.0), (0, -1, -1.0)):
        nbr = ((ii + di) * ny + (jj + dj)).ravel()
        col = col_of[nbr]
        inside = col >= 0
        rows.append(np.flatnonzero(inside))
        cols.append(col[inside])
        vals.append(np.full(rows[-1].size, coef))
        rhs[~inside] -= coef * u_flat[nbr[~inside]]
    A = sp.coo_matrix((np.concatenate(vals),
                       (np.concatenate(rows), np.concatenate(cols))),
                      shape=(ii.size, ii.size)).tocsc()
    sol = spla.spsolve(A, rhs, permc_spec="MMD_AT_PLUS_A")
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
    coarse, res_norm, iters, lus = _newton(spec, coarse, 2 * h, cfg)
    levels.append(f"h = {2 * h:.6g}: {iters} Newton steps to residual "
                  f"{res_norm:.3e} ({lus} LU)")
    u = _prolong_axis(_prolong_axis(coarse, 0), 1)
    u[0, :], u[-1, :] = u_bc[0, :], u_bc[-1, :]
    u[:, 0], u[:, -1] = u_bc[:, 0], u_bc[:, -1]
    if np.any(u <= spec.domain_left):
        levels.append(f"h = {h:.6g}: prolonged start left the weight domain, "
                      "harmonic start")
        return _harmonic_extension(u_bc)
    return u


def _initial_grid(spec: PotentialSpec, cfg: NewtonConfig, X, Y, u_bc,
                  h: float, levels: list):
    guess = cfg.initial_guess
    if isinstance(guess, list):  # the JSON form of the tuple guesses
        guess = tuple(guess)
    u = u_bc.copy()
    if isinstance(guess, str) and guess == "harmonic":
        return _nested_start(spec, u_bc, h, cfg, levels)
    if isinstance(guess, str) and guess == "zero":
        u[1:-1, 1:-1] = 0.0
        return u
    if isinstance(guess, tuple) and guess[0] == "paraboloid":
        a = float(guess[1])
        u[1:-1, 1:-1] = a * (X[1:-1, 1:-1] ** 2 + Y[1:-1, 1:-1] ** 2)
        return u
    if isinstance(guess, tuple) and guess[0] == "supplied":
        grid = np.asarray(guess[1], dtype=float)
        if grid.shape != u.shape:
            raise ValueError("supplied initial guess has the wrong shape")
        u[1:-1, 1:-1] = grid[1:-1, 1:-1]
        return u
    raise ValueError(f"unknown initial guess {guess!r}")


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
    max-norm PDE residual, steps taken, LU factorisations).  Once a
    Jacobian is factored, each step first back-solves with that factor and
    is kept whole when it stays in the weight domain and cuts the residual
    to at most _CHORD_RATIO of the last one.  Otherwise the Jacobian is
    rebuilt and factored at the current iterate, and its step is shortened
    by _DAMPING until it stays in the weight domain and lowers the
    residual; the iteration stops when that needs a step below 2^-10."""
    nx, ny = u.shape
    order = _dissection_order(nx - 2, ny - 2)

    def back_solve(lu, res):
        delta = np.empty(order.size)
        delta[order] = lu.solve(-res.ravel()[order])
        return delta.reshape(nx - 2, ny - 2)

    res = graph_pde_residual(spec, u, h)
    res_norm = float(np.abs(res).max())
    iters = lus = 0
    lu = None
    while res_norm > cfg.tol_residual and iters < cfg.max_iters:
        if lu is not None:
            u_try, res_try, try_norm = _trial(spec, u, h, back_solve(lu, res))
            if try_norm <= _CHORD_RATIO * res_norm:
                u, res, res_norm = u_try, res_try, try_norm
                iters += 1
                continue
        lu = spla.splu(_graph_jacobian(spec, u, h, order), permc_spec="NATURAL")
        lus += 1
        delta = back_solve(lu, res)
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
    return u, res_norm, iters, lus


def solve_graph(spec: PotentialSpec, domain, h: float, boundary,
                cfg: NewtonConfig) -> SolveResult:
    """Newton with chord steps for the weighted-minimal graph with
    Dirichlet data.

    ``boundary`` is a callable (x, y) -> height, evaluated once on the
    edge nodes.  The "harmonic" initial guess is a nested-iteration start
    (see _nested_start).  Convergence means max-norm PDE residual <=
    cfg.tol_residual; on failure the last iterate is returned with
    converged = False.  ``iterations`` counts the Newton steps, chord
    steps included, on this grid; ``diagnostics`` gives them with the
    number of LU factorisations, on this grid and on each coarser one.
    """
    a, b, c, d = (float(v) for v in domain)
    nx = int(round((b - a) / h)) + 1
    ny = int(round((d - c) / h)) + 1
    if not (math.isclose(a + (nx - 1) * h, b, rel_tol=0, abs_tol=1e-9 * max(1, abs(b)))
            and math.isclose(c + (ny - 1) * h, d, rel_tol=0, abs_tol=1e-9 * max(1, abs(d)))):
        raise ValueError("h must divide both domain sides")
    xs = a + h * np.arange(nx)
    ys = c + h * np.arange(ny)
    X, Y = np.meshgrid(xs, ys, indexing="ij")

    u = np.zeros((nx, ny))
    mask_edge = np.zeros((nx, ny), dtype=bool)
    mask_edge[0, :] = mask_edge[-1, :] = True
    mask_edge[:, 0] = mask_edge[:, -1] = True
    u[mask_edge] = np.asarray(boundary(X[mask_edge], Y[mask_edge]), dtype=float)
    if np.any(u[mask_edge] <= spec.domain_left):
        raise DomainExitError("boundary heights leave the weight domain")
    levels = []
    u = _initial_grid(spec, cfg, X, Y, u, h, levels)
    if np.any(u <= spec.domain_left):
        raise DomainExitError("initial iterate leaves the weight domain")

    u, res_norm, iters, lus = _newton(spec, u, h, cfg)
    diagnostics = (f"PDE max-norm residual {res_norm:.3e} after {iters} Newton "
                   f"steps ({lus} LU)")
    if levels:
        diagnostics += "; nested start: " + "; ".join(levels)
    return SolveResult(
        surface=GraphPatch(domain=(a, b, c, d), h=h, u=u),
        residual=res_norm,
        iterations=iters,
        converged=res_norm <= cfg.tol_residual,
        diagnostics=diagnostics,
    )
