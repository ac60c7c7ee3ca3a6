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
including the -phi''(u)/W zeroth-order term.  That Jacobian, the
5-point Laplacian of the harmonic start, the Dijkstra lattice of the
geodesic audits and the graph stiffness of the stability form (on its
region's block of the grid) come from one interior-stencil assembly
(_stencil_matrix), which writes the compressed-row (CSR) arrays
straight from the grid, with no COO stage; only a matrix that is
LU-factored is converted, to CSC.  Each Jacobian is factored once and
its factor is reused for chord steps (Shamanskii's method; Kelley,
Solving Nonlinear Equations with Newton's Method, SIAM 2003): a step
whose max-norm residual is at most _CHORD_RATIO = 0.1 of the last one is
kept, otherwise the Jacobian is rebuilt and factored at the current
iterate and its step damped.

A grid with at most _DIRECT_CELLS = 64 cells on each side is LU-factored,
its unknowns numbered in a nested-dissection order of the grid (George,
SIAM J. Numer. Anal. 10, 1973) that the LU keeps (NATURAL column
ordering).  A finer grid, numbered row-major, is factored as a V-cycle
(Briggs, Henson and McCormick, A Multigrid Tutorial, 2000): bilinear
prolongation P, restriction P^T / 4, Galerkin coarse operators, two
damped-Jacobi sweeps (weight 0.7) on each side of a coarse correction,
and that LU on the first coarser grid with at most 64 cells a side.  Each
step on such a grid is GMRES (Saad, Iterative Methods for Sparse Linear
Systems, 2003) with one V-cycle as preconditioner, to residual 1e-10
relative to the right-hand side; a GMRES that misses it raises
LinearSolveError and no step is taken.  At h = 1/128 on [-1, 1]^2 a
standalone solve peaks at about 109 MiB of resident memory, against
about 127 MiB with a COO assembly and 170 MiB with an LU of the whole
grid.  Newton starts from nested iteration (Briggs, Henson and
McCormick, ch. 3): the grid of spacing 2h is solved first and its
solution interpolated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

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


def _stencil_matrix(offsets, coefs: np.ndarray, order=None) -> sp.csr_matrix:
    """The interior stencil of an nx x ny grid as a CSR matrix over the
    interior unknowns, the grid less a border as wide as the longest offset
    (b = max |di|, |dj|): coefs[i, j, m], of shape (nx - 2b, ny - 2b, k),
    weighs the neighbour (i + di, j + dj) of interior node (i, j) for the
    m-th of the k offsets (di, dj), sorted as pairs, which puts a row-major
    row's columns in order.  A neighbour on the border is left out; every
    other entry is stored, zeros included.  Unknown k is the interior node
    of row-major index order[k], or k itself when order is None."""
    mx, my, k = coefs.shape
    n = mx * my
    b = max(max(abs(di), abs(dj)) for di, dj in offsets)
    # the unknown of each node, -1 on the border
    unknown = np.full((mx + 2 * b, my + 2 * b), -1, dtype=np.int32)
    number = np.arange(n, dtype=np.int32)
    if order is not None:
        number[order] = number.copy()
    unknown[b:mx + b, b:my + b] = number.reshape(mx, my)
    cols = np.stack([unknown[b + di:mx + b + di, b + dj:my + b + dj]
                     for di, dj in offsets], axis=-1).reshape(n, k)
    coefs = coefs.reshape(n, k)
    if order is not None:
        # row r of the matrix is the interior node order[r]
        cols, coefs = cols[order], coefs[order]
    keep = cols >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1, dtype=np.int32), out=indptr[1:])
    A = sp.csr_matrix((coefs[keep], cols[keep], indptr), shape=(n, n))
    if order is not None:
        A.sort_indices()
    return A


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


# the 9-point and 5-point stencil offsets (di, dj), sorted
_NINE_POINT = [(di, dj) for di in (-1, 0, 1) for dj in (-1, 0, 1)]
_FIVE_POINT = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]


def _graph_jacobian(spec: PotentialSpec, u: np.ndarray, h: float,
                    order: np.ndarray | None = None) -> sp.csr_matrix:
    """Jacobian of graph_pde_residual in u's interior, with the interior
    node order[k] (a row-major index) as unknown k, or k itself when order
    is None."""
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
    # column m weighs the neighbour _NINE_POINT[m]
    coefs = np.empty(f_u.shape + (9,))
    coefs[..., 0] = coefs[..., 8] = corner
    coefs[..., 1] = x_r - x_p
    coefs[..., 2] = coefs[..., 6] = -corner
    coefs[..., 3] = y_s - y_q
    coefs[..., 4] = -2.0 * f_r / h**2 - 2.0 * f_s / h**2 + f_u
    coefs[..., 5] = y_s + y_q
    coefs[..., 7] = x_r + x_p
    return _stencil_matrix(_NINE_POINT, coefs, order)


def _harmonic_extension(u_bc: np.ndarray) -> np.ndarray:
    """Interior = discrete harmonic extension of the boundary values."""
    nx, ny = u_bc.shape
    A = _stencil_matrix(_FIVE_POINT, np.broadcast_to([-1.0, -1.0, 4.0, -1.0, -1.0],
                                                     (nx - 2, ny - 2, 5)))
    # the edge neighbours' values, moved to the right-hand side
    b = u_bc.copy()
    b[1:-1, 1:-1] = 0.0
    rhs = b[2:, 1:-1] + b[:-2, 1:-1] + b[1:-1, 2:] + b[1:-1, :-2]
    sol = spla.spsolve(A.tocsc(), rhs.ravel(), permc_spec="MMD_AT_PLUS_A")
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


# a grid with more than this many cells on a side is solved by GMRES with a
# V-cycle preconditioner; coarsening stops at the first grid with at most
# this many, and only that grid is LU-factored
_DIRECT_CELLS = 64
# damped-Jacobi weight and sweeps on each side of a coarse correction
_JACOBI_WEIGHT = 0.7
_SWEEPS = 2
# GMRES stops at this residual relative to the right-hand side, restarts
# every _GMRES_RESTART iterations and gives up after _GMRES_CYCLES restarts
_GMRES_RTOL = 1e-10
_GMRES_RESTART = 30
_GMRES_CYCLES = 10


class LinearSolveError(RuntimeError):
    """GMRES did not reach its tolerance on a Newton step."""


def _bilinear_1d(cells: int) -> sp.csr_matrix:
    """Linear interpolation from the interior nodes of a line of cells/2
    cells to the interior nodes of the line of cells cells."""
    k = np.arange(cells // 2 - 1)
    rows = np.concatenate([2 * k + 1, 2 * k, 2 * k + 2])
    vals = np.repeat([1.0, 0.5, 0.5], k.size)
    return sp.csr_matrix((vals, (rows, np.tile(k, 3))), shape=(cells - 1, k.size))


def _transfers(mx: int, my: int):
    """(transfers, order) of a grid of mx x my cells.  The transfers are
    (P, P^T / 4) pairs, finest first: P is bilinear prolongation on interior
    nodes from the grid of twice the spacing, and P^T / 4 the restriction.
    Halving stops at the first grid with at most _DIRECT_CELLS cells on
    each side, or an odd number on one.  The coarsest grid's unknowns are
    numbered in _dissection_order, the others row-major; order gives the
    finest grid's numbering."""
    prolongations = []
    while (max(mx, my) > _DIRECT_CELLS and mx % 2 == 0 and my % 2 == 0
           and min(mx, my) >= 4):
        prolongations.append(sp.kron(_bilinear_1d(mx), _bilinear_1d(my),
                                     format="csr"))
        mx, my = mx // 2, my // 2
    order = _dissection_order(mx - 1, my - 1)
    if not prolongations:
        return [], order
    prolongations[-1] = prolongations[-1][:, order]
    return ([(P, (P.T / 4.0).tocsr()) for P in prolongations],
            np.arange(prolongations[0].shape[0]))


class _Hierarchy:
    """The V-cycle of one Jacobian J (CSR, numbered as _transfers says):
    for each grid above the coarsest its operator, weighted inverse
    diagonal and transfers, and the LU of the coarsest operator.  Each
    coarser operator is the Galerkin product (P^T / 4) A P.  With no grid
    above the coarsest, a cycle is the LU back-solve."""

    def __init__(self, J, transfers):
        self.levels = []
        A = J
        for P, R in transfers:
            self.levels.append((A, _JACOBI_WEIGHT / A.diagonal(), P, R))
            A = R @ (A @ P)
        self.lu = spla.splu(A.tocsc(), permc_spec="NATURAL")

    def vcycle(self, b: np.ndarray) -> np.ndarray:
        """One V-cycle for J x = b from x = 0, with _SWEEPS damped-Jacobi
        sweeps before and after each coarse correction."""
        down = []
        for A, wdinv, P, R in self.levels:
            x = wdinv * b
            for _ in range(_SWEEPS - 1):
                x += wdinv * (b - A @ x)
            down.append((b, x))
            b = R @ (b - A @ x)
        x = self.lu.solve(b)
        for (A, wdinv, P, R), (b, x_fine) in zip(reversed(self.levels),
                                                 reversed(down)):
            x = x_fine + P @ x
            for _ in range(_SWEEPS):
                x += wdinv * (b - A @ x)
        return x

    def solve(self, b: np.ndarray):
        """(x, GMRES iterations) for J x = b: the LU back-solve when there is
        no grid above the coarsest, GMRES preconditioned by one V-cycle
        otherwise.  Raises LinearSolveError when GMRES misses _GMRES_RTOL."""
        if not self.levels:
            return self.lu.solve(b), 0
        # the operator is made per solve: kept on the hierarchy, it would
        # close a reference cycle that holds the grid operators until a
        # full garbage collection
        J = self.levels[0][0]
        cycle = spla.LinearOperator(J.shape, matvec=self.vcycle, dtype=float)
        iters = []
        x, info = spla.gmres(J, b, M=cycle, rtol=_GMRES_RTOL, atol=0.0,
                             restart=_GMRES_RESTART, maxiter=_GMRES_CYCLES,
                             callback=iters.append, callback_type="pr_norm")
        if info != 0:
            raise LinearSolveError(
                f"GMRES missed relative residual {_GMRES_RTOL:g} on "
                f"{J.shape[0]} unknowns (info {info}, {len(iters)} iterations)")
        return x, len(iters)


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
    iterations.  Once a Jacobian is factored (its _Hierarchy built), each
    step first solves with that factor and is kept whole when it stays in
    the weight domain and cuts the residual to at most _CHORD_RATIO of the
    last one.  Otherwise the Jacobian is rebuilt and factored at the
    current iterate, and its step is shortened by _DAMPING until it stays
    in the weight domain and lowers the residual; the iteration stops when
    that needs a step below 2^-10."""
    nx, ny = u.shape
    transfers, order = _transfers(nx - 1, ny - 1)
    gmres_iters = 0

    def step(hierarchy, res):
        nonlocal gmres_iters
        delta = np.empty(order.size)
        delta[order], n = hierarchy.solve(-res.ravel()[order])
        gmres_iters += n
        return delta.reshape(nx - 2, ny - 2)

    res = graph_pde_residual(spec, u, h)
    res_norm = float(np.abs(res).max())
    iters = lus = 0
    hierarchy = None
    while res_norm > cfg.tol_residual and iters < cfg.max_iters:
        if hierarchy is not None:
            u_try, res_try, try_norm = _trial(spec, u, h, step(hierarchy, res))
            if try_norm <= _CHORD_RATIO * res_norm:
                u, res, res_norm = u_try, res_try, try_norm
                iters += 1
                continue
        hierarchy = None  # release the old factor before the new one is made
        # a grid that heads a V-cycle is numbered row-major
        hierarchy = _Hierarchy(
            _graph_jacobian(spec, u, h, None if transfers else order), transfers)
        lus += 1
        delta = step(hierarchy, res)
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
    if transfers:
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
