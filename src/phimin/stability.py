"""Weighted stability machinery: quadratic form, operator, first eigenvalue.

The second variation of weighted area defines the quadratic form

    Q(u, u) = int e^phi ( |grad u|^2 - (|S|^2 - phi'' eta^2) u^2 ) dA

and the associated operator L u = Lap^phi u + (|S|^2 - phi'' eta^2) u,
where Lap^phi is the drift Laplacian of the weight e^phi.  We fix the
convention lambda1 = smallest eigenvalue of -L on a Dirichlet region,
so stability of a surface means lambda1 >= 0 on every compact region.

Discretisation: on graph patches a bilinear finite-element stiffness
with cell-centred coefficients (exact element integration, no reduced
quadrature) on a region that is a full rectangular block of the grid,
written as a 9-point stencil by solvers._stencil_matrix; on rotational
profiles the one-dimensional radial problem with 2 pi x e^phi weight; on
translation-invariant profiles the exact separated reduction, adding
(pi / ruling_width)^2 for the lowest ruling mode.  The generalized
eigenproblem is solved by inverse iteration with a shift below the
spectrum, moved up toward lambda1 every 8 iterations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# eval_potential is unused here, but bench/tracing.py wraps it in every layer module
from .potential import PotentialSpec, eval_potential
from .solvers import _NINE_POINT, _stencil_matrix
from .surface_geometry import (AXIS_TOL, GeometryField, ProfileCurve,
                               ResidualReport, ROTATIONAL, drift_laplacian,
                               _cell_average, _make_report)


class SupportError(ValueError):
    """Test function not supported inside the declared region."""


class EigenConvergenceError(RuntimeError):
    """Inverse iteration failed to reach the residual tolerance."""


class RulingWidthError(ValueError):
    """A translation region too short to set the ruling width."""


@dataclass
class StabilityAssembly:
    """Discrete matrices of the stability form on a Dirichlet region.

    stiffness is the weighted Dirichlet form, potential_term and mass are
    diagonal (lumped); all are restricted to ``region`` sample indices.
    """

    stiffness: sp.csr_matrix
    potential_term: np.ndarray
    mass: np.ndarray
    region: np.ndarray
    extra_mode: float = 0.0  # additive lowest transverse eigenvalue (ruled case)

    def bilinear(self, u: np.ndarray, v: np.ndarray) -> float:
        """Q(u, v) through the assembly, for region-restricted vectors.

        Evaluated in a form symmetric under argument swap at machine level.
        """
        stiff = 0.5 * (u @ (self.stiffness @ v) + v @ (self.stiffness @ u))
        diag = (u * v) @ (self.extra_mode * self.mass - self.potential_term)
        return float(stiff + diag)

    def rayleigh(self, u: np.ndarray) -> float:
        return self.bilinear(u, u) / float(u @ (self.mass * u))


def _operator_potential(field: GeometryField, spec: PotentialSpec) -> np.ndarray:
    return field.norm_s2() - field.potential(spec).d2 * field.eta**2


def _region(field: GeometryField, region) -> np.ndarray:
    """Region's distinct sample indices, sorted; ValueError if none or out of range."""
    region = np.asarray(sorted(set(int(i) for i in region)), dtype=np.int64)
    if region.size == 0:
        raise ValueError("region is empty")
    if region[0] < 0 or region[-1] >= field.n_samples:
        raise ValueError("region indices out of range")
    return region


def build_assembly(field: GeometryField, spec: PotentialSpec, region,
                   ruling_width: float | None = None) -> StabilityAssembly:
    """Assemble stiffness/potential/mass on the given sample-index region."""
    region = _region(field, region)
    pot = _operator_potential(field, spec)
    e_phi = np.exp(field.potential(spec).phi)
    if field.is_profile:
        return _assemble_profile(field, region, pot, e_phi, ruling_width)
    return _assemble_graph(field, region, pot, e_phi)


def _assemble_profile(field, region, pot, e_phi, ruling_width):
    curve: ProfileCurve = field.source
    if np.any(np.diff(region) != 1):
        raise ValueError("profile regions must be contiguous sample ranges")
    h = curve.step
    if curve.kind == ROTATIONAL:
        radial = 2.0 * np.pi * curve.x
        extra = 0.0
    else:
        radial = np.ones(len(curve))
        if ruling_width is None and region.size < 2:
            raise RulingWidthError(
                "a one-node translation region has no length to set the ruling "
                "width h * (nodes - 1); it needs at least 2 nodes")
        width = ruling_width if ruling_width is not None else h * (region.size - 1)
        extra = (np.pi / width) ** 2
    w_node = e_phi * radial
    n = region.size
    # w_int[k] weighs the interval between the region's nodes k - 1 and k,
    # for k = 0..n; an interval past either end of the curve weighs 0
    w_int = np.pad(0.5 * (w_node[:-1] + w_node[1:]), 1)[region[0]:region[0] + n + 1]
    stiff = w_int / h
    half_mass = 0.5 * w_int * h
    # each node's mass is its left interval's share plus its right one's
    mass = half_mass[:-1] + half_mass[1:]
    K = sp.diags([stiff[:-1] + stiff[1:], -stiff[1:-1], -stiff[1:-1]], [0, -1, 1],
                 shape=(n, n), format="csr")
    v_diag = pot[region] * mass
    return StabilityAssembly(stiffness=K, potential_term=v_diag, mass=mass,
                             region=region, extra_mode=extra)


def _cell_coefficients(field, e_phi):
    """Cell-centred coefficient e^phi W and inverse metric gixx, giyy, gixy
    of a graph field."""
    nx, ny = field.source.nx, field.source.ny
    g = field.partials
    nodal = [e_phi * g.W.ravel(), g.gixx, g.giyy, g.gixy]
    return [_cell_average(F, nx, ny) for F in nodal]


def _assemble_graph(field, region, pot, e_phi):
    patch = field.source
    nx, ny, h = patch.nx, patch.ny, patch.h
    i, j = np.divmod(region, ny)
    i0, i1, j0, j1 = i.min(), i.max() + 1, j.min(), j.max() + 1
    if region.size != (i1 - i0) * (j1 - j0):
        raise ValueError("graph regions must be full rectangular blocks of the grid")
    coef, gixx, giyy, gixy = _cell_coefficients(field, e_phi)

    # exact bilinear element stiffness via 2x2 Gauss points; a cell's corner
    # (a, b) is local node a + 2 b; a ring of empty cells borders the grid
    A = np.stack([coef * gixx, coef * gixy, coef * gixy, coef * giyy],
                 axis=-1).reshape(-1, 2, 2)
    Ke = np.zeros((nx + 1, ny + 1, 4, 4))
    gp = 1.0 / np.sqrt(3.0)
    for xi, et in [(-gp, -gp), (gp, -gp), (-gp, gp), (gp, gp)]:
        B = np.array([[-(1 - et), (1 - et), -(1 + et), (1 + et)],
                      [-(1 - xi), -(1 + xi), (1 - xi), (1 + xi)]]) / 4.0 * (2.0 / h)
        AB = np.einsum("cab,bj->caj", A, B)
        Ke[1:-1, 1:-1] += (np.einsum("ai,caj->cij", B, AB)
                           * (h**2 / 4.0)).reshape(nx - 1, ny - 1, 4, 4)

    # a node's cells (-1, -1), (-1, 0), (0, -1), (0, 0) away are summed in
    # this ascending cell order, which fixes the rounding of each entry
    coefs = np.zeros((i1 - i0, j1 - j0, 9))
    for ci, cj in ((-1, -1), (-1, 0), (0, -1), (0, 0)):
        cell = Ke[i0 + ci + 1:i1 + ci + 1, j0 + cj + 1:j1 + cj + 1]
        for m, (di, dj) in enumerate(_NINE_POINT):
            if 0 <= di - ci <= 1 and 0 <= dj - cj <= 1:
                coefs[..., m] += cell[..., -ci - 2 * cj, di - ci + 2 * (dj - cj)]

    # each cell's mass share goes to its corners 00, 10, 01, 11 in turn
    share = coef * h**2 / 4.0
    mass = np.zeros((nx, ny))
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        mass[di:nx - 1 + di, dj:ny - 1 + dj] += share
    mass = mass[i0:i1, j0:j1].ravel()
    return StabilityAssembly(stiffness=_stencil_matrix(_NINE_POINT, coefs),
                             potential_term=pot[region] * mass, mass=mass,
                             region=region)


@dataclass
class SpectrumResult:
    """Smallest eigenvalue of -L on the region with its eigenfunction and
    the assembly it was solved on."""

    lambda1: float
    eigenfunction: np.ndarray
    iterations: int
    residual: float
    assembly: StabilityAssembly


def quadratic_form(field: GeometryField, spec: PotentialSpec, u: np.ndarray,
                   region, v: np.ndarray | None = None) -> float:
    """Direct quadrature of the stability form for functions supported in
    region (midpoint rule on graph cells, trapezoid with 2 pi x weight on
    rotational profiles)."""
    u = np.asarray(u, dtype=float)
    if v is None:
        v = u
    v = np.asarray(v, dtype=float)
    if u.shape != (field.n_samples,) or v.shape != (field.n_samples,):
        raise ValueError("test functions must be sampled on every point")
    region = _region(field, region)
    outside = np.ones(field.n_samples, dtype=bool)
    outside[region] = False
    if np.any(u[outside] != 0.0) or np.any(v[outside] != 0.0):
        raise SupportError("test function not supported in the region")
    pot = _operator_potential(field, spec)
    e_phi = np.exp(field.potential(spec).phi)
    if field.is_profile:
        curve: ProfileCurve = field.source
        radial = (2.0 * np.pi * curve.x if curve.kind == ROTATIONAL
                  else np.ones(len(curve)))
        du = np.gradient(u, curve.step, edge_order=2)
        dv = np.gradient(v, curve.step, edge_order=2)
        integrand = e_phi * radial * (du * dv - pot * u * v)
        return float(np.trapezoid(integrand, dx=curve.step))
    patch = field.source
    nx, ny, h = patch.nx, patch.ny, patch.h

    def cgrad(F):
        G = F.reshape(nx, ny)
        gx = ((G[1:, :-1] + G[1:, 1:]) - (G[:-1, :-1] + G[:-1, 1:])) / (2 * h)
        gy = ((G[:-1, 1:] + G[1:, 1:]) - (G[:-1, :-1] + G[1:, :-1])) / (2 * h)
        return gx, gy

    coef, gixx, giyy, gixy = _cell_coefficients(field, e_phi)
    ux_, uy_ = cgrad(u)
    vx_, vy_ = cgrad(v)
    inner = gixx * ux_ * vx_ + giyy * uy_ * vy_ + gixy * (ux_ * vy_ + uy_ * vx_)
    cells = coef * (inner - _cell_average(pot, nx, ny) * _cell_average(u, nx, ny)
                    * _cell_average(v, nx, ny)) * h**2
    return float(cells.sum())


def first_eigenvalue(field: GeometryField, spec: PotentialSpec, region,
                     tol: float = 1e-10,
                     ruling_width: float | None = None) -> SpectrumResult:
    """Smallest eigenvalue of -L on the region, Dirichlet outside.

    Solves (stiffness - potential) u = lambda mass u by inverse iteration
    shifted below the spectrum, at most 500 iterations; the eigen-residual
    is measured in the mass norm and the eigenfunction is mass-normalised
    with positive mean.
    """
    asm = build_assembly(field, spec, region, ruling_width=ruling_width)
    K, V, M = asm.stiffness, asm.potential_term, asm.mass
    pot_sup = float(np.max(np.abs(V / M))) if V.size else 0.0
    sigma = -pot_sup - 1.0 - asm.extra_mode
    n = M.size

    def factor(shift):
        A_shift = (K - sp.diags(V) + sp.diags((asm.extra_mode - shift) * M)).tocsc()
        # symmetric matrix: a symmetric-pattern fill-reducing ordering fits
        return spla.splu(A_shift, permc_spec="MMD_AT_PLUS_A")

    lu = factor(sigma)
    abs_K = K.copy()
    abs_K.data = np.abs(abs_K.data)
    x = np.ones(n)
    x /= np.sqrt(x @ (M * x))
    lam = asm.rayleigh(x)
    res_norm = np.inf
    iters = 0
    while iters < 500:
        y = lu.solve(M * x)
        y /= np.sqrt(y @ (M * y))
        lam = asm.rayleigh(y)
        r = (asm.stiffness @ y) - V * y + asm.extra_mode * M * y - lam * (M * y)
        res_norm = float(np.sqrt(r @ (r / M)))
        # rounding floor of the residual evaluation itself
        round_scale = np.finfo(float).eps * (abs_K @ np.abs(y)
                                             + np.abs(V * y) + np.abs(lam) * M * np.abs(y))
        floor = float(np.sqrt(round_scale @ (round_scale / M)))
        x = y
        iters += 1
        if res_norm <= max(tol * max(1.0, abs(lam)), 8.0 * floor):
            break
        # refresh the shift toward the current estimate once the safe
        # extremal phase has located it; keeps a margin below lambda1
        if iters % 8 == 0:
            sigma = lam - max(10.0 * res_norm, 1e-8 * (1.0 + abs(lam)))
            lu = None  # release the old factor before the new one is made
            lu = factor(sigma)
    else:
        raise EigenConvergenceError(
            f"eigen-residual {res_norm:.3e} after {iters} iterations")
    if x.sum() < 0:
        x = -x
    full = np.zeros(field.n_samples)
    full[asm.region] = x
    return SpectrumResult(lambda1=float(lam), eigenfunction=full,
                          iterations=iters, residual=res_norm, assembly=asm)


def jacobi_residual(field: GeometryField, spec: PotentialSpec, direction,
                    margin: int = 2) -> ResidualReport:
    """Residual of L nu = 0 for nu = <V, N> with a horizontal Killing V,
    or of the log-angle identity when direction == "log_eta":

        Lap^phi(log eta) = -|grad eta|^2/eta^2 - |S|^2 - phi'' |grad mu|^2.
    """
    mask = field.interior_mask(margin)
    ev = field.potential(spec)
    phi_mu = ev.phi
    pot = _operator_potential(field, spec)

    if isinstance(direction, str):
        if direction != "log_eta":
            raise ValueError(f"unknown certificate {direction!r}")
        if np.any(field.eta[mask] <= 0.0):
            raise ValueError("log-angle certificate needs eta > 0")
        w = np.log(np.maximum(field.eta, 1e-300))
        lhs = drift_laplacian(field, w, phi_mu)
        grad_eta_sq = field.surface_inner(field.eta, field.eta)
        gm2 = (field.grad_mu**2).sum(axis=1)
        res = lhs + grad_eta_sq / field.eta**2 + field.norm_s2() + ev.d2 * gm2
        return _make_report("log_angle_certificate", res, mask, field.grid_h, margin)

    V = np.asarray(direction, dtype=float)
    if V.shape != (3,) or abs(np.linalg.norm(V) - 1.0) > 1e-9 or abs(V[2]) > 1e-12:
        raise ValueError("direction must be a horizontal unit 3-vector")
    nu = field.normal @ V
    if np.any(nu[mask] <= 0.0):
        raise ValueError("<V, N> changes sign: not a graph in direction V")
    if field.is_profile and field.source.kind == ROTATIONAL:
        # nu(s, v) = -sin(theta)(Vx cos v + Vy sin v); on the meridian plane
        # the azimuthal second derivative contributes -nu / x^2
        curve = field.source
        lap = field.laplacian(nu)
        off = curve.x > AXIS_TOL
        lap[off] -= nu[off] / curve.x[off] ** 2
        res = lap + field.surface_inner(phi_mu, nu) + pot * nu
    else:
        res = drift_laplacian(field, nu, phi_mu) + pot * nu
    return _make_report("killing_jacobi_field", res, mask, field.grid_h, margin)
