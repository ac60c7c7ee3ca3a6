"""Weighted stability machinery: quadratic form, operator, first eigenvalue.

The second variation of weighted area defines the quadratic form

    Q(u, u) = int e^phi ( |grad u|^2 - (|S|^2 - phi'' eta^2) u^2 ) dA

and the associated operator L u = Lap^phi u + (|S|^2 - phi'' eta^2) u,
where Lap^phi is the drift Laplacian of the weight e^phi.  We fix the
convention lambda1 = smallest eigenvalue of -L on a Dirichlet region,
so stability of a surface means lambda1 >= 0 on every compact region.

Discretisation: on graph patches a bilinear finite-element stiffness
with cell-centred coefficients (exact element integration, no reduced
quadrature); on rotational profiles the one-dimensional radial problem
with 2 pi x e^phi weight; on translation-invariant profiles the exact
separated reduction, adding (pi / ruling_width)^2 for the lowest ruling
mode.  The generalized eigenproblem is solved by inverse iteration with
a fixed shift below the spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

# eval_potential is unused here, but bench/tracing.py wraps it in every layer module
from .potential import PotentialSpec, eval_potential
from .surface_geometry import (GeometryField, ProfileCurve, ResidualReport,
                               ROTATIONAL, TRANSLATION, drift_laplacian,
                               _make_report)


class SupportError(ValueError):
    """Test function not supported inside the declared region."""


class EigenConvergenceError(RuntimeError):
    """Inverse iteration failed to reach the residual tolerance."""


@dataclass
class StabilityAssembly:
    """Discrete matrices of the stability form on a Dirichlet region.

    stiffness is the weighted Dirichlet form, potential_term and mass are
    diagonal (lumped); all are restricted to ``region`` sample indices.
    """

    weights: np.ndarray
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


def build_assembly(field: GeometryField, spec: PotentialSpec, region,
                   ruling_width: float | None = None) -> StabilityAssembly:
    """Assemble stiffness/potential/mass on the given sample-index region."""
    region = np.asarray(sorted(set(int(i) for i in region)), dtype=np.int64)
    if region.size == 0:
        raise ValueError("region is empty")
    if region.max() >= field.n_samples or region.min() < 0:
        raise ValueError("region indices out of range")
    pot = _operator_potential(field, spec)
    e_phi = np.exp(field.potential(spec).phi)
    if field.is_profile:
        return _assemble_profile(field, spec, region, pot, e_phi, ruling_width)
    return _assemble_graph(field, spec, region, pot, e_phi)


def _assemble_profile(field, spec, region, pot, e_phi, ruling_width):
    curve: ProfileCurve = field.source
    if np.any(np.diff(region) != 1):
        raise ValueError("profile regions must be contiguous sample ranges")
    h = curve.step
    if curve.kind == ROTATIONAL:
        radial = 2.0 * np.pi * curve.x
        extra = 0.0
    else:
        radial = np.ones(len(curve))
        width = ruling_width if ruling_width is not None else h * (region.size - 1)
        extra = (np.pi / width) ** 2
    w_node = e_phi * radial
    n = region.size
    lo = region[0]
    # the intervals [a, a+1] that touch the region; ia, ib index the region
    a = np.arange(max(lo - 1, 0), min(lo + n, field.n_samples - 1))
    w_int = 0.5 * (w_node[a] + w_node[a + 1])
    ia, ib = a - lo, a + 1 - lo
    has_a, has_b = ia >= 0, ib < n
    both = has_a & has_b
    stiff = w_int / h
    half_mass = 0.5 * w_int * h
    # each node's mass is its left interval's share plus its right one's
    left, right = np.zeros(n), np.zeros(n)
    left[ib[has_b]] = half_mass[has_b]
    right[ia[has_a]] = half_mass[has_a]
    mass = left + right
    rows = np.concatenate([ia[has_a], ib[has_b], ia[both], ib[both]])
    cols = np.concatenate([ia[has_a], ib[has_b], ib[both], ia[both]])
    vals = np.concatenate([stiff[has_a], stiff[has_b], -stiff[both], -stiff[both]])
    K = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    v_diag = pot[region] * mass
    return StabilityAssembly(weights=e_phi[region], stiffness=K,
                             potential_term=v_diag, mass=mass, region=region,
                             extra_mode=extra)


def _cell_average(F, nx, ny):
    """Mean of the four corner values of each cell of an nx x ny grid."""
    G = F.reshape(nx, ny)
    return 0.25 * (G[:-1, :-1] + G[1:, :-1] + G[:-1, 1:] + G[1:, 1:])


def _cell_coefficients(field, e_phi):
    """Cell-centred coefficient e^phi W and inverse metric gixx, giyy, gixy
    of a graph field."""
    nx, ny = field.source.nx, field.source.ny
    nodal = [e_phi * field._graph("W").ravel()]
    nodal += [field._graph(key) for key in ("gixx", "giyy", "gixy")]
    return [_cell_average(F, nx, ny) for F in nodal]


def _assemble_graph(field, spec, region, pot, e_phi):
    patch = field.source
    nx, ny, h = patch.nx, patch.ny, patch.h
    coef, gixx, giyy, gixy = _cell_coefficients(field, e_phi)

    # exact bilinear element stiffness via 2x2 Gauss points
    gp = 1.0 / np.sqrt(3.0)
    gauss = [(-gp, -gp), (gp, -gp), (-gp, gp), (gp, gp)]
    bmats = []
    for xi, etaa in gauss:
        dN = np.array([
            [-(1 - etaa), (1 - etaa), -(1 + etaa), (1 + etaa)],
            [-(1 - xi), -(1 + xi), (1 - xi), (1 + xi)],
        ]) / 4.0 * (2.0 / h)  # local order [00, 10, 01, 11]
        bmats.append(dN)

    ncell = (nx - 1) * (ny - 1)
    A = np.empty((ncell, 2, 2))
    A[:, 0, 0] = (coef * gixx).ravel()
    A[:, 1, 1] = (coef * giyy).ravel()
    A[:, 0, 1] = A[:, 1, 0] = (coef * gixy).ravel()
    Ke = np.zeros((ncell, 4, 4))
    for B in bmats:
        AB = np.einsum("cab,bj->caj", A, B)
        Ke += np.einsum("ai,caj->cij", B, AB) * (h**2 / 4.0)

    ci, cj = np.meshgrid(np.arange(nx - 1), np.arange(ny - 1), indexing="ij")
    n00 = (ci * ny + cj).ravel()
    nodes = np.stack([n00, n00 + ny, n00 + 1, n00 + ny + 1], axis=1)
    rows = np.repeat(nodes, 4, axis=1).ravel()
    cols = np.tile(nodes, (1, 4)).ravel()
    K = sp.coo_matrix((Ke.ravel(), (rows, cols)),
                      shape=(nx * ny, nx * ny)).tocsr()

    mass_full = np.zeros(nx * ny)
    share = coef.ravel() * h**2 / 4.0
    for k in range(4):
        np.add.at(mass_full, nodes[:, k], share)

    K_rr = K[region][:, region]
    mass = mass_full[region]
    v_diag = pot[region] * mass
    return StabilityAssembly(weights=e_phi[region], stiffness=K_rr.tocsr(),
                             potential_term=v_diag, mass=mass, region=region)


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
    region = np.asarray(sorted(set(int(i) for i in region)), dtype=np.int64)
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
                     tol: float = 1e-10, ruling_width: float | None = None,
                     max_iters: int = 500) -> SpectrumResult:
    """Smallest eigenvalue of -L on the region, Dirichlet outside.

    Solves (stiffness - potential) u = lambda mass u by inverse iteration
    shifted below the spectrum; the eigen-residual is measured in the
    mass norm and the eigenfunction is mass-normalised with positive mean.
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
    while iters < max_iters:
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
            lu = factor(sigma)
    else:
        raise EigenConvergenceError(
            f"eigen-residual {res_norm:.3e} after {max_iters} iterations")
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
        grad_eta_sq = field.surface_gradient_sq(field.eta)
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
        off = curve.x > 1e-10
        lap[off] -= nu[off] / curve.x[off] ** 2
        res = lap + field.surface_inner(phi_mu, nu) + pot * nu
    else:
        res = drift_laplacian(field, nu, phi_mu) + pot * nu
    return _make_report("killing_jacobi_field", res, mask, field.grid_h, margin)
