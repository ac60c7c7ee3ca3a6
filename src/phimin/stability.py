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
written as a 9-point stencil by grid.stencil_matrix.  Each element
matrix is the closed form a Sxx + b Sxy + c Syy of the cell's weighted
inverse-metric coefficients a, b, c and three constant 4 x 4 integrals
of the shape functions, each symmetric entry by entry, so the stiffness
is exactly symmetric.  On rotational profiles it is the one-dimensional radial
problem with 2 pi x e^phi weight; on translation-invariant profiles the
exact separated reduction, adding (pi / ruling_width)^2 for the lowest
ruling mode; either is a grid.Tridiagonal in numpy arrays.  The
generalized eigenproblem is solved by LOBPCG, preconditioned by the
factorisation, or on a fine graph the V-cycle (grid.Hierarchy), of the
operator shifted below its spectrum, which is symmetric positive
definite: on a graph, LAPACK's band Cholesky factors its coarsest grid,
and on a profile, odd-even cyclic reduction factors the tridiagonal
operator in numpy, so that a profile audit, like every profile command,
never imports scipy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (NINE_POINT, Hierarchy, Tridiagonal, cell_average,
                   stencil_matrix, transfers)
# eval_potential is unused here, but bench/tracing.py wraps it in every layer module
from .potential import PotentialSpec, eval_potential
from .surface_geometry import (AXIS_TOL, GeometryField, ProfileCurve,
                               ResidualReport, ROTATIONAL, drift_laplacian,
                               residual_report)


class SupportError(ValueError):
    """Test function not supported inside the declared region."""


class EigenConvergenceError(RuntimeError):
    """The eigen-solve missed its residual tolerance within 500 iterations."""


class RulingWidthError(ValueError):
    """A translation region too short to set the ruling width."""


@dataclass
class StabilityAssembly:
    """Discrete matrices of the stability form on a Dirichlet region.

    stiffness is the weighted Dirichlet form, a Tridiagonal on a profile
    and a CSR matrix on a graph; potential_term and mass are diagonal
    (lumped); all are restricted to ``region`` sample indices.
    """

    stiffness: "Tridiagonal | scipy.sparse.csr_matrix"
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
        """Q(u, u) / (u, u)_M of a region-restricted vector, with one
        stiffness product: bit for bit bilinear(u, u) / (u, u)_M."""
        return self._rayleigh_rows(u[None])[0]

    def _rayleigh_rows(self, U: np.ndarray) -> list:
        """rayleigh of each row of U, with one block stiffness product;
        each row's dot products run on contiguous copies, as in rayleigh
        of that row alone."""
        KU = self.stiffness @ U.T
        diag = self.extra_mode * self.mass - self.potential_term
        return [float(u @ np.ascontiguousarray(ku) + (u * u) @ diag)
                / float(u @ (self.mass * u)) for u, ku in zip(U, KU.T)]


def _operator_potential(field: GeometryField, spec: PotentialSpec) -> np.ndarray:
    return field.norm_s2() - field.potential(spec).d2 * field.eta**2


def _region(field: GeometryField, region) -> np.ndarray:
    """Region's distinct sample indices, sorted; ValueError if none or out of range."""
    region = np.asarray(region, dtype=np.int64)
    if region.size == 0:
        raise ValueError("region is empty")
    if region.min() < 0 or region.max() >= field.n_samples:
        raise ValueError("region indices out of range")
    # a membership mask sorts and drops repeats in one pass over the
    # samples; on a 2,000-node profile region np.unique took 20 times as
    # long (numpy 2.4), and np.sort's first call raised the peak RSS
    member = np.zeros(field.n_samples, dtype=bool)
    member[region] = True
    return np.flatnonzero(member)


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
    K = Tridiagonal(stiff[:-1] + stiff[1:], -stiff[1:-1])
    v_diag = pot[region] * mass
    return StabilityAssembly(stiffness=K, potential_term=v_diag, mass=mass,
                             region=region, extra_mode=extra)


def _cell_coefficients(field, e_phi):
    """Cell-centred coefficient e^phi W and inverse metric gixx, giyy, gixy
    of a graph field."""
    nx, ny = field.source.nx, field.source.ny
    g = field.partials
    nodal = [e_phi * g.W.ravel(), g.gixx, g.giyy, g.gixy]
    return [cell_average(F, nx, ny) for F in nodal]


def _assemble_graph(field, region, pot, e_phi):
    patch = field.source
    nx, ny, h = patch.nx, patch.ny, patch.h
    i, j = np.divmod(region, ny)
    i0, i1, j0, j1 = i.min(), i.max() + 1, j.min(), j.max() + 1
    if region.size != (i1 - i0) * (j1 - j0):
        raise ValueError("graph regions must be full rectangular blocks of the grid")
    coef, gixx, giyy, gixy = _cell_coefficients(field, e_phi)

    # exact bilinear element stiffness coef (gixx Sxx + gixy Sxy + giyy Syy),
    # free of h: a cell's corner (a, b) is local node a + 2 b, of signs
    # s = 2 a - 1 in x and t = 2 b - 1 in y, and the S are the integrals over
    # the cell of the shape functions' derivative products, each symmetric
    # entry by entry so that the stiffness is exactly symmetric.  A ring of
    # empty cells borders the grid; only the cells that touch the block are
    # formed
    s = np.array([-1, 1, -1, 1])
    t = np.array([-1, -1, 1, 1])
    Sxx = np.outer(s, s) * (3 + np.outer(t, t)) / 12.0
    Sxy = (np.outer(s, t) + np.outer(t, s)) / 4.0
    Syy = np.outer(t, t) * (3 + np.outer(s, s)) / 12.0
    cxx, cxy, cyy = (np.pad(f, 1)[i0:i1 + 1, j0:j1 + 1, None, None]
                     for f in (coef * gixx, coef * gixy, coef * giyy))
    Ke = cxx * Sxx + cxy * Sxy + cyy * Syy

    # a node's cells (-1, -1), (-1, 0), (0, -1), (0, 0) away are summed in
    # this ascending cell order, which fixes the rounding of each entry
    coefs = np.zeros((i1 - i0, j1 - j0, 9))
    for ci, cj in ((-1, -1), (-1, 0), (0, -1), (0, 0)):
        cell = Ke[ci + 1:i1 - i0 + ci + 1, cj + 1:j1 - j0 + cj + 1]
        for m, (di, dj) in enumerate(NINE_POINT):
            if 0 <= di - ci <= 1 and 0 <= dj - cj <= 1:
                coefs[..., m] += cell[..., -ci - 2 * cj, di - ci + 2 * (dj - cj)]

    # each cell's mass share goes to its corners 00, 10, 01, 11 in turn
    share = coef * h**2 / 4.0
    mass = np.zeros((nx, ny))
    for di, dj in ((0, 0), (1, 0), (0, 1), (1, 1)):
        mass[di:nx - 1 + di, dj:ny - 1 + dj] += share
    mass = mass[i0:i1, j0:j1].ravel()
    return StabilityAssembly(stiffness=stencil_matrix(NINE_POINT, coefs),
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
    cells = coef * (inner - cell_average(pot, nx, ny) * cell_average(u, nx, ny)
                    * cell_average(v, nx, ny)) * h**2
    return float(cells.sum())


def _plus_diagonal(K, v: np.ndarray):
    """K + diag(v), in K's form: a Tridiagonal or a CSR matrix."""
    if isinstance(K, Tridiagonal):
        return Tridiagonal(K.diag + v, K.off)
    import scipy.sparse as sp
    return K + sp.diags(v)


def _lowest_ritz_vector(a: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The m-normalised eigenvector c of the least eigenvalue of the small
    symmetric pencil a c = mu m c, m positive definite: with the Cholesky
    factor m = L L^T, c = L^-T y for the least eigenvector y of
    L^-1 a L^-T.  cholesky reads only the lower triangle of m, and eigh
    only that of the reduced matrix."""
    L_inv = np.linalg.inv(np.linalg.cholesky(m))
    y = np.linalg.eigh(L_inv @ a @ L_inv.T)[1][:, 0]
    return L_inv.T @ y


def first_eigenvalue(field: GeometryField, spec: PotentialSpec, region,
                     tol: float = 1e-10,
                     ruling_width: float | None = None) -> SpectrumResult:
    """Smallest eigenvalue of -L on the region, Dirichlet outside.

    Solves A u = lambda M u, A = stiffness - potential + extra_mode M, by
    one-vector LOBPCG (Knyazev, SIAM J. Sci. Comput. 23, 2001) from u = 1,
    preconditioned by one grid.Hierarchy V-cycle of A - sigma M,
    sigma = -max |potential / M| - 1 - extra_mode, which is symmetric
    positive definite, so its coarsest grid is factored by band Cholesky,
    or on a profile the tridiagonal operator by cyclic reduction:
    each iteration is one Rayleigh-Ritz step (_lowest_ritz_vector) on the
    mass-normalised span of the iterate, its preconditioned residual and
    the last step.  It stops at mass-norm residual
    max(tol max(1, |lambda|), 8 x its rounding floor), or raises
    EigenConvergenceError after 500 iterations (``iterations`` counts
    them).  The eigenfunction is mass-normalised with positive mean.
    """
    asm = build_assembly(field, spec, region, ruling_width=ruling_width)
    K, V, M = asm.stiffness, asm.potential_term, asm.mass
    sigma = -float(np.max(np.abs(V / M))) - 1.0 - asm.extra_mode
    A = _plus_diagonal(K, asm.extra_mode * M - V)
    shifted = _plus_diagonal(A, -sigma * M)
    grid_transfers = []
    if not field.is_profile:
        # the region is a full block (_assemble_graph refuses any other), so
        # its first and last nodes give its rows; a block of rows x
        # (M.size / rows) nodes has one more cell a side
        ny = field.source.ny
        rows = asm.region[-1] // ny - asm.region[0] // ny + 1
        grid_transfers = transfers(rows + 1, M.size // rows + 1)
    hierarchy = Hierarchy(shifted, grid_transfers, spd=True)
    abs_K = abs(K)
    x = np.full(M.size, 1.0 / np.sqrt(M.sum()))
    for iters in range(501):
        lam = asm.rayleigh(x)
        r = A @ x - lam * (M * x)
        res_norm = float(np.sqrt(r @ (r / M)))
        # rounding floor of the residual evaluation itself
        round_scale = np.finfo(float).eps * (abs_K @ np.abs(x)
                                             + np.abs(V * x) + np.abs(lam) * M * np.abs(x))
        floor = float(np.sqrt(round_scale @ (round_scale / M)))
        if res_norm <= max(tol * max(1.0, abs(lam)), 8.0 * floor):
            break
        if iters == 500:
            raise EigenConvergenceError(
                f"eigen-residual {res_norm:.3e} after {iters} iterations")
        w = hierarchy.vcycle(r)
        basis = np.stack([x, w, p] if iters else [x, w], axis=1)
        basis /= np.sqrt(M @ basis**2)
        c = _lowest_ritz_vector(basis.T @ (A @ basis), basis.T @ (M[:, None] * basis))
        p = basis[:, 1:] @ c[1:]
        x = basis[:, 0] * c[0] + p
    if x.sum() < 0:
        x = -x
    full = np.zeros(field.n_samples)
    full[asm.region] = x
    return SpectrumResult(lambda1=float(lam), eigenfunction=full,
                          iterations=iters, residual=res_norm, assembly=asm)


@dataclass
class StabilityAudit:
    spectrum: SpectrumResult
    lambda_floor: float
    mean_convex: bool
    passed: bool
    rayleigh_trial_min: float


def stability_audit(field: GeometryField, spec: PotentialSpec,
                    seed: int) -> StabilityAudit:
    """first_eigenvalue on the interior at margin 2 to eigen-residual 1e-9;
    passed when lambda1 >= -lambda_floor, the floor 10 h with h the grid
    spacing or profile step; the hypothesis mean_convex is max H <= 1e-8;
    and the least Rayleigh quotient of 20 standard normal vectors on the
    region, drawn from default_rng(seed) as the rows of one 20 x n array,
    the same numbers as 20 draws of n, with one block stiffness product."""
    interior = np.where(field.interior_mask(2))[0]
    lam_floor = float(10.0 * field.grid_h)
    spectrum = first_eigenvalue(field, spec, interior, tol=1e-9)
    rng = np.random.default_rng(seed)
    trials = spectrum.assembly._rayleigh_rows(rng.standard_normal((20, interior.size)))
    return StabilityAudit(spectrum, lam_floor, bool(np.max(field.H) <= 1e-8),
                          spectrum.lambda1 >= -lam_floor, min(trials))


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
        return residual_report("log_angle_certificate", res, mask, field.grid_h, margin)

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
    return residual_report("killing_jacobi_field", res, mask, field.grid_h, margin)
