"""Discrete surfaces and their per-point geometry fields.

Two representations are supported: arclength-sampled profile curves
(rotationally symmetric or translation-invariant surfaces) and height
graphs over a rectangle.  Each is turned into a :class:`GeometryField`
carrying height mu, angle function eta, normal, mean and Gauss
curvature, principal curvatures, and the residual machinery for the structure identities
of weighted-minimal surfaces.

Sign convention, fixed package-wide: the second fundamental form is
S(X, Y) = <D_X N, Y> with N the chosen unit normal (upward for graphs
and for profiles at zero tangent angle).  Under this convention weighted
minimality reads H + phi'(mu) eta = 0, the angle gradient satisfies
grad eta = S grad mu, and mean convex examples have H <= 0.

Identity registry for :func:`fundamental_identity_residuals` (profile
sources support all items, graph patches items 1, 2, 3, 5):

    1  |grad mu|^2 + eta^2 = 1   and   grad eta = S grad mu
    2  phi'^2 = phi'^2 |grad mu|^2 + H^2
    3  phi' Hess(mu) = H S
    4  Hess(eta) = (grad_{grad mu} S) - eta S^2
    5  Lap(mu) = phi' (1 - |grad mu|^2)
    6  Lap(N) + phi' grad eta + phi'' eta grad mu + |S|^2 N = 0
    7  Hess(H) + eta Hess(phi') + grad_{grad phi} S + H S^2 + B = 0
    8  Lap(S) + grad_{grad phi} S + eta Hess(phi') + |S|^2 S + B = 0

with B(X, Y) = <grad phi', X> S(grad mu, Y) + <grad phi', Y> S(grad mu, X).
The sign with which B enters 7 and 8 is tied to the S orientation fixed
above; it is pinned by refinement tests on curved profiles with
nonconstant slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from .potential import (PotentialEval, PotentialSpec, PotentialDomainError,
                        eval_potential)

ROTATIONAL = "Rotational"
TRANSLATION = "TranslationInvariant"
# a profile sample with x < AXIS_TOL is on the rotation axis, one with
# x > AXIS_TOL off it; a sample on the axis is regular when its tangent is
# axial, |sin theta| <= AXIAL_TANGENT_TOL
AXIS_TOL = 1e-10
AXIAL_TANGENT_TOL = 1e-6

IDENTITY_NAMES = {
    1: "gradient_decomposition",
    2: "slope_curvature_balance",
    3: "height_hessian",
    4: "angle_hessian",
    5: "height_laplacian",
    6: "gauss_map_laplacian",
    7: "mean_curvature_hessian",
    8: "shape_operator_laplacian",
}

# per-item interior margin in stencil cells (depth of derivative nesting)
_ITEM_MARGIN = {1: 2, 2: 2, 3: 2, 4: 3, 5: 2, 6: 3, 7: 4, 8: 4}

_GRAPH_ITEMS = {1, 2, 3, 5}


class AxisSingularityError(ValueError):
    """Rotational profile hits x = 0 away from a regular axis point."""


class StencilError(ValueError):
    """Grid too small for the finite-difference stencils."""


class UnsupportedIdentityError(ValueError):
    """Tensor identity requested on a representation lacking derivatives."""


class UmbilicRegionError(ValueError):
    """Operation needs a non-umbilic region but none exists."""


def grid_shape(domain, h: float) -> tuple[int, int]:
    """(nx, ny) of the grid of spacing h on domain (a, b, c, d); raises
    ValueError unless h > 0 divides both sides to within 1e-9 max(1, |b|)
    and 1e-9 max(1, |d|)."""
    a, b, c, d = (float(v) for v in domain)
    nx = int(round((b - a) / h)) + 1
    ny = int(round((d - c) / h)) + 1
    if not (h > 0
            and math.isclose(a + (nx - 1) * h, b, rel_tol=0, abs_tol=1e-9 * max(1, abs(b)))
            and math.isclose(c + (ny - 1) * h, d, rel_tol=0, abs_tol=1e-9 * max(1, abs(d)))):
        raise ValueError("h must be positive and divide both domain sides")
    return nx, ny


@dataclass
class ProfileCurve:
    """Arclength samples (s, x, z, theta) of a generating curve.

    The tangent angle theta satisfies (x', z') = (cos theta, sin theta).
    Rotation about the z-axis (kind = Rotational) or extrusion along the
    y-axis (kind = TranslationInvariant) generates the surface.
    """

    s: np.ndarray
    x: np.ndarray
    z: np.ndarray
    theta: np.ndarray
    kind: str
    step: float

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        self.x = np.asarray(self.x, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        self.theta = np.asarray(self.theta, dtype=float)
        if self.kind not in (ROTATIONAL, TRANSLATION):
            raise ValueError(f"unknown profile kind {self.kind!r}")

    def __len__(self) -> int:
        return len(self.s)

    def validate(self) -> None:
        """Check the discrete tangent relation and axis regularity."""
        if len(self.s) < 5:
            raise StencilError("profile needs at least 5 samples")
        tol = 50.0 * self.step**2
        dx = np.gradient(self.x, self.step, edge_order=2)
        dz = np.gradient(self.z, self.step, edge_order=2)
        err = max(np.abs(dx - np.cos(self.theta)).max(),
                  np.abs(dz - np.sin(self.theta)).max())
        if err > tol:
            raise ValueError(f"tangent relation violated: {err:.3e} > {tol:.3e}")
        if self.kind == ROTATIONAL:
            if np.any(self.x < -1e-12):
                raise AxisSingularityError("rotational profile has x < 0")
            on_axis = self.x < AXIS_TOL
            bad = on_axis & (np.abs(np.sin(self.theta)) > AXIAL_TANGENT_TOL)
            if np.any(bad):
                raise AxisSingularityError("x = 0 at a sample with theta not 0 mod pi")


@dataclass
class GraphPatch:
    """Uniform-grid height field u over [a, b] x [c, d] with spacing h.

    u has shape (nx, ny) with u[i, j] the height at
    (a + i h, c + j h); boundary values are Dirichlet data.
    """

    domain: tuple
    h: float
    u: np.ndarray

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=float)

    @property
    def nx(self) -> int:
        return self.u.shape[0]

    @property
    def ny(self) -> int:
        return self.u.shape[1]

    def grid(self):
        a, b, c, d = self.domain
        xs = a + self.h * np.arange(self.nx)
        ys = c + self.h * np.arange(self.ny)
        return np.meshgrid(xs, ys, indexing="ij")

    def validate(self) -> None:
        if self.nx < 5 or self.ny < 5:
            raise StencilError("graph patch needs at least a 5x5 grid")
        if not np.all(np.isfinite(self.u)):
            raise ValueError("graph heights must be finite")
        if grid_shape(self.domain, self.h) != self.u.shape:
            raise ValueError("heights do not have the shape of the domain's grid")


@dataclass
class ResidualReport:
    """Interior max/RMS of one identity residual at a given resolution."""

    identity_name: str
    max_abs_residual: float
    l2_residual: float
    grid_h: float
    interior_margin: int


def residual_report(name: str, res: np.ndarray, mask: np.ndarray, h: float,
                    margin: int) -> ResidualReport:
    vals = np.abs(np.asarray(res, dtype=float))[mask]
    if vals.size == 0:
        raise StencilError(f"no interior samples left for {name} at margin {margin}")
    return ResidualReport(
        identity_name=name,
        max_abs_residual=float(vals.max()),
        l2_residual=float(np.sqrt(np.mean(vals**2))),
        grid_h=float(h),
        interior_margin=int(margin),
    )


class GraphPartials(NamedTuple):
    """Nodal partials of a graph's height u on its grid, with
    W2 = 1 + |grad u|^2, W = sqrt(W2) and the inverse metric
    g^ij = delta_ij - u_i u_j / W2."""

    ux: np.ndarray
    uy: np.ndarray
    uxx: np.ndarray
    uyy: np.ndarray
    uxy: np.ndarray
    W: np.ndarray
    W2: np.ndarray
    gixx: np.ndarray
    giyy: np.ndarray
    gixy: np.ndarray


@dataclass
class GeometryField:
    """Per-sample geometry of a discretised surface.

    Vector quantities tangent to the surface (grad_mu) are stored in
    components of a per-point orthonormal tangent frame; ``normal`` and
    ``positions`` are ambient.  ``partials`` holds a graph's grid partials
    and is None on a profile.
    """

    source: object
    positions: np.ndarray
    mu: np.ndarray
    eta: np.ndarray
    grad_mu: np.ndarray
    normal: np.ndarray
    H: np.ndarray
    K: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    partials: GraphPartials | None = dc_field(default=None, repr=False)
    _potential: tuple = dc_field(default=None, init=False, repr=False, compare=False)

    @property
    def n_samples(self) -> int:
        return len(self.mu)

    @property
    def is_profile(self) -> bool:
        return isinstance(self.source, ProfileCurve)

    @property
    def grid_h(self) -> float:
        return self.source.step if self.is_profile else self.source.h

    def potential(self, spec: PotentialSpec) -> PotentialEval:
        """eval_potential(spec, mu), kept for the last spec asked for; its
        arrays are shared by every caller, so treat them as read-only."""
        if self._potential is None or self._potential[0] != spec:
            self._potential = (spec, eval_potential(spec, self.mu))
        return self._potential[1]

    def norm_s2(self) -> np.ndarray:
        """|S|^2 = H^2 - 2K, squared length of the shape operator."""
        return self.H**2 - 2.0 * self.K

    def interior_mask(self, margin: int) -> np.ndarray:
        """Boolean mask excluding `margin` stencil cells at the boundary."""
        if self.is_profile:
            mask = np.zeros(self.n_samples, dtype=bool)
            if self.n_samples > 2 * margin:
                mask[margin:self.n_samples - margin] = True
            return mask
        nx, ny = self.source.nx, self.source.ny
        grid = np.zeros((nx, ny), dtype=bool)
        if nx > 2 * margin and ny > 2 * margin:
            grid[margin:nx - margin, margin:ny - margin] = True
        return grid.ravel()

    # -- intrinsic calculus -------------------------------------------------

    def surface_inner(self, f: np.ndarray, g: np.ndarray) -> np.ndarray:
        """<grad f, grad g> on the surface."""
        if self.is_profile:
            step = self.source.step
            return (np.gradient(f, step, edge_order=2)
                    * np.gradient(g, step, edge_order=2))
        F = f.reshape(self.source.u.shape)
        G = g.reshape(self.source.u.shape)
        h = self.source.h
        fx = np.gradient(F, h, axis=0, edge_order=2)
        fy = np.gradient(F, h, axis=1, edge_order=2)
        gx = np.gradient(G, h, axis=0, edge_order=2)
        gy = np.gradient(G, h, axis=1, edge_order=2)
        g = self.partials
        out = g.gixx * fx * gx + g.giyy * fy * gy + g.gixy * (fx * gy + fy * gx)
        return out.ravel()

    def laplacian(self, f: np.ndarray) -> np.ndarray:
        """Laplace-Beltrami of a sampled function (edges inaccurate)."""
        if self.is_profile:
            step = self.source.step
            fp = np.gradient(f, step, edge_order=2)
            fpp = _second_diff(f, step)
            if self.source.kind == TRANSLATION:
                return fpp
            lap = fpp.copy()
            ratio, off_axis = _axis_ratio(self.source)
            lap[off_axis] += ratio[off_axis] * fp[off_axis]
            lap[~off_axis] = 2.0 * fpp[~off_axis]  # removable singularity
            return lap
        F = f.reshape(self.source.u.shape)
        h = self.source.h
        fx = np.gradient(F, h, axis=0, edge_order=2)
        fy = np.gradient(F, h, axis=1, edge_order=2)
        fxx = _second_diff(F, h, axis=0)
        fyy = _second_diff(F, h, axis=1)
        fxy = np.gradient(fx, h, axis=1, edge_order=2)
        g = self.partials
        trace_u = g.gixx * g.uxx + 2.0 * g.gixy * g.uxy + g.giyy * g.uyy
        drift = (g.ux * fx + g.uy * fy) / g.W2
        lap = g.gixx * fxx + 2.0 * g.gixy * fxy + g.giyy * fyy - trace_u * drift
        return lap.ravel()


def _second_diff(f: np.ndarray, h: float, axis: int = 0) -> np.ndarray:
    """Compact 3-point second difference; end values padded from neighbours."""
    f = np.asarray(f, dtype=float)
    d = np.empty_like(f)
    sl = [slice(None)] * f.ndim

    def at(idx):
        s = sl.copy()
        s[axis] = idx
        return tuple(s)

    d[at(slice(1, -1))] = (f[at(slice(2, None))] - 2.0 * f[at(slice(1, -1))]
                           + f[at(slice(None, -2))]) / h**2
    d[at(0)] = d[at(1)]
    d[at(-1)] = d[at(-2)]
    return d


def _axis_ratio(curve: "ProfileCurve"):
    """cos(theta) / x of a rotational profile and its off-axis mask
    x > AXIS_TOL; the ratio is 0 on the axis and on translation profiles."""
    off = curve.x > AXIS_TOL
    c = np.zeros(len(curve))
    if curve.kind == ROTATIONAL:
        c[off] = np.cos(curve.theta[off]) / curve.x[off]
    return c, off


# ---------------------------------------------------------------------------
# field construction


def sample_geometry(surface, spec: PotentialSpec) -> GeometryField:
    """Build the per-point geometry field of a profile or graph surface."""
    surface.validate()
    if isinstance(surface, ProfileCurve):
        return _profile_geometry(surface, spec)
    if isinstance(surface, GraphPatch):
        return _graph_geometry(surface, spec)
    raise TypeError(f"unsupported surface type {type(surface)!r}")


def _check_heights(spec: PotentialSpec, heights: np.ndarray) -> None:
    if np.any(heights <= spec.alpha):
        raise PotentialDomainError("surface heights leave the weight domain")


def _profile_geometry(curve: ProfileCurve, spec: PotentialSpec) -> GeometryField:
    _check_heights(spec, curve.z)
    n = len(curve)
    sin_t = np.sin(curve.theta)
    cos_t = np.cos(curve.theta)
    k_mer = -np.gradient(curve.theta, curve.step, edge_order=2)
    if curve.kind == ROTATIONAL:
        k_par = np.empty(n)
        on_axis = curve.x < AXIS_TOL
        k_par[~on_axis] = -sin_t[~on_axis] / curve.x[~on_axis]
        k_par[on_axis] = k_mer[on_axis]  # equal curvatures at a regular axis point
    else:
        k_par = np.zeros(n)
    positions = np.column_stack([curve.x, np.zeros(n), curve.z])
    normal = np.column_stack([-sin_t, np.zeros(n), cos_t])
    grad_mu = np.column_stack([sin_t, np.zeros(n)])
    return GeometryField(
        source=curve, positions=positions, mu=curve.z.copy(), eta=cos_t,
        grad_mu=grad_mu, normal=normal,
        H=k_mer + k_par, K=k_mer * k_par, k1=k_mer, k2=k_par)


def _graph_geometry(patch: GraphPatch, spec: PotentialSpec) -> GeometryField:
    _check_heights(spec, patch.u)
    u, h = patch.u, patch.h
    ux = np.gradient(u, h, axis=0, edge_order=2)
    uy = np.gradient(u, h, axis=1, edge_order=2)
    uxx = _second_diff(u, h, axis=0)
    uyy = _second_diff(u, h, axis=1)
    uxy = np.gradient(ux, h, axis=1, edge_order=2)
    W2 = 1.0 + ux**2 + uy**2
    W = np.sqrt(W2)
    partials = GraphPartials(ux=ux, uy=uy, uxx=uxx, uyy=uyy, uxy=uxy, W=W, W2=W2,
                             gixx=1.0 - ux**2 / W2, giyy=1.0 - uy**2 / W2,
                             gixy=-ux * uy / W2)
    X, Y = patch.grid()

    positions = np.column_stack([X.ravel(), Y.ravel(), patch.u.ravel()])
    mu = patch.u.ravel().copy()
    eta = (1.0 / W).ravel()
    normal = np.column_stack([(-ux / W).ravel(), (-uy / W).ravel(), (1.0 / W).ravel()])

    # orthonormal tangent frame E1 ~ (1,0,ux), E2 completing it
    r1 = np.sqrt(1.0 + ux**2)
    grad_mu = np.column_stack([(ux / r1).ravel(), (uy / (W * r1)).ravel()])

    # second fundamental form in the frame: C^T (-Hess u / W) C
    c11 = 1.0 / r1
    c12 = -ux * uy / (W * r1)
    c22 = r1 / W
    b11 = -uxx / W
    b12 = -uxy / W
    b22 = -uyy / W
    s11 = c11 * (b11 * c11)
    s12 = c11 * (b11 * c12 + b12 * c22)
    s22 = (c12 * (b11 * c12 + b12 * c22) + c22 * (b12 * c12 + b22 * c22))
    H = (s11 + s22).ravel()
    K = (s11 * s22 - s12**2).ravel()
    disc = np.sqrt(np.maximum((s11 - s22) ** 2 / 4.0 + s12**2, 0.0)).ravel()
    mid = H / 2.0
    return GeometryField(
        source=patch, positions=positions, mu=mu, eta=eta, grad_mu=grad_mu,
        normal=normal, H=H, K=K, k1=mid - disc, k2=mid + disc, partials=partials)


# ---------------------------------------------------------------------------
# residual reports


def phi_minimal_residual(field: GeometryField, spec: PotentialSpec) -> ResidualReport:
    """Max and RMS of |H + phi'(mu) eta| over the samples at least 2
    stencil cells inside the boundary."""
    d1 = field.potential(spec).d1
    res = field.H + d1 * field.eta
    return residual_report("weighted_minimality", res, field.interior_mask(2),
                           field.grid_h, 2)


def drift_laplacian(field: GeometryField, f: np.ndarray,
                    psi: np.ndarray) -> np.ndarray:
    """Lap(f) + <grad psi, grad f> on the surface (edges inaccurate)."""
    f = np.asarray(f, dtype=float)
    psi = np.asarray(psi, dtype=float)
    if f.shape != (field.n_samples,) or psi.shape != (field.n_samples,):
        raise ValueError("f and psi must be sampled on every surface point")
    return field.laplacian(f) + field.surface_inner(psi, f)


def fundamental_identity_residuals(field: GeometryField, spec: PotentialSpec,
                                   items, margin: int | None = None):
    """Residual reports for the structure identities (see module docstring).

    Graph patches support items 1, 2, 3, 5; the tensor identities need
    one-dimensional derivatives of curvature fields and are available on
    profile sources.
    """
    items = sorted(set(int(i) for i in items))
    if any(i not in IDENTITY_NAMES for i in items):
        raise ValueError(f"unknown identity items in {items}")
    if not field.is_profile:
        bad = [i for i in items if i not in _GRAPH_ITEMS]
        if bad:
            raise UnsupportedIdentityError(
                f"items {bad} need profile derivatives; graph patches support"
                f" {sorted(_GRAPH_ITEMS)}")
    reports = []
    for item in items:
        m = margin if margin is not None else _ITEM_MARGIN[item]
        res = (_profile_identity(field, spec, item) if field.is_profile
               else _graph_identity(field, spec, item))
        reports.append(residual_report(IDENTITY_NAMES[item], res,
                                       field.interior_mask(m), field.grid_h, m))
    return reports


def _profile_identity(field: GeometryField, spec: PotentialSpec, item: int):
    curve: ProfileCurve = field.source
    step = curve.step
    ds = lambda arr: np.gradient(arr, step, edge_order=2)
    ev = field.potential(spec)
    d1, d2 = ev.d1, ev.d2
    sin_t = np.sin(curve.theta)
    eta = field.eta
    k1, k2 = field.k1, field.k2
    H, S2 = field.H, field.norm_s2()
    c, off = _axis_ratio(curve)

    if item == 1:
        r_unit = field.grad_mu[:, 0] ** 2 + eta**2 - 1.0
        r_grad = ds(eta) - k1 * sin_t
        return np.maximum(np.abs(r_unit), np.abs(r_grad))
    if item == 2:
        return d1**2 - d1**2 * sin_t**2 - H**2
    if item == 3:
        hm11 = ds(sin_t)
        hm22 = c * sin_t
        return np.maximum(np.abs(d1 * hm11 - H * k1), np.abs(d1 * hm22 - H * k2))
    if item == 4:
        he11 = _second_diff(eta, step)
        he22 = c * ds(eta)
        r11 = he11 - sin_t * ds(k1) + eta * k1**2
        r22 = he22 - sin_t * ds(k2) + eta * k2**2
        return np.maximum(np.abs(r11), np.abs(r22))
    if item == 5:
        lap_mu = field.laplacian(field.mu)
        return lap_mu - d1 * (1.0 - sin_t**2)
    if item == 6:
        # ambient components of Lap(N); the meridian plane is y = 0
        d_eta = ds(eta)
        lap_n1 = -_second_diff(sin_t, step) - c * ds(sin_t)
        lap_n3 = _second_diff(eta, step) + c * d_eta
        if curve.kind == ROTATIONAL:
            extra = np.zeros(len(curve))
            extra[off] = sin_t[off] / curve.x[off] ** 2
            lap_n1 = lap_n1 + extra
        cos_t = eta
        r1 = lap_n1 + d1 * d_eta * cos_t + d2 * eta * sin_t * cos_t + S2 * (-sin_t)
        r3 = lap_n3 + d1 * d_eta * sin_t + d2 * eta * sin_t**2 + S2 * eta
        return np.maximum(np.abs(r1), np.abs(r3))

    hp11, hp22, b11 = _weight_hessian(field, spec, c, sin_t, ds)
    if item == 7:
        hh11 = _second_diff(H, step)
        hh22 = c * ds(H)
        r11 = hh11 + eta * hp11 + d1 * sin_t * ds(k1) + H * k1**2 + b11
        r22 = hh22 + eta * hp22 + d1 * sin_t * ds(k2) + H * k2**2
        return np.maximum(np.abs(r11), np.abs(r22))
    # item 8: rough Laplacian of the diagonal shape tensor
    ls11 = _second_diff(k1, step) + c * ds(k1) - 2.0 * c**2 * (k1 - k2)
    ls22 = _second_diff(k2, step) + c * ds(k2) + 2.0 * c**2 * (k1 - k2)
    r11 = ls11 + d1 * sin_t * ds(k1) + eta * hp11 + S2 * k1 + b11
    r22 = ls22 + d1 * sin_t * ds(k2) + eta * hp22 + S2 * k2
    return np.maximum(np.abs(r11), np.abs(r22))


def _weight_hessian(field, spec, c, sin_t, ds):
    """(Hess(phi')(v1, v1), Hess(phi')(v2, v2), B(v1, v1)) on a profile,
    with Hess(phi') = phi''' dmu x dmu + phi'' Hess(mu) and Hess(mu) in
    the frame via H S / phi' where the slope is nonzero."""
    ev = field.potential(spec)
    use_identity = np.abs(ev.d1) > 1e-12
    hm11 = np.where(use_identity,
                    field.H * field.k1 / np.where(use_identity, ev.d1, 1.0),
                    ds(sin_t))
    hm22 = np.where(use_identity,
                    field.H * field.k2 / np.where(use_identity, ev.d1, 1.0),
                    c * sin_t)
    hp11 = ev.d3 * sin_t**2 + ev.d2 * hm11
    hp22 = ev.d2 * hm22
    b11 = 2.0 * ev.d2 * sin_t * (field.k1 * sin_t)
    return hp11, hp22, b11


def _graph_identity(field: GeometryField, spec: PotentialSpec, item: int):
    patch: GraphPatch = field.source
    h = patch.h
    d1 = field.potential(spec).d1
    if item == 1:
        r_unit = (field.grad_mu**2).sum(axis=1) + field.eta**2 - 1.0
        # compare d eta (plain partials) with the 1-form S(grad mu, .)
        eta_g = field.eta.reshape(patch.u.shape)
        ex = np.gradient(eta_g, h, axis=0, edge_order=2).ravel()
        ey = np.gradient(eta_g, h, axis=1, edge_order=2).ravel()
        g = field.partials
        ux, uy = g.ux.ravel(), g.uy.ravel()
        uxx, uxy, uyy = g.uxx.ravel(), g.uxy.ravel(), g.uyy.ravel()
        W = g.W.ravel()
        sx = -(uxx * ux + uxy * uy) / W**3
        sy = -(uxy * ux + uyy * uy) / W**3
        return np.maximum(np.abs(r_unit),
                          np.maximum(np.abs(ex - sx), np.abs(ey - sy)))
    if item == 2:
        gm2 = (field.grad_mu**2).sum(axis=1)
        return d1**2 - d1**2 * gm2 - field.H**2
    if item == 3:
        # coordinate components: Hess(mu) = Hess(u)/W^2, S = -Hess(u)/W
        g = field.partials
        W = g.W.ravel()
        out = np.zeros(field.n_samples)
        for uij in (g.uxx.ravel(), g.uxy.ravel(), g.uyy.ravel()):
            out = np.maximum(out, np.abs(d1 * uij / W**2 - field.H * (-uij / W)))
        return out
    # item 5; fundamental_identity_residuals refuses items outside _GRAPH_ITEMS
    lap_mu = field.laplacian(field.mu)
    gm2 = (field.grad_mu**2).sum(axis=1)
    return lap_mu - d1 * (1.0 - gm2)


# ---------------------------------------------------------------------------
# curvature evolution


def curvature_evolution_residuals(field: GeometryField, spec: PotentialSpec,
                                  margin: int = 4):
    """Residuals of the drift-Laplacian evolution of principal curvatures
    and of the two weighted-quotient identities, on profile sources.

    For each smooth curvature branch a (meridian, then ruling/parallel):

        Lap^phi k_a = -|S|^2 k_a - eta Hess(phi')(v_a, v_a)
                      - B(v_a, v_a) + 2 Q^2 / (k_a - k_b)

    and the quotient identities for k_b / eta (with weight eta^2 e^phi)
    and eta / k_a (with weight k_a^2 e^phi, requiring k_a < 0).
    """
    if not field.is_profile:
        raise UnsupportedIdentityError("curvature evolution needs a profile source")
    k1, k2 = field.k1, field.k2
    gap = k1 - k2
    S2 = field.norm_s2()
    sup_s = float(np.sqrt(np.maximum(S2, 0.0)).max())
    umbilic = np.abs(gap) <= 1e-8 * max(sup_s, 1e-300)
    mask = field.interior_mask(margin)
    if np.all(umbilic[mask]):
        raise UmbilicRegionError("field is umbilic everywhere in the interior")
    if np.any(field.eta[mask] <= 0.0):
        raise ValueError("quotient identities need eta > 0 on the interior")

    curve: ProfileCurve = field.source
    step = curve.step
    ds = lambda arr: np.gradient(arr, step, edge_order=2)
    ev = field.potential(spec)
    d2, d3 = ev.d2, ev.d3
    sin_t = np.sin(curve.theta)
    eta = field.eta
    c, _ = _axis_ratio(curve)
    hp11, hp22, b11 = _weight_hessian(field, spec, c, sin_t, ds)
    # Codazzi: Q^2 = h_{12,2}^2 with h_{12,2} = cos(theta)/x (k1 - k2),
    # the only nonzero h_{12,i} on a profile; 0 at umbilics
    q2 = np.where(umbilic, 0.0, (c * gap) ** 2)
    safe_gap = np.where(np.abs(gap) > 1e-300, gap, np.inf)

    phi_mu = ev.phi
    reports = []

    dl_k1 = drift_laplacian(field, k1, phi_mu)
    res1 = dl_k1 + S2 * k1 + eta * hp11 + b11 - 2.0 * q2 / safe_gap
    reports.append(residual_report("curvature_evolution_meridian", res1, mask,
                                   step, margin))
    dl_k2 = drift_laplacian(field, k2, phi_mu)
    res2 = dl_k2 + S2 * k2 + eta * hp22 + 2.0 * q2 / safe_gap
    reports.append(residual_report("curvature_evolution_parallel", res2, mask,
                                   step, margin))

    # J with weight eta^2 e^phi applied to k2 / eta
    psi_eta = phi_mu + 2.0 * np.log(np.maximum(eta, 1e-300))
    ratio = k2 / eta
    lhs = drift_laplacian(field, ratio, psi_eta)
    rhs = d2 * ratio + 2.0 * q2 / (eta * np.where(np.abs(gap) > 1e-300, k2 - k1, np.inf))
    reports.append(residual_report("jacobi_quotient_parallel_over_eta",
                                   lhs - rhs, mask, step, margin))

    # J with weight k1^2 e^phi applied to eta / k1; needs k1 < 0
    if np.any(field.k1[mask] >= 0.0):
        raise ValueError("eta/k1 quotient identity needs k1 < 0 on the interior")
    psi_k = phi_mu + 2.0 * np.log(-k1)
    ratio2 = eta / k1
    lhs2 = drift_laplacian(field, ratio2, psi_k)
    rhs2 = (d3 * sin_t**2 * ratio2**2
            - d2 * ratio2 * (1.0 - 2.0 * sin_t**2)
            - 2.0 * ratio2 * q2 / (k1 * safe_gap))
    reports.append(residual_report("jacobi_quotient_eta_over_meridian",
                                   lhs2 - rhs2, mask, step, margin))
    return reports
