"""Conformal geometry of the ambient space with metric e^phi <.,.>.

All quantities are expressed in the conformally normalised orthonormal
frame e_i^phi = e^(-phi/2) e_i, where index 2 (0-based) is the vertical
direction.  The weight depends on height only, so every coefficient is a
closed-form expression in phi and its derivatives:

    connection    <D_{e_i} e_j, e_k> = (phi'/2) e^(-phi/2)
                                       (d_{3j} d_{ik} - d_{ij} d_{3k})
    sectional     K(e_i, e_j) = (e^-phi / 4)
                  ((phi'^2 - 2 phi'') [3 in {i,j}] - phi'^2),  i != j
    gradient      vertical component of the curvature gradient, a cubic
                  polynomial in (phi', phi'', phi''').

The sectional formula is symmetric in (i, j); since i != j at most one
index is vertical, so the indicator [3 in {i,j}] = d_{i3} + d_{j3}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import PotentialSpec, eval_potential, _derivatives, _sampled_sup

VERTICAL = 2  # 0-based index of the height direction


@dataclass(frozen=True)
class FrameQuantities:
    """Connection, sectional curvature and curvature gradient at height z.

    connection[i, j, k] = <D_{e_i^phi} e_j^phi, e_k^phi>^phi
    sectional[i, j]     = K^phi(e_i^phi, e_j^phi)   (diagonal unused)
    curvature_gradient_e3[i, j] = vertical component of grad K^phi(e_i, e_j)
    """

    z: float
    connection: np.ndarray
    sectional: np.ndarray
    curvature_gradient_e3: np.ndarray


@dataclass(frozen=True)
class BoundedGeometryReport:
    """Sampled sup of e^-phi max(phi'^2, phi'') plus analytic tail verdict."""

    sup_quantity: float
    bounded: bool
    complete_hint: bool


@dataclass(frozen=True)
class ConformalShape:
    """Second fundamental form data of a surface point in the weighted metric."""

    s_phi: np.ndarray
    k1_phi: float
    k2_phi: float
    h_phi: float


def frame_quantities(spec: PotentialSpec, z: float) -> FrameQuantities:
    """Closed-form frame coefficients of the conformal ambient metric at z."""
    ev = eval_potential(spec, z)
    phi, d1, d2, d3 = ev.phi, ev.d1, ev.d2, ev.d3
    half_root = 0.5 * np.exp(-phi / 2.0) * d1

    connection = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                connection[i, j, k] = half_root * (
                    (j == VERTICAL) * (i == k) - (i == j) * (k == VERTICAL))

    sectional = np.zeros((3, 3))
    factor = 0.25 * np.exp(-phi)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            vertical = float((i == VERTICAL) + (j == VERTICAL))
            sectional[i, j] = factor * ((d1**2 - 2.0 * d2) * vertical - d1**2)

    # vertical gradient component: e^phi times d/dz of the sectional value
    gradient = np.zeros((3, 3))
    base = d1**3 - 2.0 * d1 * d2
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            vertical = float((i == VERTICAL) + (j == VERTICAL))
            gradient[i, j] = 0.25 * (base + vertical * (-d1**3 + 4.0 * d1 * d2 - 2.0 * d3))

    return FrameQuantities(z=float(z), connection=connection,
                           sectional=sectional, curvature_gradient_e3=gradient)


def _bounded_quantity(spec: PotentialSpec, z):
    phi, d1, d2, _ = _derivatives(spec, np.asarray(z, dtype=float))
    return np.exp(-(phi + spec.offset)) * np.maximum(d1**2, d2)


def bounded_geometry_check(spec: PotentialSpec, z_lo: float, z_hi: float,
                           n: int) -> BoundedGeometryReport:
    """Sample e^-phi max(phi'^2, phi'') on [z_lo, z_hi] with tail analysis.

    The ``bounded`` flag combines the stabilised sampled sup with the
    family's analytic behaviour toward the ends of the full domain.
    """
    if not (spec.domain_left < z_lo < z_hi) or n < 2:
        raise ValueError("invalid sampling window")
    zs = np.linspace(z_lo, z_hi, n)
    sup = _sampled_sup(lambda t: _bounded_quantity(spec, t), zs)
    return BoundedGeometryReport(
        sup_quantity=float(sup),
        bounded=spec.rules.tail_bounded(spec),
        complete_hint=spec.rules.complete_hint(spec),
    )


def to_ilmanen_shape(spec: PotentialSpec, z: float, s_euclidean: np.ndarray,
                     eta: float) -> ConformalShape:
    """Convert Euclidean shape data at height z into the weighted metric.

    s_euclidean is the 2x2 second fundamental form in a Euclidean
    orthonormal tangent frame; eta the vertical normal component. The
    form picks up e^(phi/2) while curvatures scale by e^(-phi/2):

        S^phi(u, v) = e^(phi/2) (S(u, v) + (phi'/2) eta <u, v>)
        k_i^phi     = e^(-phi/2) (k_i + (phi'/2) eta)
        H^phi       = e^(-phi/2) (H + phi' eta)
    """
    if abs(eta) > 1.0 + 1e-12:
        raise ValueError(f"|eta| must be <= 1, got {eta}")
    s = np.asarray(s_euclidean, dtype=float)
    if s.shape != (2, 2) or abs(s[0, 1] - s[1, 0]) > 1e-12 * (1.0 + abs(s).max()):
        raise ValueError("s_euclidean must be 2x2 symmetric")
    ev = eval_potential(spec, z)
    half = 0.5 * ev.d1 * eta
    s_phi = np.exp(ev.phi / 2.0) * (s + half * np.eye(2))
    k = np.linalg.eigvalsh(s)
    scale = np.exp(-ev.phi / 2.0)
    k1_phi = scale * (k[0] + half)
    k2_phi = scale * (k[1] + half)
    h_phi = scale * (k[0] + k[1] + ev.d1 * eta)
    return ConformalShape(s_phi=s_phi, k1_phi=float(k1_phi),
                          k2_phi=float(k2_phi), h_phi=float(h_phi))
