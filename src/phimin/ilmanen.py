"""Conformal geometry of the ambient space with metric e^phi <.,.>.

The weight depends on height only, so the metric has exactly two
sectional curvatures, closed forms in phi and its derivatives:

    horizontal planes   K_h = -e^-phi phi'^2 / 4
    vertical planes     K_v = -e^-phi phi'' / 2

and their height gradients G = e^phi dK/dz are cubic polynomials in
(phi', phi'', phi'''):

    G_h = (phi'^3 - 2 phi' phi'') / 4,    G_v = (phi' phi'' - phi''') / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .potential import PotentialSpec, eval_potential, _derivatives, _sampled_sup


@dataclass(frozen=True)
class BoundedGeometryReport:
    """Sampled sup of e^-phi max(phi'^2, phi'') plus analytic tail verdict."""

    sup_quantity: float
    bounded: bool
    complete_hint: bool


def ambient_curvatures(spec: PotentialSpec, z):
    """(K_h, K_v, G_h, G_v) at height z, a scalar or an array: the
    sectional curvatures of horizontal and of vertical planes, and e^phi
    times their derivatives in z."""
    ev = eval_potential(spec, z)
    d1, d2 = ev.d1, ev.d2
    scale = np.exp(-ev.phi)
    return (-0.25 * scale * (d1 * d1), -0.5 * scale * d2,
            0.25 * (d1 * d1 * d1 - 2.0 * d1 * d2), 0.5 * (d1 * d2 - ev.d3))


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


def conformal_curvatures(ev, k, eta):
    """e^(-phi/2) (k + (phi'/2) eta): principal curvatures k of the
    Euclidean metric in the weighted one, for the PotentialEval ev at the
    same heights as eta; vectorised (k may carry a leading branch axis).
    The two sum to H^phi = e^(-phi/2) (H + phi' eta)."""
    return np.exp(-ev.phi / 2.0) * (k + 0.5 * ev.d1 * eta)
