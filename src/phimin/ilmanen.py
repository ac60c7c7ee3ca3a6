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

import numpy as np

from .potential import PotentialSpec, eval_potential


def ambient_curvatures(spec: PotentialSpec, z):
    """(K_h, K_v, G_h, G_v) at height z, a scalar or an array: the
    sectional curvatures of horizontal and of vertical planes, and e^phi
    times their derivatives in z."""
    ev = eval_potential(spec, z)
    d1, d2 = ev.d1, ev.d2
    scale = np.exp(-ev.phi)
    return (-0.25 * scale * (d1 * d1), -0.5 * scale * d2,
            0.25 * (d1 * d1 * d1 - 2.0 * d1 * d2), 0.5 * (d1 * d2 - ev.d3))


def conformal_curvatures(ev, k, eta):
    """e^(-phi/2) (k + (phi'/2) eta): principal curvatures k of the
    Euclidean metric in the weighted one, for the PotentialEval ev at the
    same heights as eta; vectorised (k may carry a leading branch axis).
    The two sum to H^phi = e^(-phi/2) (H + phi' eta)."""
    return np.exp(-ev.phi / 2.0) * (k + 0.5 * ev.d1 * eta)
