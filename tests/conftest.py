import numpy as np
import pytest

import phimin as pm
from phimin.solvers import AxisRegular, PointStart, ShootingConfig
from phimin.surface_geometry import ROTATIONAL


@pytest.fixture(scope="session")
def spec_zero():
    return pm.PotentialSpec.constant(0.0)


@pytest.fixture(scope="session")
def spec_linear():
    return pm.PotentialSpec.linear(1.0)


@pytest.fixture(scope="session")
def spec_quadratic():
    return pm.PotentialSpec.quadratic(1.0, 1.0)


@pytest.fixture(scope="session")
def bowl(spec_linear):
    cfg = ShootingConfig(start=AxisRegular(0.0), s_max=2.0, step=1e-3)
    return pm.solve_rotational_profile(spec_linear, cfg)


@pytest.fixture(scope="session")
def bowl_field(bowl, spec_linear):
    return pm.sample_geometry(bowl.surface, spec_linear)


@pytest.fixture(scope="session")
def reaper(spec_linear):
    cfg = ShootingConfig(start=PointStart(0.0, 0.0, 0.0), s_max=1.4, step=1e-3)
    return pm.solve_translation_profile(spec_linear, cfg)


@pytest.fixture(scope="session")
def reaper_field(reaper, spec_linear):
    return pm.sample_geometry(reaper.surface, spec_linear)


@pytest.fixture(scope="session")
def catenoid(spec_zero):
    cfg = ShootingConfig(start=PointStart(1.0, 0.0, np.pi / 2), s_max=1.2, step=1e-3)
    return pm.solve_rotational_profile(spec_zero, cfg)


@pytest.fixture(scope="session")
def catenoid_field(catenoid, spec_zero):
    return pm.sample_geometry(catenoid.surface, spec_zero)


@pytest.fixture(scope="session")
def catenoid_two_sided():
    """Closed-form catenoid profile through the neck, both halves."""
    h = 1e-3
    s = np.arange(-1200, 1201) * h
    return pm.ProfileCurve(s=s, x=np.sqrt(1.0 + s**2), z=np.arcsinh(s),
                           theta=np.arctan2(1.0, s), kind="Rotational", step=h)


@pytest.fixture(scope="session")
def quad_bowl(spec_quadratic):
    cfg = ShootingConfig(start=AxisRegular(0.0), s_max=1.5, step=1e-3)
    return pm.solve_rotational_profile(spec_quadratic, cfg)


@pytest.fixture(scope="session")
def flat_disk_profile():
    """Flat horizontal disk as a rotational profile (theta = 0)."""
    h = 1.0 / 128.0
    n = int(round(1.25 / h))
    s = h * np.arange(n + 1)
    return pm.ProfileCurve(s=s, x=s.copy(), z=np.zeros(n + 1),
                           theta=np.zeros(n + 1), kind="Rotational", step=h)


@pytest.fixture(scope="session")
def vertical_plane_profile():
    """Vertical plane x = 1 as a translation-invariant profile."""
    n = 400
    h = 1e-2
    s = h * np.arange(n + 1)
    return pm.ProfileCurve(s=s, x=np.ones(n + 1), z=s.copy(),
                           theta=np.full(n + 1, np.pi / 2),
                           kind="TranslationInvariant", step=h)


def _cumulative_simpson(f, h):
    """Composite Simpson integrals of the samples f, of spacing h, from the
    first sample to each sample of even index."""
    pairs = h / 3.0 * (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2])
    return np.concatenate([[0.0], np.cumsum(pairs)])


def _first_integral_defects(spec, curve):
    """The largest change along a shot profile of each first integral of
    its equation, relative to the largest of its terms.  With w = e^phi(z):

        translation:  w cos(theta);
        rotational:   x w cos(theta) - int_0^s w, read at the samples of
                      even index, the integral by Simpson's rule, so that
                      its quadrature error is O(h^4) like RK4's;
        rotational, Constant weight: also x sin(theta), the neck radius.
    """
    w = np.exp(pm.eval_potential(spec, curve.z).phi)
    cos_t = np.cos(curve.theta)
    if curve.kind != ROTATIONAL:
        return {"translation": np.ptp(w * cos_t) / w.max()}
    even = slice(0, len(curve) - (len(curve) + 1) % 2, 2)
    flux = _cumulative_simpson(w[:even.stop], curve.step)
    moment = curve.x[even] * w[even] * cos_t[even]
    defects = {"rotational": np.ptp(moment - flux)
               / max(np.abs(curve.x * w).max(), flux[-1])}
    if spec.family == "Constant":
        defects["neck"] = np.ptp(curve.x * np.sin(curve.theta)) / curve.x.max()
    return defects


@pytest.fixture(scope="session")
def first_integral_defects():
    return _first_integral_defects
