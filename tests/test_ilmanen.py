import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phimin as pm
from phimin.ilmanen import ambient_curvatures, conformal_curvatures
from phimin.potential import PotentialSpec, bounded_geometry_check, eval_potential


def test_flat_space_everything_vanishes():
    assert ambient_curvatures(PotentialSpec.constant(0.0), 1.0) == (0.0, 0.0, 0.0, 0.0)


def test_linear_weight_sectional_values():
    c = 1.3
    spec = PotentialSpec.linear(c)
    z = 0.7
    k_h, k_v, _, _ = ambient_curvatures(spec, z)
    phi = eval_potential(spec, z).phi
    assert k_h == pytest.approx(-0.25 * np.exp(-phi) * c**2, rel=1e-14)
    # with phi'' = 0 the vertical planes are flat
    assert k_v == 0.0


def test_quadratic_weight_vertical_sectional():
    spec = PotentialSpec.quadratic(1.0, 0.0)
    k_v = ambient_curvatures(spec, 1.0)[1]
    assert k_v == pytest.approx(-0.5 * np.exp(-0.5), rel=1e-14)


def _fd_sectional(spec, z, h):
    """Coordinate finite-difference sectional curvature of the metric
    e^phi(z) I on a 5-point vertical stencil; independent of the frame
    formulas.  Only d/dz derivatives are nonzero for this metric."""
    w = np.array([np.exp(eval_potential(spec, z + k * h).phi) for k in (-2, -1, 0, 1, 2)])
    wp = (w[0] - 8 * w[1] + 8 * w[3] - w[4]) / (12 * h)
    wpp = (-w[0] + 16 * w[1] - 30 * w[2] + 16 * w[3] - w[4]) / (12 * h**2)
    wc = w[2]
    g = wc
    # Christoffels of g_ij = w(z) delta_ij; a = w'/(2w)
    a = wp / (2 * wc)
    ap = (wpp * wc - wp**2 / 2.0) / (2 * wc**2) - 0.0  # d/dz of a, see below
    ap = wpp / (2 * wc) - wp**2 / (2 * wc**2)
    # R_{1313} = -w ( a' )  ... derive from R(X,Y)Y with X=d1, Y=d3:
    # nabla_{d3} d3 = a d3, nabla_{d1} d3 = a d1, nabla_{d1} d1 = -a d3
    # R(d1,d3)d3 = nabla_1 nabla_3 d3 - nabla_3 nabla_1 d3
    #            = nabla_1 (a d3) - nabla_3 (a d1) = a^2 d1 - (a' + a^2) d1
    r1313 = -g * ap  # <R(d1,d3)d3, d1> = -a' w
    k13 = r1313 / (g * g)
    # R(d1,d2)d2: nabla_2 d2 = -a d3, nabla_1 d2 = 0
    # R(d1,d2)d2 = nabla_1 (-a d3) - 0 = -a nabla_1 d3 = -a^2 d1
    r1212 = -g * a**2
    k12 = r1212 / (g * g)
    return k12, k13


def test_fd_sectional_oracle_on_hyperbolic_space():
    # weight z^-2: the upper half-space model, constant curvature -1
    spec = PotentialSpec.log_power(-2.0)
    k12, k13 = _fd_sectional(spec, 1.7, 1e-4)
    assert k12 == pytest.approx(-1.0, abs=1e-7)
    assert k13 == pytest.approx(-1.0, abs=1e-7)
    k_h, k_v, _, _ = ambient_curvatures(spec, 1.7)
    assert k_h == pytest.approx(-1.0, rel=1e-14)
    assert k_v == pytest.approx(-1.0, rel=1e-14)


@pytest.mark.parametrize("spec,z", [
    (PotentialSpec.linear(1.0), 0.6),
    (PotentialSpec.quadratic(1.0, 1.0), 0.9),
    (PotentialSpec.quadratic(0.5, 0.0), 1.4),
])
def test_sectional_matches_finite_differences_at_order_2(spec, z):
    k_h, k_v, _, _ = ambient_curvatures(spec, z)
    errs = []
    for h in (1e-2, 5e-3):
        k12, k13 = _fd_sectional(spec, z, h)
        errs.append(max(abs(k12 - k_h), abs(k13 - k_v)))
    assert errs[1] <= errs[0] / 3.0 or errs[1] < 1e-12


def test_sectional_horizontal_value_from_eval():
    spec = PotentialSpec.quadratic(2.0, 0.3)
    z = 1.1
    ev = eval_potential(spec, z)
    assert ambient_curvatures(spec, z)[0] == -0.25 * np.exp(-ev.phi) * (ev.d1 * ev.d1)


def test_bounded_geometry_linear():
    rep = bounded_geometry_check(PotentialSpec.linear(1.0), 0.0, 50.0, 201)
    assert rep.bounded
    assert rep.sup_quantity == pytest.approx(1.0, rel=1e-9)  # attained at z = 0
    assert rep.complete_hint


def test_bounded_geometry_flat():
    rep = bounded_geometry_check(PotentialSpec.constant(0.0), 0.0, 50.0, 51)
    assert rep.sup_quantity == 0.0 and rep.bounded


def test_bounded_geometry_log_power():
    # a = -2 (hyperbolic type): quantity is the constant max(a^2, -a) = 4
    rep = bounded_geometry_check(PotentialSpec.log_power(-2.0), 0.1, 10.0, 201)
    assert rep.bounded
    assert rep.sup_quantity == pytest.approx(4.0, rel=1e-9)
    # a = 1 (dome type): z^-3 blow-up toward the singular left end
    rep2 = bounded_geometry_check(PotentialSpec.log_power(1.0), 0.1, 10.0, 201)
    assert not rep2.bounded
    assert rep2.sup_quantity == pytest.approx(1e3, rel=1e-6)


def test_bounded_geometry_window_of_a_few_ulps_is_the_sample_max(monkeypatch):
    # the window [1, 1 + 4e-16] holds three doubles, so its 101 samples
    # repeat, the best one's neighbours coincide and nothing is refined
    from phimin.potential import _bounded_quantity

    def no_refine(*args, **kw):
        raise AssertionError("a window without a bracket is not refined")

    monkeypatch.setattr(pm.potential, "_golden_refine", no_refine)
    spec = PotentialSpec.log_power(1.0)
    zs = np.linspace(1.0, 1.0 + 4e-16, 101)
    rep = bounded_geometry_check(spec, 1.0, 1.0 + 4e-16, 101)
    assert rep.sup_quantity == float(_bounded_quantity(spec, zs).max())


def test_ilmanen_shape_of_minimal_input():
    spec = PotentialSpec.linear(1.0)
    k = np.array([-0.3, -0.7])  # H = -1 = -phi' eta with eta = 1
    kc = conformal_curvatures(eval_potential(spec, 0.0), k, 1.0)
    assert kc.sum() == pytest.approx(0.0, abs=1e-15)


def test_ilmanen_shape_identity_weight():
    k = np.linalg.eigvalsh(np.array([[0.2, 0.1], [0.1, -0.4]]))
    kc = conformal_curvatures(eval_potential(PotentialSpec.constant(0.0), 1.0), k, 0.3)
    assert kc == pytest.approx(k)


def test_ilmanen_shape_worked_example():
    kc = conformal_curvatures(eval_potential(PotentialSpec.linear(1.0), 0.0),
                              np.array([-1.0, 0.0]), 1.0)
    assert kc == pytest.approx([-0.5, 0.5])
    assert kc.sum() == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(z=st.floats(0.2, 3.0), a=st.floats(-1, 1), b=st.floats(-1, 1),
       c=st.floats(-1, 1), eta=st.floats(-1, 1))
def test_trace_identity(z, a, b, c, eta):
    spec = PotentialSpec.quadratic(0.7, 0.2)
    ev = eval_potential(spec, z)
    kc = conformal_curvatures(ev, np.linalg.eigvalsh(np.array([[a, c], [c, b]])), eta)
    assert kc.sum() == pytest.approx(
        np.exp(-ev.phi / 2.0) * (a + b + ev.d1 * eta), rel=1e-12, abs=1e-12)


def test_conformal_mean_curvature_of_the_bowl(bowl_field, spec_linear):
    # H + phi' eta = 0 makes H^phi = k1^phi + k2^phi vanish up to the
    # O(h^2) error of the sampled curvatures
    kc = conformal_curvatures(bowl_field.potential(spec_linear),
                              np.stack([bowl_field.k1, bowl_field.k2]),
                              bowl_field.eta)
    assert np.abs(kc).max() > 0.04
    assert np.abs(kc.sum(axis=0)).max() <= bowl_field.grid_h**2


# -- the four closed forms over all families ------------------------------------

_FRAME_SPECS = [
    PotentialSpec.constant(0.3), PotentialSpec.linear(1.3),
    PotentialSpec.quadratic(0.7, -0.4), PotentialSpec.log_power(-1.5),
    PotentialSpec.log_power(2.2), PotentialSpec.series(0.5, 1.0, [-0.2, 0.3], u0=1.0),
]


@pytest.mark.parametrize("spec", _FRAME_SPECS, ids=lambda s: s.family)
def test_frame_arrays_over_heights_match_scalar_calls(spec):
    zs = np.linspace(0.05, 6.0, 65)
    arrays = ambient_curvatures(spec, zs)
    for k, z in enumerate(zs):
        scalar = ambient_curvatures(spec, z)
        assert [a[k].hex() for a in arrays] == [float(b).hex() for b in scalar]


@pytest.mark.parametrize("spec", _FRAME_SPECS, ids=lambda s: s.family)
def test_gradients_are_e_phi_times_the_height_derivatives(spec):
    # central differences of K_h and K_v: O(h^2) truncation, O(eps/h) rounding
    h = 1e-5
    for z in (0.3, 1.1, 2.7):
        below, above = ambient_curvatures(spec, z - h), ambient_curvatures(spec, z + h)
        e_phi = np.exp(eval_potential(spec, z).phi)
        for k, g in zip((0, 1), ambient_curvatures(spec, z)[2:]):
            fd = e_phi * (above[k] - below[k]) / (2.0 * h)
            assert fd == pytest.approx(g, rel=1e-6, abs=1e-8)
