import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phimin as pm
from phimin.ilmanen import (bounded_geometry_check, frame_quantities,
                            to_ilmanen_shape)
from phimin.potential import PotentialSpec, eval_potential


def test_flat_space_everything_vanishes():
    fq = frame_quantities(PotentialSpec.constant(0.0), 1.0)
    assert np.all(fq.connection == 0.0)
    assert np.all(fq.sectional == 0.0)
    assert np.all(fq.curvature_gradient_e3 == 0.0)


def test_linear_weight_sectional_values():
    c = 1.3
    spec = PotentialSpec.linear(c)
    z = 0.7
    fq = frame_quantities(spec, z)
    phi = eval_potential(spec, z).phi
    assert fq.sectional[0, 1] == pytest.approx(-0.25 * np.exp(-phi) * c**2, rel=1e-14)
    # with phi'' = 0 the mixed vertical planes keep the same value
    assert fq.sectional[2, 1] == pytest.approx(-0.5 * np.exp(-phi) * 0.0
                                               - 0.25 * np.exp(-phi) * c**2 * 0.0
                                               + 0.25 * np.exp(-phi) * (c**2 - 0.0 - c**2),
                                               abs=1e-14)


def test_quadratic_weight_vertical_sectional():
    spec = PotentialSpec.quadratic(1.0, 0.0)
    fq = frame_quantities(spec, 1.0)
    assert fq.sectional[2, 1] == pytest.approx(-0.5 * np.exp(-0.5), rel=1e-14)


@settings(max_examples=40, deadline=None)
@given(slope=st.floats(-2, 2), z=st.floats(0.5, 5.0), lam=st.floats(0, 2))
def test_connection_antisymmetry_and_sectional_symmetry(slope, z, lam):
    spec = PotentialSpec.quadratic(lam, slope)
    fq = frame_quantities(spec, z)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                assert fq.connection[i, j, k] == -fq.connection[i, k, j]
    assert np.allclose(fq.sectional, fq.sectional.T, atol=0.0)


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


@pytest.mark.parametrize("spec,z", [
    (PotentialSpec.linear(1.0), 0.6),
    (PotentialSpec.quadratic(1.0, 1.0), 0.9),
    (PotentialSpec.quadratic(0.5, 0.0), 1.4),
])
def test_sectional_matches_finite_differences_at_order_2(spec, z):
    fq = frame_quantities(spec, z)
    errs = []
    for h in (1e-2, 5e-3):
        k12, k13 = _fd_sectional(spec, z, h)
        errs.append(max(abs(k12 - fq.sectional[0, 1]), abs(k13 - fq.sectional[0, 2])))
    assert errs[1] <= errs[0] / 3.0 or errs[1] < 1e-12


def test_sectional_horizontal_value_from_eval():
    spec = PotentialSpec.quadratic(2.0, 0.3)
    z = 1.1
    ev = eval_potential(spec, z)
    fq = frame_quantities(spec, z)
    assert fq.sectional[0, 1] == -0.25 * np.exp(-ev.phi) * ev.d1**2


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


def test_ilmanen_shape_of_minimal_input():
    spec = PotentialSpec.linear(1.0)
    s = np.diag([-0.3, -0.7])  # H = -1 = -phi' eta with eta = 1
    shape = to_ilmanen_shape(spec, 0.0, s, 1.0)
    assert shape.h_phi == pytest.approx(0.0, abs=1e-15)


def test_ilmanen_shape_identity_weight():
    spec = PotentialSpec.constant(0.0)
    s = np.array([[0.2, 0.1], [0.1, -0.4]])
    shape = to_ilmanen_shape(spec, 1.0, s, 0.3)
    assert np.allclose(shape.s_phi, s + 0.5 * 0.0 * np.eye(2))
    k = np.linalg.eigvalsh(s)
    assert shape.k1_phi == pytest.approx(k[0]) and shape.k2_phi == pytest.approx(k[1])


def test_ilmanen_shape_worked_example():
    shape = to_ilmanen_shape(PotentialSpec.linear(1.0), 0.0, np.diag([-1.0, 0.0]), 1.0)
    assert shape.k1_phi == pytest.approx(-0.5)
    assert shape.k2_phi == pytest.approx(0.5)
    assert shape.h_phi == pytest.approx(0.0, abs=1e-15)


@settings(max_examples=40, deadline=None)
@given(z=st.floats(0.2, 3.0), a=st.floats(-1, 1), b=st.floats(-1, 1),
       c=st.floats(-1, 1), eta=st.floats(-1, 1))
def test_trace_identity(z, a, b, c, eta):
    spec = PotentialSpec.quadratic(0.7, 0.2)
    s = np.array([[a, c], [c, b]])
    shape = to_ilmanen_shape(spec, z, s, eta)
    assert shape.h_phi == pytest.approx(shape.k1_phi + shape.k2_phi,
                                        rel=1e-12, abs=1e-12)
    ev = eval_potential(spec, z)
    assert shape.h_phi == pytest.approx(
        np.exp(-ev.phi / 2.0) * (a + b + ev.d1 * eta), rel=1e-12, abs=1e-12)


def test_eta_out_of_range_rejected():
    with pytest.raises(ValueError):
        to_ilmanen_shape(PotentialSpec.linear(1.0), 0.0, np.eye(2), 1.5)


# -- closed forms against the index loops they replace ------------------------

def _frame_quantities_loops(spec, z):
    """The per-index loops that frame_quantities broadcasts."""
    ev = eval_potential(spec, z)
    phi, d1, d2, d3 = ev.phi, ev.d1, ev.d2, ev.d3
    half_root = 0.5 * np.exp(-phi / 2.0) * d1
    connection = np.zeros((3, 3, 3))
    for i in range(3):
        for j in range(3):
            for k in range(3):
                connection[i, j, k] = half_root * (
                    (j == 2) * (i == k) - (i == j) * (k == 2))
    sectional = np.zeros((3, 3))
    gradient = np.zeros((3, 3))
    factor = 0.25 * np.exp(-phi)
    base = d1**3 - 2.0 * d1 * d2
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            vertical = float((i == 2) + (j == 2))
            sectional[i, j] = factor * ((d1**2 - 2.0 * d2) * vertical - d1**2)
            gradient[i, j] = 0.25 * (base + vertical * (-d1**3 + 4.0 * d1 * d2 - 2.0 * d3))
    return connection, sectional, gradient


_FRAME_SPECS = [
    PotentialSpec.constant(0.3), PotentialSpec.linear(1.3),
    PotentialSpec.quadratic(0.7, -0.4), PotentialSpec.log_power(-1.5),
    PotentialSpec.log_power(2.2), PotentialSpec.series(0.5, 1.0, [-0.2, 0.3], u0=1.0),
]


@pytest.mark.parametrize("spec", _FRAME_SPECS, ids=lambda s: s.family)
def test_frame_quantities_match_the_loops_bit_for_bit(spec):
    for z in np.linspace(0.05, 6.0, 237):
        fq = frame_quantities(spec, z)
        want = _frame_quantities_loops(spec, z)
        got = (fq.connection, fq.sectional, fq.curvature_gradient_e3)
        for a, b in zip(got, want):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", _FRAME_SPECS, ids=lambda s: s.family)
def test_frame_arrays_over_heights_match_scalar_calls(spec):
    from phimin.ilmanen import _frame_arrays

    zs = np.linspace(0.05, 6.0, 65)
    arrays = _frame_arrays(eval_potential(spec, zs))
    for k, z in enumerate(zs):
        fq = frame_quantities(spec, z)
        scalar = (fq.connection, fq.sectional, fq.curvature_gradient_e3)
        for a, b in zip(arrays, scalar):
            # numpy's and Python's powers may round d1**2, d1**3 one ulp apart
            assert np.allclose(a[k], b, rtol=8 * np.finfo(float).eps, atol=0.0)


def test_conformal_curvatures_match_to_ilmanen_shape():
    from phimin.ilmanen import conformal_curvatures

    spec = PotentialSpec.quadratic(0.7, 0.2)
    s = np.array([[0.3, -0.2], [-0.2, -0.9]])
    shape = to_ilmanen_shape(spec, 1.4, s, 0.6)
    k = conformal_curvatures(eval_potential(spec, 1.4), np.linalg.eigvalsh(s), 0.6)
    assert (shape.k1_phi, shape.k2_phi) == (k[0], k[1])
