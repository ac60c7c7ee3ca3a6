import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import phimin as pm
from phimin.potential import (FAMILIES, PotentialDomainError,
                              PotentialFamilyError, PotentialSpec,
                              _derivatives, _sampled_sup, asymptotics,
                              check_conditions, eval_potential,
                              normalized_for_window, spec_from_json,
                              to_json_dict)


def test_linear_derivatives():
    ev = eval_potential(PotentialSpec.linear(1.0), 5.0)
    assert ev.d1 == 1.0 and ev.d2 == 0.0 and ev.d3 == 0.0


def test_quadratic_derivatives():
    ev = eval_potential(PotentialSpec.quadratic(1.0, 1.0), 2.0)
    assert ev.d1 == 3.0 and ev.d2 == 1.0 and ev.d3 == 0.0


def test_series_truncated_expansion():
    # term-wise values cross-checked by central differences below
    spec = PotentialSpec.series(0.0, 2.0, [1.0], u0=1.0)
    ev = eval_potential(spec, 4.0)
    assert ev.d1 == pytest.approx(2.25, abs=1e-15)
    assert ev.d2 == pytest.approx(-1.0 / 16.0, abs=1e-15)
    h = 1e-5
    fd2 = (eval_potential(spec, 4 + h).d1 - eval_potential(spec, 4 - h).d1) / (2 * h)
    assert fd2 == pytest.approx(ev.d2, abs=1e-9)


def test_domain_errors():
    spec = PotentialSpec.linear(1.0, alpha=0.0)
    with pytest.raises(PotentialDomainError):
        eval_potential(spec, -1.0)
    with pytest.raises(PotentialDomainError):
        eval_potential(PotentialSpec.log_power(1.0), 0.0)
    # inverse powers singular inside ]alpha, inf[ raise the family error
    with pytest.raises(PotentialFamilyError):
        eval_potential(PotentialSpec.series(0.0, 1.0, [1.0], u0=1.0, alpha=-2.0), -0.5)
    with pytest.raises(PotentialFamilyError):
        PotentialSpec.log_power(1.0, alpha=-1.0)
    with pytest.raises(PotentialFamilyError):
        PotentialSpec.series(0.0, 1.0, [1.0], u0=-1.0)


def test_check_conditions_linear():
    rep = check_conditions(PotentialSpec.linear(1.0), 0.0, 10.0, 51)
    assert rep.c1_holds and rep.c2_holds and rep.cc3_holds
    assert rep.gamma == -1.0 and rep.gamma_is_analytic
    assert rep.d3_nonpositive


def test_check_conditions_quadratic_gamma_at_left_end():
    rep = check_conditions(PotentialSpec.quadratic(1.0, 1.0), 1e-12, 10.0, 51)
    assert rep.gamma == pytest.approx(1.0, abs=1e-9)  # 2 Lambda - beta^2
    assert rep.lam == 1.0 and rep.beta == 1.0


def test_check_conditions_log_power_fails_c1():
    rep = check_conditions(PotentialSpec.log_power(1.0), 0.1, 10.0, 51)
    assert not rep.c1_holds
    assert not rep.cc3_holds


def test_bad_interval_raises():
    with pytest.raises(PotentialDomainError):
        check_conditions(PotentialSpec.linear(1.0), 5.0, 1.0, 11)
    with pytest.raises(PotentialDomainError):
        check_conditions(PotentialSpec.log_power(1.0), -2.0, 1.0, 11)


def test_asymptotics():
    assert asymptotics(PotentialSpec.linear(2.5)) == (0.0, 2.5, False)
    assert asymptotics(PotentialSpec.quadratic(2.0, 3.0)) == (2.0, 3.0, False)
    lam, beta, violates = asymptotics(PotentialSpec.constant(1.0))
    assert (lam, beta) == (0.0, 0.0) and violates
    with pytest.raises(PotentialFamilyError):
        asymptotics(PotentialSpec.log_power(1.0))


def test_normalized_for_window():
    spec = normalized_for_window(PotentialSpec.linear(1.0), 0.5)
    assert eval_potential(spec, 0.25).phi == pytest.approx(0.25)
    with pytest.raises(PotentialDomainError):
        normalized_for_window(PotentialSpec.linear(1.0), 2.0)
    with pytest.raises(PotentialDomainError):
        normalized_for_window(PotentialSpec.log_power(1.0), 0.5)


def test_json_round_trip():
    specs = [
        PotentialSpec.linear(1.5, alpha=-2.0),
        PotentialSpec.series(1.0, 0.5, [0.1, -0.2], u0=2.0),
        PotentialSpec.log_power(-2.0, alpha=0.0),
        PotentialSpec.series(1.0, 1.0, [], u0=1.0, alpha=float("-inf")),
    ]
    for spec in specs:
        assert spec_from_json(to_json_dict(spec)) == spec
    # one form: the parameters sit inline, next to the family
    assert to_json_dict(specs[1].with_offset(0.5)) == {
        "family": "Series", "Lambda": 1.0, "beta": 0.5, "coefficients": [0.1, -0.2],
        "u0": 2.0, "alpha": 0.0, "offset": 0.5}


def test_json_flat_params_accepted():
    spec = spec_from_json({"family": "Linear", "slope": 1, "alpha": -1e9})
    assert spec.params["slope"] == 1.0 and spec.alpha == -1e9
    # a missing alpha is the family's default, a null one is unbounded below
    assert spec_from_json({"family": "LogPower", "a": 1}).alpha == 0.0


# -- property tests ----------------------------------------------------------

_families = st.sampled_from(["constant", "linear", "quadratic", "log_power", "series"])


def _build(family, a, b, coeffs):
    if family == "constant":
        return PotentialSpec.constant(a)
    if family == "linear":
        return PotentialSpec.linear(a)
    if family == "quadratic":
        return PotentialSpec.quadratic(abs(a), b)
    if family == "log_power":
        return PotentialSpec.log_power(a)
    return PotentialSpec.series(abs(a), abs(b) + 0.1, coeffs, u0=0.5)


@settings(max_examples=60, deadline=None)
@given(family=_families,
       a=st.floats(-2.0, 2.0, allow_nan=False),
       b=st.floats(-2.0, 2.0, allow_nan=False),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=3),
       z=st.floats(1.0, 20.0))
def test_finite_differences_reproduce_derivatives(family, a, b, coeffs, z):
    spec = _build(family, a, b, coeffs)
    ev = eval_potential(spec, z)
    scale = 1.0 + max(abs(ev.phi), abs(ev.d1), abs(ev.d2), abs(ev.d3))
    for h in (1e-4, 5e-5):
        fd1 = (eval_potential(spec, z + h).phi - eval_potential(spec, z - h).phi) / (2 * h)
        fd2 = (eval_potential(spec, z + h).phi - 2 * ev.phi
               + eval_potential(spec, z - h).phi) / h**2
        assert abs(fd1 - ev.d1) <= 1e-6 * scale
        assert abs(fd2 - ev.d2) <= 2e-5 * scale


def test_finite_difference_order_of_first_derivative():
    spec = PotentialSpec.series(0.5, 1.0, [0.3, -0.4], u0=0.5)
    z = 2.0
    errs = []
    for h in (1e-2, 5e-3):
        fd1 = (eval_potential(spec, z + h).phi - eval_potential(spec, z - h).phi) / (2 * h)
        errs.append(abs(fd1 - eval_potential(spec, z).d1))
    order = math.log2(errs[0] / errs[1])
    assert order >= 1.9


@settings(max_examples=40, deadline=None)
@given(slope=st.floats(-2.0, 2.0), lo=st.floats(0.1, 5.0), width=st.floats(0.5, 5.0),
       extra=st.floats(0.1, 5.0))
def test_c1_failure_is_interval_monotone(slope, lo, width, extra):
    spec = PotentialSpec.quadratic(abs(slope), slope)
    small = check_conditions(spec, lo, lo + width, 31)
    if not small.c1_holds:
        big = check_conditions(spec, max(lo - extra, 1e-6), lo + width + extra, 31)
        assert not big.c1_holds


@settings(max_examples=40, deadline=None)
@given(lam=st.floats(0.0, 2.0), beta=st.floats(-1.0, 2.0),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=0, max_size=4))
def test_series_cc3_implies_c2(lam, beta, coeffs):
    spec = PotentialSpec.series(lam, beta, coeffs, u0=1.0)
    rep = check_conditions(spec, 0.5, 10.0, 51)
    if rep.cc3_holds:
        assert rep.c2_holds


def test_sampled_gamma_agrees_with_analytic():
    spec = PotentialSpec.quadratic(1.0, 0.5)
    rep = check_conditions(spec, 0.2, 5.0, 401)
    # sampled route for the same function via a Series clone with no tail
    clone = PotentialSpec.series(1.0, 0.5, [], u0=0.1)
    rep2 = check_conditions(clone, 0.2, 5.0, 401)
    assert rep2.gamma == pytest.approx(rep.gamma, abs=5e-5)
    assert rep.gamma_is_analytic and not rep2.gamma_is_analytic


# -- the family table --------------------------------------------------------
# Reference copies of the per-family dispatch that FAMILIES replaced; every
# verdict of the table must equal them bit for bit.


def _tail_bounded_ref(spec):
    p = spec.params
    if spec.family == "Constant":
        return True
    if spec.family == "Linear":
        return p["slope"] >= 0.0
    if spec.family == "Quadratic":
        lam, beta = p["Lambda"], p["beta"]
        return lam > 0.0 or (lam == 0.0 and beta >= 0.0)
    if spec.family == "Series":
        lam, beta = p["Lambda"], p["beta"]
        coeffs = p["coefficients"]
        if lam > 0.0:
            tail_ok = True
        elif lam == 0.0 and beta > 0.0:
            tail_ok = True
        elif lam == 0.0 and beta == 0.0:
            tail_ok = (not coeffs) or coeffs[0] >= -2.0
        else:
            tail_ok = False
        if coeffs and spec.alpha <= 0.0:
            m = len(coeffs)
            left_ok = coeffs[0] + 2.0 * m <= 0.0
        else:
            left_ok = True
        return tail_ok and left_ok
    a = p["a"]
    if a == 0.0:
        return True
    bounded_at_inf = -a - 2.0 <= 0.0
    bounded_at_left = spec.alpha > 0.0 or -a - 2.0 >= 0.0
    return bounded_at_inf and bounded_at_left


def _complete_hint_ref(spec):
    p = spec.params
    if spec.family == "Constant":
        return p["c0"] + spec.offset > 0.0
    if spec.family == "Linear":
        return p["slope"] > 0.0
    if spec.family in ("Quadratic", "Series"):
        lam, beta = p["Lambda"], p["beta"]
        return lam > 0.0 or (lam == 0.0 and beta > 0.0)
    return p["a"] > 0.0


def _c2_global_ref(spec):
    if spec.family in ("Constant", "Linear", "Quadratic", "Series"):
        return True
    a = spec.params["a"]
    coef = -a * (a + 2.0)
    if coef <= 0.0:
        return True
    return spec.alpha > 0.0


def _gamma_analytic_ref(spec, z_lo, z_hi):
    p = spec.params
    if spec.family == "Constant":
        return 0.0
    if spec.family == "Linear":
        return -p["slope"] ** 2
    if spec.family == "Quadratic":
        lam, beta = p["Lambda"], p["beta"]
        if lam == 0.0:
            return -beta**2
        z_star = -beta / lam
        if z_lo <= z_star <= z_hi:
            return 2.0 * lam
        edge = min((lam * z_lo + beta) ** 2, (lam * z_hi + beta) ** 2)
        return 2.0 * lam - edge
    return None


def _c1_analytic_ref(spec, z_lo, z_hi):
    p = spec.params
    if spec.family == "Constant":
        return False
    if spec.family == "Linear":
        return p["slope"] > 0.0
    if spec.family == "Quadratic":
        lam, beta = p["Lambda"], p["beta"]
        return lam >= 0.0 and lam * z_lo + beta > 0.0
    if spec.family == "LogPower":
        return False
    return None


def _d3_analytic_ref(spec):
    if spec.family in ("Constant", "Linear", "Quadratic"):
        return True
    if spec.family == "LogPower":
        return spec.params["a"] <= 0.0
    return None


def _asymptotics_ref(spec):
    p = spec.params
    if spec.family == "Constant":
        lam, beta = 0.0, 0.0
    elif spec.family == "Linear":
        lam, beta = 0.0, p["slope"]
    elif spec.family in ("Quadratic", "Series"):
        lam, beta = p["Lambda"], p["beta"]
    else:
        return None
    return lam, beta, (lam < 0.0) or (lam == 0.0 and not beta > 0.0)


def _param_values(name):
    if name == "coefficients":
        return st.lists(st.floats(-2.5, 2.5), max_size=3).map(tuple)
    if name == "u0":
        return st.floats(0.1, 4.0)
    return st.floats(-2.0, 2.0) | st.sampled_from([0.0, -0.0])


@st.composite
def _valid_specs(draw, family):
    """Any valid spec of the family, built from its JSON parameter names."""
    rules = FAMILIES[family]
    params = {name: draw(_param_values(name)) for name in rules.params}
    alpha = draw(st.sampled_from([rules.default_alpha, -math.inf, -1.0, 0.0, 0.5]))
    offset = draw(st.sampled_from([0.0, -1.5, 2.0]))
    try:
        return PotentialSpec(family, params, alpha=alpha, offset=offset)
    except PotentialFamilyError:
        assume(False)


@st.composite
def _windows(draw, spec):
    left = spec.domain_left if math.isfinite(spec.domain_left) else -2.0
    z_lo = left + draw(st.floats(0.05, 1.0))
    return z_lo, z_lo + draw(st.floats(0.1, 4.0))


# the explicit corner cases: Lambda = beta = 0, beta < 0, a negative slope,
# c_1 = -2, alpha > 0, empty coefficients
_CORNER_SPECS = [
    PotentialSpec.constant(0.0), PotentialSpec.constant(-1.0),
    PotentialSpec.linear(-1.5), PotentialSpec.linear(0.0),
    PotentialSpec.quadratic(0.0, 0.0), PotentialSpec.quadratic(0.0, -1.0),
    PotentialSpec.quadratic(1.0, -2.0, alpha=0.5),
    PotentialSpec.log_power(-2.0), PotentialSpec.log_power(1.0, alpha=0.5),
    PotentialSpec.log_power(0.0),
    PotentialSpec.series(0.0, 0.0, [-2.0], u0=1.0),
    PotentialSpec.series(0.0, 0.0, [-2.0], u0=1.0, alpha=0.5),
    PotentialSpec.series(0.0, -1.0, [1.0, -3.0], u0=1.0),
    PotentialSpec.series(1.0, 0.5, [], u0=1.0),
    PotentialSpec.series(0.0, 0.0, [], u0=1.0, alpha=-1.0),
]


def _assert_table_matches_reference(spec, z_lo, z_hi):
    rules = spec.rules
    # repr tells -0.0 from 0.0 and a bool from a float
    assert repr(rules.tail_bounded(spec)) == repr(_tail_bounded_ref(spec))
    assert repr(rules.complete_hint(spec)) == repr(_complete_hint_ref(spec))
    assert repr(rules.c2_holds(spec)) == repr(_c2_global_ref(spec))
    assert repr(rules.gamma(spec, z_lo, z_hi)) == repr(_gamma_analytic_ref(spec, z_lo, z_hi))
    assert repr(rules.c1(spec, z_lo, z_hi)) == repr(_c1_analytic_ref(spec, z_lo, z_hi))
    assert repr(rules.d3_nonpositive(spec)) == repr(_d3_analytic_ref(spec))
    ref = _asymptotics_ref(spec)
    if ref is None:
        with pytest.raises(PotentialFamilyError):
            asymptotics(spec)
    else:
        assert repr(tuple(asymptotics(spec))) == repr(ref)


@pytest.mark.parametrize("spec", _CORNER_SPECS, ids=lambda s: f"{s.family}{s.params}")
def test_table_corner_cases_match_reference(spec):
    left = spec.domain_left if math.isfinite(spec.domain_left) else -2.0
    for z_lo, z_hi in ((left + 0.1, left + 3.0), (left + 1.5, left + 1.75)):
        _assert_table_matches_reference(spec, z_lo, z_hi)


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_verdicts_match_reference(family, data):
    spec = data.draw(_valid_specs(family))
    _assert_table_matches_reference(spec, *data.draw(_windows(spec)))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_scalar_d1_matches_vectorised(family, data):
    spec = data.draw(_valid_specs(family))
    z_lo, z_hi = data.draw(_windows(spec))
    _assert_scalar_d1_matches_vectorised(spec, np.linspace(z_lo, z_hi, 9))


def _assert_scalar_d1_matches_vectorised(spec, zs):
    d1 = spec.rules.d1_scalar(spec)
    scalar = np.array([d1(float(z)) for z in zs])
    vector = _derivatives(spec, zs)[1]
    # bit patterns, so that -0.0 and 0.0 differ
    assert scalar.view(np.int64).tolist() == vector.view(np.int64).tolist()


def _heights_above_floor(spec):
    """Heights just above the domain floor (the least finite float for an
    unbounded domain), then a few well inside it."""
    floor = spec.domain_left if math.isfinite(spec.domain_left) else -math.inf
    z = np.nextafter(floor, math.inf)
    near = [z, np.nextafter(z, math.inf), z + 1e-300, z + 1e-12 * max(abs(z), 1.0)]
    inside = (0.0 if math.isinf(floor) else floor) + np.array([1e-6, 0.3, 1.0, 7.5])
    return np.concatenate([near, inside])


# the tails that d1_scalar writes out: one coefficient, and the loop over two
# and three; Lambda = beta = c_1 = -0.0, where only the 0.0 + c_n that the
# Horner sum starts from gives phi' = +0.0 (with Lambda = +0.0 the sum is
# +0.0 whatever the tail's sign, so that case alone could not tell); and a
# beta of -0.0 with no tail, where phi' takes the sign of Lambda z
_D1_SPECS = [
    PotentialSpec.linear(-0.0), PotentialSpec.quadratic(-0.0, -0.0),
    PotentialSpec.series(0.0, 1.0, [-0.2], u0=1.0),
    PotentialSpec.series(0.7, -0.3, [1.5, -0.25], u0=1.0),
    PotentialSpec.series(0.0, 2.0, [-2.0, 0.5, 1.25], u0=0.5, alpha=0.25),
    PotentialSpec.series(0.0, -0.0, [-0.0], u0=1.0),
    PotentialSpec.series(-0.0, -0.0, [-0.0], u0=1.0),
    PotentialSpec.series(-0.0, -0.0, [-0.0, -0.0], u0=1.0),
    PotentialSpec.series(-0.0, -0.0, [-0.0, -0.0, -0.0], u0=1.0),
]


@pytest.mark.parametrize("spec", _CORNER_SPECS + _D1_SPECS,
                         ids=lambda s: f"{s.family}{s.params}")
def test_scalar_d1_matches_vectorised_on_corners_and_tails(spec):
    with np.errstate(all="ignore"):
        _assert_scalar_d1_matches_vectorised(spec, _heights_above_floor(spec))


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_json_round_trip_every_family(family, data):
    spec = data.draw(_valid_specs(family))
    assert spec_from_json(json.loads(json.dumps(to_json_dict(spec)))) == spec


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_check_conditions_never_raises_on_valid_specs(family, data):
    spec = data.draw(_valid_specs(family))
    z_lo, z_hi = data.draw(_windows(spec))
    n = data.draw(st.integers(2, 60))
    with np.errstate(all="ignore"):
        rep = check_conditions(spec, z_lo, z_hi, n)
    assert rep.sample_count == n


@pytest.mark.parametrize("family", sorted(FAMILIES))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_analytic_verdicts_agree_with_sampling(family, data):
    spec = data.draw(_valid_specs(family))
    z_lo, z_hi = data.draw(_windows(spec))
    zs = np.linspace(z_lo, z_hi, 401)
    tol = 5e-5  # as in test_sampled_gamma_agrees_with_analytic
    gamma = spec.rules.gamma(spec, z_lo, z_hi)
    if gamma is not None:
        sampled = _sampled_sup(
            lambda t: 2.0 * _derivatives(spec, t)[2] - _derivatives(spec, t)[1] ** 2, zs)
        assert sampled == pytest.approx(gamma, abs=tol)
    c1 = spec.rules.c1(spec, z_lo, z_hi)
    if c1 is not None:
        min_d1 = -_sampled_sup(lambda t: -_derivatives(spec, t)[1], zs)
        min_d2 = -_sampled_sup(lambda t: -_derivatives(spec, t)[2], zs)
        # the sampled route forgives phi'' >= -1e-14; skip such near ties
        if not (-tol < min_d2 < 0.0 or 0.0 < abs(min_d1) < tol):
            assert c1 == ((min_d1 > 0.0) and (min_d2 >= -1e-14))


def test_unknown_parameter_is_rejected():
    with pytest.raises(PotentialFamilyError, match="slop"):
        spec_from_json({"family": "Linear", "slope": 1, "slop": 2})
    with pytest.raises(PotentialFamilyError, match="beta"):
        PotentialSpec("Linear", {"slope": 1.0, "beta": 2.0})
