"""Height-dependent weight functions and their admissibility checks.

The weight ``phi`` is a smooth function of the vertical coordinate z,
defined on an open half-line ]alpha, +inf[ and known in closed form
together with its first three derivatives.  Only a closed registry of
families is supported so that evaluation is exact to third order without
a symbolic engine; each family is one ``Family`` object in ``FAMILIES``:

    Constant(c0)              phi = c0
    Linear(slope)             phi' = slope            (soliton weight)
    Quadratic(Lambda, beta)   phi' = Lambda*z + beta
    LogPower(a)               phi' = a / z            (domes, hyperbolic)
    Series(Lambda, beta, c)   phi' = Lambda*u + beta + sum_i c_i u^-i

``phi`` is stored up to an additive constant; the ``offset`` field fixes
the representative, which matters only for normalised density audits.

The admissibility checks cover:

    c1:   phi' > 0 and phi'' >= 0 on the queried window,
    c2:   Gamma = sup(2 phi'' - phi'^2) finite,
    cc3:  the tail expansion exists with Lambda >= 0 (beta > 0 if
          Lambda = 0),
    d3:   phi''' <= 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class PotentialDomainError(ValueError):
    """Evaluation requested at a height outside ]alpha, +inf[."""


class PotentialFamilyError(ValueError):
    """Operation unsupported or ill-posed for the given family."""


@dataclass(frozen=True)
class PotentialSpec:
    """One member of the closed weight-function registry.

    ``params`` holds the family coefficients under fixed key names
    (see the factory classmethods).  ``alpha`` is the left endpoint of
    the height domain; evaluation is defined for z > alpha only.
    """

    family: str
    params: dict = field(default_factory=dict)
    alpha: float = float("-inf")
    label: str = ""
    offset: float = 0.0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise PotentialFamilyError(f"unknown family {self.family!r}")
        self.rules.validate(self)

    # -- factories ---------------------------------------------------------

    @classmethod
    def constant(cls, c0: float = 0.0, alpha: float = float("-inf"), label: str = "") -> "PotentialSpec":
        return cls("Constant", {"c0": float(c0)}, alpha=alpha, label=label)

    @classmethod
    def linear(cls, slope: float, alpha: float = float("-inf"), label: str = "") -> "PotentialSpec":
        return cls("Linear", {"slope": float(slope)}, alpha=alpha, label=label)

    @classmethod
    def quadratic(cls, lam: float, beta: float, alpha: float = float("-inf"), label: str = "") -> "PotentialSpec":
        return cls("Quadratic", {"Lambda": float(lam), "beta": float(beta)}, alpha=alpha, label=label)

    @classmethod
    def log_power(cls, a: float, alpha: float = 0.0, label: str = "") -> "PotentialSpec":
        return cls("LogPower", {"a": float(a)}, alpha=alpha, label=label)

    @classmethod
    def series(cls, lam: float, beta: float, coefficients, u0: float,
               alpha: float = 0.0, label: str = "") -> "PotentialSpec":
        return cls("Series", {"Lambda": float(lam), "beta": float(beta),
                              "coefficients": tuple(float(c) for c in coefficients),
                              "u0": float(u0)}, alpha=alpha, label=label)

    # -- family and domain -------------------------------------------------

    @property
    def rules(self) -> "Family":
        """The family's entry in FAMILIES."""
        return FAMILIES[self.family]

    @property
    def domain_left(self) -> float:
        """Left endpoint of the effective evaluation domain."""
        return self.rules.domain_left(self)

    def with_offset(self, offset: float) -> "PotentialSpec":
        return replace(self, offset=float(offset))


@dataclass(frozen=True)
class PotentialEval:
    """phi and its first three derivatives at a single height."""

    phi: float
    d1: float
    d2: float
    d3: float


class Asymptotics(NamedTuple):
    lam: float
    beta: float
    violates_constraint: bool


@dataclass(frozen=True)
class ConditionReport:
    """Admissibility summary of a weight on a height window."""

    c1_holds: bool
    gamma: float
    c2_holds: bool
    cc3_holds: bool
    d3_nonpositive: bool
    lam: float
    beta: float
    sample_count: int
    gamma_is_analytic: bool


# ---------------------------------------------------------------------------
# the families


class Family:
    """The rules of one weight family; FAMILIES holds one instance each.

    A family has ``name`` (its wire name), ``params`` (its JSON parameter
    names), ``derivatives(spec, z)`` (vectorised phi, phi', phi'', phi'''
    at an array z, no domain checks) and ``d1_scalar(spec)`` (a scalar phi'
    closure for the RK4 loop).  ``gamma``, ``c1`` and ``d3_nonpositive``
    are exact verdicts, or None where check_conditions must sample.  The
    tail verdicts are written once for phi' = Lambda z + beta + sum_i c_i z^-i,
    whose triple (Lambda, beta, c) ``tail`` returns; a family without that
    form returns None and overrides them.
    """

    default_alpha = float("-inf")

    def validate(self, spec: PotentialSpec) -> None:
        names = set(spec.params)
        missing = set(self.params) - names
        if missing:
            raise PotentialFamilyError(f"{self.name} spec missing parameters {sorted(missing)}")
        unknown = names - set(self.params)
        if unknown:
            raise PotentialFamilyError(f"{self.name} spec has unknown parameters {sorted(unknown)}")

    def domain_left(self, spec: PotentialSpec) -> float:
        return spec.alpha

    def gamma(self, spec: PotentialSpec, z_lo: float, z_hi: float):
        return None

    def c1(self, spec: PotentialSpec, z_lo: float, z_hi: float):
        return None

    def d3_nonpositive(self, spec: PotentialSpec):
        return None

    def c2_holds(self, spec: PotentialSpec) -> bool:
        """Is 2 phi'' - phi'^2 bounded above on the whole effective domain?

        The tail beyond the validity threshold decays (to -inf if
        Lambda > 0, to -beta^2 if Lambda = 0) and the compact part is
        continuous, so the answer is always True for a tail family.
        """
        return True

    def tail_bounded(self, spec: PotentialSpec) -> bool:
        """Analytic verdict: does e^-phi max(phi'^2, phi'') stay bounded?

        Checked toward +inf (where e^-phi beats any polynomial growth of
        the derivatives as long as phi increases) and toward the singular
        left end 0+ when there are inverse powers.
        """
        lam, beta, coeffs = self.tail(spec)
        if lam > 0.0:
            tail_ok = True
        elif lam == 0.0 and beta > 0.0:
            tail_ok = True
        elif lam == 0.0 and beta == 0.0:
            tail_ok = (not coeffs) or coeffs[0] >= -2.0
        else:
            tail_ok = False
        # phi ~ c1 log z near 0+, derivatives ~ z^-m terms
        if coeffs and spec.alpha <= 0.0:
            m = len(coeffs)
            left_ok = coeffs[0] + 2.0 * m <= 0.0
        else:
            left_ok = True
        return tail_ok and left_ok

    def complete_hint(self, spec: PotentialSpec) -> bool:
        """Analytic hint that phi > 0 outside a compact set."""
        lam, beta, _ = self.tail(spec)
        return lam > 0.0 or (lam == 0.0 and beta > 0.0)


class Quadratic(Family):
    """phi' = Lambda z + beta."""

    name = "Quadratic"
    params = ("Lambda", "beta")

    def derivatives(self, spec, z):
        lam, beta, _ = self.tail(spec)
        zero = np.zeros_like(z)
        return 0.5 * lam * z * z + beta * z, lam * z + beta, lam + zero, zero

    def d1_scalar(self, spec):
        lam, beta, _ = self.tail(spec)
        return lambda z: lam * z + beta

    def tail(self, spec):
        return spec.params["Lambda"], spec.params["beta"], ()

    def gamma(self, spec, z_lo, z_hi):
        lam, beta, _ = self.tail(spec)
        if lam == 0.0:
            return -beta**2
        z_star = -beta / lam
        if z_lo <= z_star <= z_hi:
            return 2.0 * lam
        edge = min((lam * z_lo + beta) ** 2, (lam * z_hi + beta) ** 2)
        return 2.0 * lam - edge

    def c1(self, spec, z_lo, z_hi):
        lam, beta, _ = self.tail(spec)
        return lam >= 0.0 and lam * z_lo + beta > 0.0

    def d3_nonpositive(self, spec):
        return True


class Linear(Quadratic):
    """phi' = slope (the soliton weight).

    Gamma and c1 are Quadratic's with Lambda = 0, which give the same
    bits; phi is not, as 0.5*0*z*z + m*z and m*z differ in the sign of 0.
    """

    name = "Linear"
    params = ("slope",)

    def derivatives(self, spec, z):
        m = spec.params["slope"]
        zero = np.zeros_like(z)
        return m * z, m + zero, zero, zero.copy()

    def d1_scalar(self, spec):
        _, m, _ = self.tail(spec)
        return lambda z: m

    def tail(self, spec):
        return 0.0, spec.params["slope"], ()


class Constant(Linear):
    """phi = c0: a Linear weight of slope 0 with its own phi."""

    name = "Constant"
    params = ("c0",)

    def derivatives(self, spec, z):
        c0 = spec.params["c0"]
        zero = np.zeros_like(z)
        return c0 + zero, zero, zero.copy(), zero.copy()

    def tail(self, spec):
        return 0.0, 0.0, ()

    def gamma(self, spec, z_lo, z_hi):
        return 0.0  # Quadratic's -beta**2 would be -0.0

    def complete_hint(self, spec):
        return spec.params["c0"] + spec.offset > 0.0


class LogPower(Family):
    """phi' = a / z on z > alpha >= 0: domes and hyperbolic weights."""

    name = "LogPower"
    params = ("a",)
    default_alpha = 0.0

    def validate(self, spec):
        super().validate(spec)
        # so the domain ]alpha, +inf[ never reaches the pole at 0
        if spec.alpha < 0.0:
            raise PotentialFamilyError("LogPower requires alpha >= 0")

    def derivatives(self, spec, z):
        a = spec.params["a"]
        return a * np.log(z), a / z, -a / z**2, 2.0 * a / z**3

    def d1_scalar(self, spec):
        a = spec.params["a"]
        return lambda z: a / z

    def tail(self, spec):
        return None

    def c1(self, spec, z_lo, z_hi):
        # phi' and phi'' have opposite signs unless a = 0
        return False

    def d3_nonpositive(self, spec):
        return spec.params["a"] <= 0.0

    def c2_holds(self, spec):
        a = spec.params["a"]
        coef = -a * (a + 2.0)  # 2 phi'' - phi'^2 = coef / z^2
        if coef <= 0.0:
            return True
        return spec.alpha > 0.0

    def tail_bounded(self, spec):
        # the quantity is max(a^2, -a) z^(-a-2) up to constants, so each
        # end reduces to the sign of the exponent
        a = spec.params["a"]
        if a == 0.0:
            return True
        bounded_at_inf = -a - 2.0 <= 0.0
        bounded_at_left = spec.alpha > 0.0 or -a - 2.0 >= 0.0
        return bounded_at_inf and bounded_at_left

    def complete_hint(self, spec):
        return spec.params["a"] > 0.0


class Series(Family):
    """phi' = Lambda u + beta + sum_i c_i u^-i, integrated/differentiated
    term by term.  ``u0`` must exceed max(alpha, 0), but no check reads it."""

    name = "Series"
    params = ("Lambda", "beta", "coefficients", "u0")
    default_alpha = 0.0

    def validate(self, spec):
        super().validate(spec)
        if not spec.params["u0"] > max(spec.alpha, 0.0):
            raise PotentialFamilyError("Series requires u0 > max(alpha, 0)")

    def domain_left(self, spec):
        if spec.params["coefficients"]:
            # inverse powers are singular at 0, regardless of alpha
            return max(spec.alpha, 0.0)
        return spec.alpha

    def derivatives(self, spec, z):
        lam, beta, coeffs = self.tail(spec)
        phi = 0.5 * lam * z * z + beta * z
        d1 = lam * z + beta
        d2 = np.full_like(z, lam)
        d3 = np.zeros_like(z)
        for i, c in enumerate(coeffs, start=1):
            d1 = d1 + c * z**(-i)
            d2 = d2 - i * c * z**(-i - 1)
            d3 = d3 + i * (i + 1) * c * z**(-i - 2)
            if i == 1:
                phi = phi + c * np.log(z)
            else:
                phi = phi - c / ((i - 1) * z**(i - 1))
        return phi, d1, d2, d3

    def d1_scalar(self, spec):
        lam, beta, coeffs = self.tail(spec)

        def d1(z):
            val = lam * z + beta
            for i, c in enumerate(coeffs, start=1):
                val += c * z ** (-i)
            return val

        return d1

    def tail(self, spec):
        p = spec.params
        return p["Lambda"], p["beta"], p["coefficients"]


FAMILIES = {f.name: f for f in (Constant(), Linear(), Quadratic(), LogPower(), Series())}


# ---------------------------------------------------------------------------
# evaluation


def _derivatives(spec: PotentialSpec, z):
    """(phi, phi', phi'', phi''') at z; vectorised, no domain checks."""
    return spec.rules.derivatives(spec, np.asarray(z, dtype=float))


def eval_potential(spec: PotentialSpec, z):
    """Evaluate phi, phi', phi'', phi''' at height z (scalar or array).

    Raises PotentialDomainError outside ]alpha, +inf[ and
    PotentialFamilyError where inverse powers or logarithms are singular.
    """
    z_arr = np.asarray(z, dtype=float)
    if np.any(z_arr <= spec.alpha):
        raise PotentialDomainError(f"height {z} not above alpha={spec.alpha}")
    if spec.domain_left > spec.alpha and np.any(z_arr <= spec.domain_left):
        raise PotentialFamilyError(
            f"{spec.family} is singular at or below z={spec.domain_left}")
    phi, d1, d2, d3 = _derivatives(spec, z_arr)
    phi = phi + spec.offset
    if np.isscalar(z) or z_arr.ndim == 0:
        return PotentialEval(float(phi), float(d1), float(d2), float(d3))
    return PotentialEval(phi, d1, d2, d3)


# ---------------------------------------------------------------------------
# condition checks


def _golden_refine(f, lo: float, hi: float, iters: int = 60) -> float:
    """Golden-section maximum of f on [lo, hi]."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
    return max(f1, f2)


def _sampled_sup(f, zs: np.ndarray) -> float:
    """Sample max plus one golden-section refinement around the best point."""
    vals = f(zs)
    k = int(np.argmax(vals))
    lo = zs[max(k - 1, 0)]
    hi = zs[min(k + 1, len(zs) - 1)]
    if hi > lo:
        return max(float(vals[k]), _golden_refine(lambda t: float(f(t)), lo, hi))
    return float(vals[k])


def asymptotics(spec: PotentialSpec) -> Asymptotics:
    """Tail coefficients (Lambda, beta) of phi' = Lambda z + beta + O(1/z).

    The flag reports violation of the admissible-tail constraint
    Lambda >= 0 with beta > 0 when Lambda = 0.
    """
    tail = spec.rules.tail(spec)
    if tail is None:
        raise PotentialFamilyError(
            f"{spec.family} has no tail expansion of the admissible form")
    lam, beta, _ = tail
    violates = (lam < 0.0) or (lam == 0.0 and not beta > 0.0)
    return Asymptotics(lam, beta, violates)


def check_conditions(spec: PotentialSpec, z_lo: float, z_hi: float,
                     n_samples: int) -> ConditionReport:
    """Check c1/c2/cc3 and phi''' <= 0 on [z_lo, z_hi].

    Suprema are analytic where the family admits a closed form
    (Constant, Linear, Quadratic) and otherwise come from n_samples
    uniform points refined by a golden-section pass around the best one.
    """
    if not (spec.domain_left < z_lo < z_hi):
        raise PotentialDomainError(
            f"need domain_left < z_lo < z_hi, got ({z_lo}, {z_hi})")
    if n_samples < 2:
        raise PotentialDomainError("n_samples must be >= 2")

    rules = spec.rules
    zs = np.linspace(z_lo, z_hi, n_samples)

    c1 = rules.c1(spec, z_lo, z_hi)
    if c1 is None:
        min_d1 = -_sampled_sup(lambda t: -_derivatives(spec, t)[1], zs)
        min_d2 = -_sampled_sup(lambda t: -_derivatives(spec, t)[2], zs)
        c1 = (min_d1 > 0.0) and (min_d2 >= -1e-14)

    gamma = rules.gamma(spec, z_lo, z_hi)
    gamma_is_analytic = gamma is not None
    if gamma is None:
        gamma = _sampled_sup(
            lambda t: 2.0 * _derivatives(spec, t)[2] - _derivatives(spec, t)[1] ** 2, zs)

    if rules.tail(spec) is None:
        lam, beta, cc3 = 0.0, 0.0, False
    else:
        lam, beta, violates = asymptotics(spec)
        cc3 = not violates

    d3_ok = rules.d3_nonpositive(spec)
    if d3_ok is None:
        max_d3 = _sampled_sup(lambda t: _derivatives(spec, t)[3], zs)
        d3_ok = max_d3 <= 1e-14

    return ConditionReport(
        c1_holds=bool(c1),
        gamma=float(gamma),
        c2_holds=bool(rules.c2_holds(spec)),
        cc3_holds=bool(cc3),
        d3_nonpositive=bool(d3_ok),
        lam=float(lam),
        beta=float(beta),
        sample_count=int(n_samples),
        gamma_is_analytic=bool(gamma_is_analytic),
    )


# ---------------------------------------------------------------------------
# normalisation for density audits


def normalized_for_window(spec: PotentialSpec, epsilon: float) -> PotentialSpec:
    """Shift the additive constant so that phi(0) = 0 and 0 <= phi(eps) < 1.

    Needed by density monotonicity audits, which evaluate phi at small
    radii.  Raises if no offset realises the window condition.
    """
    if epsilon <= 0.0:
        raise PotentialDomainError("epsilon must be positive")
    if spec.domain_left >= 0.0:
        raise PotentialDomainError(
            "normalisation window requires the domain to contain ]0, eps]")
    base0 = float(_derivatives(spec, np.asarray(0.0))[0])
    shifted = spec.with_offset(-base0)
    at_eps = eval_potential(shifted, epsilon).phi
    if not (0.0 <= at_eps < 1.0):
        raise PotentialDomainError(
            f"no offset puts phi({epsilon}) in [0, 1): got {at_eps}")
    return shifted


# ---------------------------------------------------------------------------
# JSON round-trip (field names are the CLI wire format)


def to_json_dict(spec: PotentialSpec) -> dict:
    params = dict(spec.params)
    if "coefficients" in params:
        params["coefficients"] = list(params["coefficients"])
    return {
        "family": spec.family,
        "params": params,
        "alpha": None if math.isinf(spec.alpha) else spec.alpha,
        "label": spec.label,
        "offset": spec.offset,
    }


def spec_from_json(obj: dict) -> PotentialSpec:
    """Build a spec from its JSON object form.

    Family parameters may sit under "params" or inline next to "family";
    a missing alpha means the family's ``default_alpha`` and a null one
    -inf (unbounded below), as :func:`to_json_dict` writes it.
    """
    if "family" not in obj:
        raise PotentialFamilyError("potential object missing 'family'")
    family = obj["family"]
    if family not in FAMILIES:
        raise PotentialFamilyError(f"unknown family {family!r}")
    known = {"family", "params", "alpha", "label", "offset"}
    params = dict(obj.get("params") or {})
    for key, val in obj.items():
        if key not in known:
            params[key] = val
    if "coefficients" in params:
        params["coefficients"] = tuple(float(c) for c in params["coefficients"])
    alpha = obj.get("alpha", FAMILIES[family].default_alpha)
    return PotentialSpec(
        family=family,
        params=params,
        alpha=float("-inf") if alpha is None else float(alpha),
        label=str(obj.get("label", "")),
        offset=float(obj.get("offset", 0.0)),
    )
