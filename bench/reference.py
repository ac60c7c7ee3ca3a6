"""Reference solutions computed apart from phimin.

Nothing here imports phimin: the weight slopes, profile curves and
Gamma suprema are written out again from their closed forms, and the
profiles are integrated with scipy's adaptive DOP853 instead of the
program's fixed-step RK4.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp

RTOL = 1e-12
ATOL = 1e-14
S_AXIS = 1e-4  # series start off the axis; truncation error O(S_AXIS^3)


def slope(pot: dict):
    """phi'(z) of a config's potential object, as a vectorised closure."""
    fam = pot["family"]
    p = pot
    if fam == "Constant":
        return lambda z: 0.0 * np.asarray(z, dtype=float)
    if fam == "Linear":
        return lambda z: p["slope"] + 0.0 * np.asarray(z, dtype=float)
    if fam == "Quadratic":
        return lambda z: p["Lambda"] * np.asarray(z, dtype=float) + p["beta"]
    if fam == "LogPower":
        return lambda z: p["a"] / np.asarray(z, dtype=float)
    if fam == "Series":
        coeffs = list(p["coefficients"])

        def d1(z):
            z = np.asarray(z, dtype=float)
            return (p["Lambda"] * z + p["beta"]
                    + sum(c * z ** (-i) for i, c in enumerate(coeffs, start=1)))
        return d1
    raise ValueError(f"no reference slope for {fam!r}")


def gamma_sup(pot: dict, z_lo: float, z_hi: float) -> float:
    """Closed-form sup over [z_lo, z_hi] of 2 phi'' - phi'^2."""
    fam = pot["family"]
    p = pot
    if fam == "Constant":
        return 0.0
    if fam == "Linear":
        return -p["slope"] ** 2
    if fam == "Quadratic":
        lam, beta = p["Lambda"], p["beta"]
        # 2 Lambda - (Lambda z + beta)^2: largest where |Lambda z + beta| is least
        lo, hi = lam * z_lo + beta, lam * z_hi + beta
        least = 0.0 if lo * hi <= 0.0 else min(abs(lo), abs(hi))
        return 2.0 * lam - least**2
    if fam == "LogPower":
        # 2 phi'' - phi'^2 = -a (a + 2) / z^2
        k = -p["a"] * (p["a"] + 2.0)
        return max(k / z_lo**2, k / z_hi**2)
    if fam == "Series":
        coeffs = list(p["coefficients"])
        if p["Lambda"] != 0.0 or len(coeffs) != 1:
            raise ValueError("closed form covers Series with Lambda = 0 and one coefficient")
        beta, c = p["beta"], coeffs[0]
        # in w = 1/z: -(2c + c^2) w^2 - 2 beta c w - beta^2, a quadratic on an interval
        qa, qb, qc = -(2.0 * c + c * c), -2.0 * beta * c, -beta * beta
        ws = [1.0 / z_hi, 1.0 / z_lo]
        if qa < 0.0 and ws[0] <= -qb / (2.0 * qa) <= ws[1]:
            ws.append(-qb / (2.0 * qa))
        return max(qa * w * w + qb * w + qc for w in ws)
    raise ValueError(f"no closed-form Gamma for {fam!r}")


class ProfileReference:
    """Dense arclength solution of the profile balance

        x' = cos t,  z' = sin t,  t' = phi'(z) cos t - [sin t / x]

    (bracketed term for rotational profiles only)."""

    def __init__(self, pot: dict, kind: str, start: dict, s_max: float):
        d1 = slope(pot)
        rotational = kind == "rotational"

        def rhs(_s, y):
            x, z, t = y
            dt = float(d1(z)) * math.cos(t)
            if rotational:
                dt -= math.sin(t) / x
            return [math.cos(t), math.sin(t), dt]

        if start["kind"] == "axis":
            z0 = float(start["z0"])
            a = float(d1(z0))
            s0 = S_AXIS
            y0 = [s0, z0 + a * s0 * s0 / 4.0, a * s0 / 2.0]
        else:
            s0 = 0.0
            y0 = [float(start["x0"]), float(start["z0"]), float(start["theta0"])]
        self.s0 = s0
        self.rhs = rhs
        self.sol = solve_ivp(rhs, (s0, s_max), y0, method="DOP853",
                             rtol=RTOL, atol=ATOL, dense_output=True)
        if not self.sol.success:
            raise RuntimeError(f"reference profile failed: {self.sol.message}")

    def at(self, s: np.ndarray) -> np.ndarray:
        """(x, z, theta) rows at arclengths s >= s0."""
        return self.sol.sol(np.asarray(s, dtype=float))


class BowlGraphReference:
    """Height z(r) of the rotational axis-regular profile through (0, z0),
    integrated in the radius:  z' = tan t,  t' = phi'(z) - tan t / r."""

    def __init__(self, pot: dict, z0: float, r_max: float):
        d1 = slope(pot)

        def rhs(r, y):
            z, t = y
            return [math.tan(t), float(d1(z)) - math.tan(t) / r]

        a = float(d1(z0))
        r0 = S_AXIS
        self.r0, self.z0 = r0, z0
        self.sol = solve_ivp(rhs, (r0, r_max), [z0 + a * r0 * r0 / 4.0, a * r0 / 2.0],
                             method="DOP853", rtol=RTOL, atol=ATOL, dense_output=True)
        if not self.sol.success:
            raise RuntimeError(f"reference bowl failed: {self.sol.message}")

    def height(self, r: np.ndarray) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        z = self.sol.sol(np.maximum(r, self.r0).ravel())[0].reshape(r.shape)
        a = (self.sol.sol(self.r0)[0] - self.z0) / self.r0**2
        return np.where(r < self.r0, self.z0 + a * r * r, z)

