"""
Photochemical switching at the transmitter.

While the transmitter is lit, molecules inside the illuminated volume absorb
photons and flip from state B to state A. With the molecules treated as
static during the short illumination, the number of state-B molecules obeys

    dN_B/dt = -phi * q * (1 - exp(-a * N_B)),

where q is the incident photon flux, phi the quantum yield, and
a = ln(10) * H * eps / (V_tx * N_Av) the per-molecule absorption scale
(Beer-Lambert absorption across the duct height H). The ODE has a closed
form in a * N_B and the dose k = phi * a * q * t, evaluated here through
log1p/expm1 so it stays accurate in the optically thin regime a * N_B << 1
where the naive expression cancels catastrophically. The duct geometry
cancels from the dose (a * q is proportional to H * A_tx / V_tx = 1), so
k = phi * ln(10) * eps * P * t * lambda / (h * c * N_Av) is formed once from
the config keys, and a = ln(10) * eps / (N_Av * A_tx), as products that leave
the float range only where their value does.

Flux, population and switch probability take scalars, returning a float, or
broadcasting arrays of irradiance and molecule count, returning an array
whose elements equal the scalar calls exactly (the same numpy ufuncs).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import SystemConfig

_LN10 = math.log(10.0)

# CODATA-exact constants
_PLANCK = 6.62607015e-34      # J*s
_LIGHT_SPEED = 299792458.0    # m/s
_AVOGADRO = 6.02214076e23     # 1/mol


def _product(*factors, over=()):
    """prod(factors) / prod(over), rounded as if taken left to right, yet inf or 0
    only where the result is: the frexp mantissas multiply, the exponents add."""
    mantissa, exponent = 1.0, 0
    for f in factors:
        m, e = np.frexp(f)
        mantissa, exponent = mantissa * m, exponent + e
    for d in over:
        m, e = np.frexp(d)
        mantissa, exponent = mantissa / m, exponent - e
    with np.errstate(over="ignore", under="ignore"):
        r = np.ldexp(mantissa, exponent)
    return float(r) if r.ndim == 0 else r


def photon_flux(irradiance, area: float, wavelength: float) -> float | np.ndarray:
    """Photons per second entering the illuminated volume.

    irradiance [W/m^2] times surface area [m^2] divided by photon energy.
    """
    p = np.asarray(irradiance, dtype=float)
    if not np.all(p >= 0):
        raise ValueError("irradiance must be non-negative")
    if not (area > 0 and wavelength > 0):
        raise ValueError("area and wavelength must be positive")
    return _product(p, area, wavelength, over=(_PLANCK, _LIGHT_SPEED))


@dataclass(frozen=True)
class SwitchingModel:
    """Coefficients of the switching ODE for one transmitter setting."""

    dose: float | np.ndarray   # k = phi * a * q * t over the irradiation window
    absorption_scale: float    # 1/molecule, exponent scale a in Beer-Lambert
    irradiation_time: float    # s, illumination duration per symbol

    @classmethod
    def from_config(cls, cfg: SystemConfig, irradiance=None) -> "SwitchingModel":
        """Build the model from a config; irradiance overrides the configured
        input power density when given, as one power or a sweep's grid."""
        p = np.asarray(cfg.irradiance_on if irradiance is None else irradiance, dtype=float)
        if not np.all(p >= 0):
            raise ValueError("irradiance must be non-negative")
        dose = _product(cfg.quantum_yield, _LN10, cfg.molar_absorption, p, cfg.irradiation_time,
                        cfg.wavelength_ba, over=(_PLANCK, _LIGHT_SPEED, _AVOGADRO))
        # molar absorption is per mol; rescale to a single molecule
        scale = _product(_LN10, cfg.molar_absorption, over=(_AVOGADRO, cfg.area_tx))
        return cls(dose=dose, absorption_scale=scale, irradiation_time=cfg.irradiation_time)


def state_b_population(model: SwitchingModel, n_initial, t: float) -> float | np.ndarray:
    """Expected state-B count after illuminating n_initial molecules for t seconds.

    Closed-form solution of the switching ODE:

        N_B(t) = log1p(exp(-k) * expm1(a * n_initial)) / a,  k = dose * t / t_irr.

    Where expm1(a * n_initial) overflows, the logarithm is taken in log space:
    with x = a * n_initial and y = x - k + log1p(-exp(-x)), N_B = logaddexp(0, y) / a.
    """
    n = np.asarray(n_initial, dtype=float)
    if not np.all(n >= 0):
        raise ValueError("n_initial must be non-negative")
    if not t >= 0:
        raise ValueError("t must be non-negative")
    a = model.absorption_scale
    # both branches run on every element; their inf and nan are never selected
    with np.errstate(all="ignore"):
        k = model.dose * (t / model.irradiation_time)   # the dose itself at t = t_irr
        x = a * n
        growth = np.expm1(x)
        thin = np.log1p(np.exp(-k) * growth) / a   # exactly 0 where n == 0
        dense = np.logaddexp(0.0, x - k + np.log1p(-np.exp(-x))) / a
        # no light, or a * n below the normal range: N_B = n * exp(-k), n itself at k == 0
        n_b = np.where((k == 0.0) | (x < np.finfo(float).tiny), n * np.exp(-k),
                       np.where(np.isinf(growth), dense, thin))
    return float(n_b) if n_b.ndim == 0 else n_b


def switch_probability(model: SwitchingModel, n_tx) -> float | np.ndarray:
    """Probability that a molecule illuminated alongside n_tx - 1 others has
    switched to state A by the end of the irradiation window.

    The switched count N_A = n_tx - N_B is computed directly, since
    1 - N_B / n_tx cancels when few molecules switch. With x = a * n_tx and
    the dose k = phi * a * q * t,

        a * N_A = -log1p(-expm1(-k) * expm1(-x))

    while the product is below 1/2, else -log(exp(-x) + exp(-k) * -expm1(-x))
    in log space, -logaddexp(-x, -k + log1p(-exp(-x))), which holds where both
    exponentials underflow; p = a * N_A / x, which tends to -expm1(-k) as
    x -> 0. Raises ValueError where p is lost: a NaN, where the dose and x
    both overflow.
    """
    n = np.asarray(n_tx, dtype=float)
    if not np.all(n > 0):
        raise ValueError("n_tx must be positive")
    a, k = model.absorption_scale, model.dose
    # every branch runs on every element; their inf and nan are never selected
    with np.errstate(all="ignore"):
        x = a * n   # inf past the float range, where p -> 0
        lit_k, lit_x = -np.expm1(-k), -np.expm1(-x)
        both = lit_k * lit_x
        thin = -np.log1p(-both)
        log_space = -np.logaddexp(-x, -k + np.log1p(-np.exp(-x)))
        switched = np.where(both < 0.5, thin, log_space)
        # a tiny product is a * N_A to the last bit: divide by x before it underflows
        tiny = lit_k * np.where(x > 0.0, lit_x / x, 1.0)
        p = np.where(both < 1e-300, tiny, switched / x)
    if np.any(np.isnan(p)):
        raise ValueError("p_switch must be in [0, 1]")
    # guard against fp residue just outside [0, 1]
    p = np.clip(p, 0.0, 1.0)
    return float(p) if p.ndim == 0 else p


def integrate_switching_ode(
    model: SwitchingModel, n_initial: float, t_end: float, steps: int = 2000
) -> float:
    """Integrate the switching ODE with fixed-step RK4; reference for the
    closed form, not used on any hot path. The slope's magnitude is at most
    dose / irradiation_time; ValueError is raised where that times the step
    exceeds RK4's stability limit on the negative real axis (2.785)."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    a, tiny = model.absorption_scale, np.finfo(float).tiny
    rate = model.dose / model.irradiation_time   # phi * a * q
    h = t_end / steps
    if not rate * h <= 2.785:   # nan where an infinite rate meets t_end = 0
        raise ValueError("dose per step past RK4's stability limit: take more steps")

    def f(n: float) -> float:
        # -phi*q*(1 - exp(-a*n)), written to stay accurate for a*n << 1; where
        # a*n is below the normal range, its limit -phi*a*q*n
        x = a * n
        return rate * (math.expm1(-x) / a) if abs(x) >= tiny else -rate * n

    n = float(n_initial)
    for _ in range(steps):
        k1 = f(n)
        k2 = f(n + 0.5 * h * k1)
        k3 = f(n + 0.5 * h * k2)
        k4 = f(n + h * k3)
        n += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return n
