"""
Photochemical switching at the transmitter.

While the transmitter is lit, molecules inside the illuminated volume absorb
photons and flip from state B to state A. With the molecules treated as
static during the short illumination, the number of state-B molecules obeys

    dN_B/dt = -phi * q * (1 - exp(-a * N_B)),

where q is the incident photon flux, phi the quantum yield, and
a = ln(10) * H * eps / (V_tx * N_Av) the per-molecule absorption scale
(Beer-Lambert absorption across the duct height H). The ODE has a closed
form, evaluated here through log1p/expm1 so it stays accurate in the
optically thin regime a * N_B << 1 where the naive expression cancels
catastrophically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import SystemConfig

_LN10 = math.log(10.0)

# CODATA-exact constants
_PLANCK = 6.62607015e-34      # J*s
_LIGHT_SPEED = 299792458.0    # m/s
_AVOGADRO = 6.02214076e23     # 1/mol


def photon_energy(wavelength: float) -> float:
    """Energy of one photon [J] at the given wavelength [m]."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    return _PLANCK * _LIGHT_SPEED / wavelength


def photon_flux(irradiance: float, area: float, wavelength: float) -> float:
    """Photons per second entering the illuminated volume.

    irradiance [W/m^2] times surface area [m^2] divided by photon energy.
    """
    if irradiance < 0:
        raise ValueError("irradiance must be non-negative")
    if area <= 0:
        raise ValueError("area must be positive")
    return irradiance * area / photon_energy(wavelength)


@dataclass(frozen=True)
class SwitchingModel:
    """Coefficients of the switching ODE for one transmitter setting."""

    photon_energy_j: float     # J, energy per photon at the switch-on wavelength
    flux: float                # 1/s, photon flux into the illuminated volume
    absorption_scale: float    # 1/molecule, exponent scale a in Beer-Lambert
    quantum_yield: float       # switched molecules per absorbed photon
    irradiation_time: float    # s, illumination duration per symbol

    @classmethod
    def from_config(cls, cfg: SystemConfig, irradiance: float | None = None) -> "SwitchingModel":
        """Build the model from a config; irradiance overrides the configured
        input power density when given (used for power sweeps)."""
        p_in = cfg.irradiance_on if irradiance is None else irradiance
        if p_in < 0:
            raise ValueError("irradiance must be non-negative")
        energy = photon_energy(cfg.wavelength_ba)
        flux = photon_flux(p_in, cfg.area_tx, cfg.wavelength_ba)
        # molar absorption is per mol; rescale to a single molecule
        scale = _LN10 * cfg.height * cfg.molar_absorption / (
            cfg.v_tx * _AVOGADRO
        )
        return cls(
            photon_energy_j=energy,
            flux=flux,
            absorption_scale=scale,
            quantum_yield=cfg.quantum_yield,
            irradiation_time=cfg.irradiation_time,
        )


def state_b_population(model: SwitchingModel, n_initial: float, t: float) -> float:
    """Expected state-B count after illuminating n_initial molecules for t seconds.

    Closed-form solution of the switching ODE:

        N_B(t) = log1p(exp(-k) * expm1(a * n_initial)) / a,  k = phi * a * q * t.

    Where expm1(a * n_initial) overflows, the logarithm is taken in log space:
    with x = a * n_initial and y = x - k + log1p(-exp(-x)), N_B = logaddexp(0, y) / a.
    """
    if n_initial < 0:
        raise ValueError("n_initial must be non-negative")
    if t < 0:
        raise ValueError("t must be non-negative")
    if n_initial == 0:
        return 0.0
    a = model.absorption_scale
    k = model.quantum_yield * a * model.flux * t
    if k == 0.0:
        return float(n_initial)
    x = a * n_initial
    try:
        growth = math.expm1(x)
    except OverflowError:
        y = x - k + math.log1p(-math.exp(-x))
        return (max(y, 0.0) + math.log1p(math.exp(-abs(y)))) / a
    return math.log1p(math.exp(-k) * growth) / a


def switch_probability(model: SwitchingModel, n_tx: float) -> float:
    """Probability that a molecule illuminated alongside n_tx - 1 others has
    switched to state A by the end of the irradiation window."""
    if n_tx <= 0:
        raise ValueError("n_tx must be positive")
    remaining = state_b_population(model, n_tx, model.irradiation_time)
    p = 1.0 - remaining / n_tx
    # guard against fp residue just outside [0, 1]
    return min(max(p, 0.0), 1.0)


def integrate_switching_ode(
    model: SwitchingModel, n_initial: float, t_end: float, steps: int = 2000
) -> float:
    """Integrate the switching ODE with fixed-step RK4; reference for the
    closed form, not used on any hot path."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if t_end < 0:
        raise ValueError("t_end must be non-negative")
    a = model.absorption_scale
    rate = model.quantum_yield * model.flux

    def f(n: float) -> float:
        # -phi*q*(1 - exp(-a*n)), written to stay accurate for a*n << 1
        return rate * math.expm1(-a * n)

    h = t_end / steps
    n = float(n_initial)
    for _ in range(steps):
        k1 = f(n)
        k2 = f(n + 0.5 * h * k1)
        k3 = f(n + 0.5 * h * k2)
        k4 = f(n + h * k3)
        n += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return n
