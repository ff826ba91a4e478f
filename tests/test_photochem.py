import math
import warnings

import mpmath
import numpy as np
import pytest

from mediamod import (
    SwitchingModel,
    integrate_switching_ode,
    load_config,
    photon_flux,
    state_b_population,
    switch_probability,
)

# frozen reference values, computed from first principles with exact
# CODATA constants and cross-checked in extended precision
E_365NM = 5.44231741684638e-19
E_529NM = 3.755096138277748e-19
FLUX_1E3 = 9.187262735765443e+16
ABSORPTION_SCALE = 6.347063953998507e-16
P_SWITCH_1E3 = 0.11267139330508624   # at n_tx = 100
P_SWITCH_1E4 = 0.6974167869855867
B_FRACTION_1E3 = 0.8873286066949195  # N_B(T)/n at P=1e3, n=100


def test_photon_energy_reference_values():
    # one watt on one square metre carries 1 / E photons per second
    assert photon_flux(1.0, 1.0, 365e-9) == pytest.approx(1 / E_365NM, rel=1e-12)
    assert photon_flux(1.0, 1.0, 529e-9) == pytest.approx(1 / E_529NM, rel=1e-12)


def test_photon_energy_inverse_proportionality():
    # twice the wavelength, half the photon energy, twice the photons
    assert photon_flux(1.0, 1.0, 730e-9) == pytest.approx(
        2 * photon_flux(1.0, 1.0, 365e-9), rel=1e-14)


def test_photon_flux_reference_value():
    assert photon_flux(1e3, 5e-5, 365e-9) == pytest.approx(FLUX_1E3, rel=1e-12)
    # the photon energy underflows to 0 at this wavelength; the flux is finite
    far = FLUX_1E3 * 1e-33 / 365e-9 * 1e305
    assert photon_flux(1e-30, 5e-5, 1e305) == pytest.approx(far, rel=1e-12)


def test_photon_flux_zero_iff_dark():
    assert photon_flux(0.0, 5e-5, 365e-9) == 0.0
    assert photon_flux(1e-30, 5e-5, 365e-9) > 0.0


def test_photon_flux_linear_in_irradiance():
    one = photon_flux(1e3, 5e-5, 365e-9)
    assert photon_flux(2e3, 5e-5, 365e-9) == pytest.approx(2 * one, rel=1e-14)


def test_photon_flux_rejects_bad_inputs():
    with pytest.raises(ValueError):
        photon_flux(-1.0, 5e-5, 365e-9)
    with pytest.raises(ValueError):
        photon_flux(1e3, 0.0, 365e-9)
    with pytest.raises(ValueError):
        photon_flux(np.array([1e3, math.nan]), 5e-5, 365e-9)
    with pytest.raises(ValueError):
        photon_flux(1e3, math.nan, 365e-9)
    for wavelength in (0.0, -365e-9):
        with pytest.raises(ValueError):
            photon_flux(1e3, 5e-5, wavelength)


def test_model_from_config(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    flux = photon_flux(default_cfg.irradiance_on, default_cfg.area_tx, default_cfg.wavelength_ba)
    assert flux == pytest.approx(FLUX_1E3, rel=1e-12)
    assert model.absorption_scale == pytest.approx(ABSORPTION_SCALE, rel=1e-12)
    # the dose k = phi * a * q * t, formed without the geometry that cancels
    assert model.dose == pytest.approx(0.41 * ABSORPTION_SCALE * FLUX_1E3 * 5e-3, rel=1e-12)
    assert model.irradiation_time == 5e-3


def test_model_irradiance_override(default_cfg):
    model = SwitchingModel.from_config(default_cfg, irradiance=2e3)
    one = SwitchingModel.from_config(default_cfg, irradiance=1e3)
    assert model.dose == pytest.approx(2 * one.dose, rel=1e-12)
    with pytest.raises(ValueError):
        SwitchingModel.from_config(default_cfg, irradiance=-1.0)
    # a power grid gives one model whose dose is the per-power dose exactly
    grid = np.array([0.0, 1e-3, 1e3, 2e3, 1e9])
    sweep = SwitchingModel.from_config(default_cfg, irradiance=grid)
    assert sweep.dose.tolist() == [
        SwitchingModel.from_config(default_cfg, irradiance=p).dose for p in grid.tolist()
    ]
    with pytest.raises(ValueError):
        SwitchingModel.from_config(default_cfg, irradiance=np.array([1e3, -1.0, 1e4]))


def test_population_initial_condition(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    assert state_b_population(model, 100.0, 0.0) == pytest.approx(100.0, rel=1e-15)


def test_population_dark_transmitter(default_cfg):
    dark = SwitchingModel.from_config(default_cfg, irradiance=0.0)
    for t in (0.0, 1e-3, 5e-3, 1.0):
        assert state_b_population(dark, 100.0, t) == 100.0


def test_population_reference_fraction(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    n_b = state_b_population(model, 100.0, 5e-3)
    assert n_b / 100.0 == pytest.approx(B_FRACTION_1E3, rel=1e-12)


def test_population_monotone_nonincreasing(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    values = [state_b_population(model, 100.0, t) for t in (0.0, 1e-3, 3e-3, 5e-3, 1e-2)]
    assert all(b <= a for a, b in zip(values, values[1:]))
    assert all(0.0 <= v <= 100.0 for v in values)


def test_population_extreme_scales(default_cfg):
    # neither overflow at a*n ~ 50 nor underflow at a*n ~ 1e-20
    model = SwitchingModel.from_config(default_cfg)
    a = model.absorption_scale
    big = state_b_population(model, 50.0 / a, 5e-3)
    assert math.isfinite(big) and 0 < big <= 50.0 / a
    small = state_b_population(model, 1e-20 / a, 5e-3)
    assert math.isfinite(small) and 0 < small < 1e-20 / a
    # an absorption scale below the float range leaves the thin limit n * exp(-k)
    faint = SwitchingModel(dose=0.25, absorption_scale=0.0, irradiation_time=1.0)
    assert state_b_population(faint, 100.0, 1.0) == 100.0 * math.exp(-0.25)
    # so does a subnormal a * n (width = 1e300, the dose unchanged), to the
    # digits of the default width
    wide = SwitchingModel.from_config(load_config("width = 1e300"))
    t = model.irradiation_time
    want = state_b_population(model, 100.0, t)
    assert state_b_population(wide, 100.0, t) == pytest.approx(want, rel=1e-12)


def test_population_matches_extended_precision(default_cfg):
    # the closed form must hold up where the naive expression
    # log(1 - exp(-k)*(1 - exp(n*a)))/a loses every significant digit
    model = SwitchingModel.from_config(default_cfg)
    a = model.absorption_scale
    mpmath.mp.dps = 60
    for an in (1e-20, 1e-12, 1e-8, 1e-4, 1.0, 10.0):
        n = an / a
        got = state_b_population(model, n, 5e-3)
        k = mpmath.mpf(model.dose)
        want = mpmath.log1p(mpmath.exp(-k) * mpmath.expm1(mpmath.mpf(n) * mpmath.mpf(a))) / mpmath.mpf(a)
        assert got == pytest.approx(float(want), rel=1e-10)
    # past n ~ 1.12e18, expm1(a*n) overflows a double: the log-space branch
    for power in (1e3, 1e6, 1e9):
        model = SwitchingModel.from_config(default_cfg, irradiance=power)
        k = mpmath.mpf(model.dose)
        for n in (1.2e18, 1e20, 1e30, 1e300):
            got = state_b_population(model, n, 5e-3)
            want = mpmath.log1p(mpmath.exp(-k) * mpmath.expm1(mpmath.mpf(n) * mpmath.mpf(a))) / mpmath.mpf(a)
            assert got == pytest.approx(float(want), rel=1e-10)


def test_switching_array_equals_scalar_calls(default_cfg):
    a = SwitchingModel.from_config(default_cfg).absorption_scale
    # dark (k == 0), thin and saturating powers, and two where numpy's ufuncs
    # and libm differ in the last bit, against n_initial == 0, the
    # optically thin regime, both sides of the expm1 overflow at a * n ~ 709.78
    # and the log-space branch from n ~ 1.2e18 up to the float range
    powers = [0.0, 1e-3, 1.0, 1e3, 1049.5932305582278, 4216.965034285822, 1e4, 1e6, 1e9]
    counts = [0.0, 1e-20 / a, 1.0, 7.0, 10.0, 100.0, 1e10, 1e16, 709.0 / a, 710.0 / a,
              1.2e18, 1e20, 1e300]
    models = [SwitchingModel.from_config(default_cfg, irradiance=p) for p in powers]
    sweep = SwitchingModel.from_config(default_cfg, irradiance=np.array(powers)[:, None])
    t = sweep.irradiation_time
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n_b = state_b_population(sweep, np.array(counts), t)
        want = [[state_b_population(m, n, t) for n in counts] for m in models]
        assert all(type(w) is float for row in want for w in row)
        assert isinstance(n_b, np.ndarray) and n_b.shape == (len(powers), len(counts))
        assert n_b.tolist() == want
        assert n_b[:, 0].tolist() == [0.0] * len(powers)     # n_initial == 0
        # k == 0 returns n itself: log1p(expm1(a * 7)) / a is not 7 exactly
        assert n_b[0].tolist() == counts
        positive = counts[1:]
        p = switch_probability(sweep, np.array(positive))
        want = [[switch_probability(m, n) for n in positive] for m in models]
        assert all(type(w) is float for row in want for w in row)
        assert p.tolist() == want
    # one dose against many counts, and numpy scalars, keep the contract
    model = models[3]
    assert switch_probability(model, np.array(positive)).tolist() == want[3]
    assert type(switch_probability(model, np.float64(100.0))) is float
    assert type(state_b_population(model, np.float64(100.0), t)) is float
    assert type(photon_flux(np.float64(1e3), 5e-5, 365e-9)) is float
    with pytest.raises(ValueError):
        switch_probability(model, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        state_b_population(model, np.array([1.0, -1.0]), t)


def test_population_input_validation(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    with pytest.raises(ValueError):
        state_b_population(model, -1.0, 1.0)
    with pytest.raises(ValueError):
        state_b_population(model, 10.0, -1.0)
    with pytest.raises(ValueError):
        state_b_population(model, np.array([10.0, math.nan]), 1.0)
    with pytest.raises(ValueError):
        state_b_population(model, 10.0, math.nan)
    assert state_b_population(model, 0.0, 1.0) == 0.0


def test_switch_probability_reference_values(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    assert switch_probability(model, 100.0) == pytest.approx(P_SWITCH_1E3, rel=1e-12)
    hot = SwitchingModel.from_config(default_cfg, irradiance=1e4)
    assert switch_probability(hot, 100.0) == pytest.approx(P_SWITCH_1E4, rel=1e-12)


def test_switch_probability_dark_is_zero(default_cfg):
    dark = SwitchingModel.from_config(default_cfg, irradiance=0.0)
    assert switch_probability(dark, 100.0) == 0.0


def test_switch_probability_saturates_at_high_power(default_cfg):
    blazing = SwitchingModel.from_config(default_cfg, irradiance=1e6)
    assert switch_probability(blazing, 100.0) == 1.0


def test_switch_probability_monotone_in_irradiance(default_cfg):
    probs = [
        switch_probability(SwitchingModel.from_config(default_cfg, irradiance=p), 100.0)
        for p in (1e2, 1e3, 1e4, 1e5, 1e6)
    ]
    assert all(b >= a for a, b in zip(probs, probs[1:]))


def test_switch_probability_thin_sample_limit(default_cfg):
    # optically thin: p approaches 1 - exp(-phi*a*q*T)
    model = SwitchingModel.from_config(default_cfg)
    limit = -math.expm1(-model.dose)
    assert switch_probability(model, 100.0) == pytest.approx(limit, rel=1e-10)


def test_switch_probability_independence_regime(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    base = switch_probability(model, 1.0)
    for n in (1e3, 1e6, 1e9, 1e12):
        assert abs(switch_probability(model, n) - base) / base < 0.01
    # dense samples start competing for photons
    assert abs(switch_probability(model, 1e14) - base) / base > 0.01


def test_switch_probability_requires_positive_count(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    with pytest.raises(ValueError):
        switch_probability(model, 0.0)
    with pytest.raises(ValueError):
        switch_probability(model, -5.0)
    with pytest.raises(ValueError):
        switch_probability(model, np.array([100.0, math.nan]))


def _switch_probability_mp(a, k, n):
    # p = -log1p(-expm1(-k) * expm1(-a n)) / (a n), free of cancellation
    x = mpmath.mpf(a) * mpmath.mpf(n)
    return -mpmath.log1p(-mpmath.expm1(-k) * mpmath.expm1(-x)) / x


def test_switch_probability_matches_mpmath_at_low_power(default_cfg):
    # 1 - N_B / n cancels when few molecules switch: at 1e-6 W/m^2 it was off
    # by 3e-7; the switched count taken directly holds every digit
    powers = np.logspace(-6, 6, 25)
    counts = np.logspace(0, 16, 17)
    p = switch_probability(
        SwitchingModel.from_config(default_cfg, irradiance=powers[:, None]), counts
    )
    with mpmath.workdps(60):
        for power, row in zip(powers, p):
            model = SwitchingModel.from_config(default_cfg, irradiance=float(power))
            for n, got in zip(counts, row):
                want = _switch_probability_mp(model.absorption_scale, mpmath.mpf(model.dose),
                                              float(n))
                assert abs(got - want) <= 1e-14 * want, (power, n)


def test_switch_probability_over_the_float_range():
    # with a = t = 1, x = a n is the count and k the dose:
    # every branch, from products that underflow to exponentials that both
    # underflow, stays finite, in [0, 1] and exact where the answer is normal
    values = np.concatenate([np.logspace(-300, 308, 39),
                             [0.7, 600.0, 699.0, 700.0, 701.0, 746.0, 800.0, 1.7e308]])
    with warnings.catch_warnings(), mpmath.workdps(60):
        warnings.simplefilter("error")
        for k in values:
            model = SwitchingModel(dose=float(k), absorption_scale=1.0, irradiation_time=1.0)
            p = switch_probability(model, values)
            assert np.all(np.isfinite(p) & (p >= 0.0) & (p <= 1.0))
            for x, got in zip(values, p):
                want = _switch_probability_mp(1.0, mpmath.mpf(float(k)), float(x))
                if want > 1e-300:
                    assert abs(got - want) <= 1e-14 * want, (x, k)
        # x = a n past the float range: p = k / x underflows to 0, silently
        dense = SwitchingModel(dose=1.0, absorption_scale=1e300, irradiation_time=1.0)
        assert switch_probability(dense, 1e300) == 0.0


def test_dose_leaves_the_float_range_only_with_its_value():
    # phi * a * q overflows and t_irr is subnormal, yet the dose is 2.9e-3
    # and a * n_tx is 7.6e290: p_switch against mpmath from the config keys
    cfg = load_config("irradiation_time = 1e-320\nmolar_absorption = 1e308")
    n_tx = cfg.n_sys * cfg.p_tx
    p = switch_probability(SwitchingModel.from_config(cfg, irradiance=1e15), n_tx)
    with mpmath.workdps(60):
        mp = mpmath.mpf
        k = (mp(cfg.quantum_yield) * mpmath.log(10) * mp(cfg.molar_absorption) * mp(1e15)
             * mp(cfg.irradiation_time) * mp(cfg.wavelength_ba)
             / (mp(6.62607015e-34) * mp(299792458.0) * mp(6.02214076e23)))
        area = (mp(cfg.z_b_tx) - mp(cfg.z_a_tx)) * mp(cfg.width)
        a = mpmath.log(10) * mp(cfg.molar_absorption) / (mp(6.02214076e23) * area)
        want = _switch_probability_mp(a, k, n_tx)
    assert abs(p - want) <= 1e-12 * want
    assert float(want) == pytest.approx(3.7667357868155832e-294, rel=1e-12)


def test_ode_integrator_matches_closed_form(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    want = state_b_population(model, 100.0, 5e-3)
    got = integrate_switching_ode(model, 100.0, 5e-3, steps=5000)
    assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("text", ["molar_absorption = 1e-320", "width = 1e300"])
def test_ode_integrator_below_the_normal_range(text):
    # the absorption scale a underflows to 0, with the dose, or to a
    # subnormal: the integrator takes the thin limit, not dose / (a * t_irr)
    model = SwitchingModel.from_config(load_config(text))
    want = state_b_population(model, 100.0, model.irradiation_time)
    got = integrate_switching_ode(model, 100.0, model.irradiation_time)
    assert abs(got - want) <= 1e-6 * want


def test_ode_integrator_dark_is_constant(default_cfg):
    dark = SwitchingModel.from_config(default_cfg, irradiance=0.0)
    assert integrate_switching_ode(dark, 123.0, 5e-3, steps=100) == 123.0


def test_ode_photon_limited_regime(default_cfg):
    # dense regime: nearly every photon is absorbed, so the initial decay
    # rate approaches quantum_yield * flux
    cfg = default_cfg
    model = SwitchingModel.from_config(cfg)
    n0 = 1e17
    t = 1e-5
    n1 = integrate_switching_ode(model, n0, t, steps=200)
    rate = (n0 - n1) / t
    phi_q = cfg.quantum_yield * photon_flux(cfg.irradiance_on, cfg.area_tx, cfg.wavelength_ba)
    assert rate == pytest.approx(phi_q, rel=1e-3)


def test_ode_validation(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    with pytest.raises(ValueError):
        integrate_switching_ode(model, 100.0, 5e-3, steps=0)
    with pytest.raises(ValueError):
        integrate_switching_ode(model, 100.0, -1.0, steps=10)


@pytest.mark.parametrize("power", [1e8, 1e9])
def test_ode_integrator_rejects_steps_past_rk4_stability(default_cfg, power):
    # a dose per step of 6.0 and 59.8, past RK4's 2.785 for linear decay:
    # the iterates would grow to 1e17 and 1e42 state-B molecules out of 100
    model = SwitchingModel.from_config(default_cfg, irradiance=power)
    with pytest.raises(ValueError, match="stability"):
        integrate_switching_ode(model, 100.0, model.irradiation_time, steps=2000)


def test_ode_integrator_runs_inside_rk4_stability(default_cfg):
    # 20 000 steps at 1e8 W/m^2 take a dose of 0.6 each: every molecule switches
    model = SwitchingModel.from_config(default_cfg, irradiance=1e8)
    got = integrate_switching_ode(model, 100.0, model.irradiation_time, steps=20000)
    assert state_b_population(model, 100.0, model.irradiation_time) == 0.0
    assert 0.0 <= got <= 1e-300


def test_closed_form_satisfies_the_rate_equation(default_cfg):
    # central difference of the closed form reproduces
    # dN_B/dt = -phi*q*(1 - exp(-a*N_B)) at interior times
    cfg = default_cfg
    model = SwitchingModel.from_config(cfg)
    phi_q = cfg.quantum_yield * photon_flux(cfg.irradiance_on, cfg.area_tx, cfg.wavelength_ba)
    n0 = 100.0
    for t in (1e-3, 2.5e-3, 4e-3):
        h = 1e-7
        deriv = (
            state_b_population(model, n0, t + h) - state_b_population(model, n0, t - h)
        ) / (2 * h)
        n_b = state_b_population(model, n0, t)
        rhs = phi_q * math.expm1(-model.absorption_scale * n_b)
        assert deriv == pytest.approx(rhs, rel=1e-6)


def test_conservation_switched_plus_remaining(default_cfg):
    model = SwitchingModel.from_config(default_cfg)
    n0 = 100.0
    n_b = state_b_population(model, n0, 5e-3)
    p = switch_probability(model, n0)
    assert p * n0 + n_b == pytest.approx(n0, rel=1e-12)
