"""End-to-end acceptance checks.

Each test times itself and registers a PASS/FAIL line that the terminal
summary prints after the run, so the eight headline guarantees of the package
are visible at a glance. Statistical checks run at fixed seeds; the chosen
seeds are ordinary (verified once, then frozen) and the tolerances are the
ones stated in each test.
"""

import dataclasses
import math
import time

import numpy as np
from conftest import record_acceptance

from mediamod import (
    ber_analytic,
    ber_empirical,
    empirical_pmf,
    hit_probability,
    hit_probability_quadrature,
    integrate_switching_ode,
    load_config,
    received_count_pmf,
    received_distribution,
    run_ensemble,
    sample_received_count,
    state_b_population,
    switch_probability,
    validate_static_assumption,
)
from mediamod.pbs import apply_modulation, init_population, step
from mediamod.photochem import SwitchingModel
from mediamod.stats import ReceptionDistribution

CFG = load_config("")


def test_01_switching_probability_operating_point():
    t0 = time.perf_counter()
    model = SwitchingModel.from_config(CFG)
    p = switch_probability(model, CFG.n_sys * CFG.p_tx)
    ok = abs(p - 0.1126) < 0.0005
    detail = f"p_switch = {p:.6f} (target 0.1126 +/- 0.0005)"
    record_acceptance(
        "switching probability at the 1 kW/m^2 operating point",
        ok, time.perf_counter() - t0, detail,
    )
    assert ok, detail


def test_02_static_transmitter_regime():
    t0 = time.perf_counter()
    report = validate_static_assumption(CFG)
    ok = abs(report.lhs - 5.1e-5) < 1e-6 and abs(report.rhs - 0.05) < 1e-12 and report.ok
    detail = (
        f"displacement {report.lhs:.3e} m vs interval {report.rhs:.0e} m "
        f"(ratio {report.ratio:.2e})"
    )
    record_acceptance(
        "molecules are effectively static while illuminated",
        ok, time.perf_counter() - t0, detail,
    )
    assert ok, detail


def test_03_closed_form_matches_ode_integration():
    t0 = time.perf_counter()
    worst = 0.0
    for power in (1e3, 1e4, 1e5, 1e6):
        model = SwitchingModel.from_config(CFG, irradiance=power)
        for n in (1e2, 1e10, 1e14):
            closed = state_b_population(model, n, model.irradiation_time)
            ode = integrate_switching_ode(model, n, model.irradiation_time, steps=20000)
            worst = max(worst, abs(closed - ode) / closed)
    ok = worst < 1e-6
    detail = f"worst relative error {worst:.2e} over 12 power/population combinations"
    record_acceptance(
        "closed-form switching kinetics vs independent RK4 integration",
        ok, time.perf_counter() - t0, detail,
    )
    assert ok, detail


def test_04_transport_closed_form_vs_quadrature():
    t0 = time.perf_counter()
    worst = max(
        abs(hit_probability(CFG, float(t)) - hit_probability_quadrature(CFG, float(t)))
        for t in range(1, 41)
    )
    h_peak = hit_probability(CFG, 20.0)
    grid = np.linspace(10.0, 30.0, 201)   # 0.1 s steps around the arrival
    cir = np.array([received_distribution(CFG, t=float(t)).mean for t in grid])
    t_peak = float(grid[int(np.argmax(cir))])
    ok = worst < 1e-9 and abs(h_peak - 0.999) < 0.001 and abs(t_peak - 20.0) <= 0.1 + 1e-12
    detail = (
        f"max |closed - quadrature| = {worst:.2e}; h(20 s) = {h_peak:.6f}; "
        f"peak at t = {t_peak:.1f} s"
    )
    record_acceptance(
        "transport closed form vs adaptive quadrature, peak location and height",
        ok, time.perf_counter() - t0, detail,
    )
    assert ok, detail


def test_05_simulation_reproduces_expected_count_curve():
    t0 = time.perf_counter()
    times = tuple(float(t) for t in range(1, 41))
    stats = run_ensemble(dataclasses.replace(CFG, n_realizations=10_000), 1, times)
    worst = 0.0
    points_ok = True
    for j, t in enumerate(times):
        want = received_distribution(CFG, t=t).mean
        dev = abs(float(stats.mean_rx[j]) - want)
        # zero-variance points (all counts zero far from the arrival) get an
        # absolute floor since their standard error is exactly zero
        if dev > 3.0 * float(stats.stderr_rx[j]) + 1e-9:
            points_ok = False
        if stats.stderr_rx[j] > 0:
            worst = max(worst, dev / float(stats.stderr_rx[j]))
    j_ts = int(np.argmin(np.abs(np.asarray(times) - CFG.t_s)))   # 20.0 s; t_s is 1 ulp below
    m_ts = float(stats.mean_rx[j_ts])
    se_ts = float(stats.stderr_rx[j_ts])
    at_ts_ok = abs(m_ts - 11.25) <= 3.0 * se_ts
    ok = points_ok and at_ts_ok
    detail = (
        f"worst deviation {worst:.2f} standard errors over 40 record times; "
        f"mean at sampling time {m_ts:.4f} vs 11.25 (3 se = {3 * se_ts:.4f})"
    )
    record_acceptance(
        "simulated mean count tracks the analytic curve (10000 realizations)",
        ok, time.perf_counter() - t0, detail,
    )
    assert ok, detail


def test_06_count_distribution_total_variation():
    t0 = time.perf_counter()
    stats = run_ensemble(dataclasses.replace(CFG, n_realizations=10_000), 1, (CFG.t_s,))
    counts = stats.counts_rx[:, 0]   # the only record time is t_s
    dist = received_distribution(CFG)
    n_max = int(counts.max())
    observed = empirical_pmf(counts, n_max=n_max)
    predicted = received_count_pmf(dist, np.arange(n_max + 1))
    tv = 0.5 * float(np.abs(observed - predicted).sum()) + 0.5 * float(1.0 - predicted.sum())
    ok = tv < 0.05
    detail = f"total variation distance {tv:.5f} (limit 0.05)"
    record_acceptance(
        "simulated count distribution matches the binomial model",
        ok, time.perf_counter() - t0, detail,
    )
    assert ok, detail


def test_07_ber_power_sweep_and_error_floor():
    t0 = time.perf_counter()
    hit, p_tx = 0.999, 0.1
    powers = [float(p) for p in np.logspace(3.0, 6.0, 25)]
    populations = (10, 50, 100)

    ber = {}
    for power in powers:
        model = SwitchingModel.from_config(CFG, irradiance=power)
        for n in populations:
            p_sw = switch_probability(model, n * p_tx)
            p_r = p_tx * p_sw * hit
            ber[(power, n)] = (p_r, ber_analytic(n, p_r))

    floor = 0.5 * (1.0 - p_tx * hit) ** 10
    ber_top = ber[(powers[-1], 10)][1]
    floor_ok = (
        abs(ber_top - floor) < 1e-12 * floor and abs(floor - 0.1745) < 0.0005
    )
    curve10 = [ber[(p, 10)][1] for p in powers]
    monotone_ok = all(a >= b for a, b in zip(curve10, curve10[1:]))
    dominance_ok = all(
        ber[(p, 50)][1] < ber[(p, 10)][1] and ber[(p, 100)][1] < ber[(p, 50)][1]
        for p in powers
    )

    # Monte-Carlo confirmation wherever a million trials can resolve the rate
    rng = np.random.default_rng(17)
    checked = bracketed = 0
    for power in powers:
        for n in populations:
            p_r, want = ber[(power, n)]
            if want <= 1e-4:
                continue
            est = ber_empirical(n, p_r, 10**6, rng)
            checked += 1
            if est.ci_low <= want <= est.ci_high:
                bracketed += 1
    empirical_ok = bracketed == checked

    ok = floor_ok and monotone_ok and dominance_ok and empirical_ok
    detail = (
        f"floor {ber_top:.5f} (target ~0.1745); monotone: {monotone_ok}; "
        f"larger populations strictly better: {dominance_ok}; "
        f"Wilson 95% brackets analytic at {bracketed}/{checked} points"
    )
    record_acceptance(
        "error-rate power sweep: floor, monotonicity, population gain, Monte-Carlo",
        ok, time.perf_counter() - t0, detail,
    )
    assert ok, detail


def test_08_cross_module_properties():
    t0 = time.perf_counter()
    problems = []

    # molecule conservation through modulation and transport
    rng = np.random.default_rng(123)
    pop = init_population(CFG, rng)
    apply_modulation(pop, CFG, 1, 0.5, rng)
    for _ in range(30):
        step(pop, CFG, 1.0, rng)
        counts = np.bincount(pop.state, minlength=2)
        if counts.sum() != CFG.n_sys:
            problems.append("state counts not conserved")
            break

    # pmf normalization over the full support
    for dist in (
        received_distribution(CFG),
        ReceptionDistribution(10, 0.0999),
        ReceptionDistribution(100_000, 1e-4),
    ):
        total = float(np.sum(received_count_pmf(dist, np.arange(dist.trials_n + 1))))
        if abs(total - 1.0) > 1e-9:
            problems.append(f"pmf sums to {total!r} for n={dist.trials_n}")

    # a dark symbol can never be detected as lit
    runs = dataclasses.replace(CFG, n_realizations=300, seed=7)
    dark = run_ensemble(runs, 0, (CFG.t_s,))
    # any count reaches the lowest threshold, theta = 1
    if np.any(dark.counts_rx[:, 0] != 0):   # column of t_s
        problems.append("false positive on a dark symbol")

    # the error rate is exactly half the miss mass of the count distribution
    for n, p in ((10, 0.0999), (CFG.n_sys, received_distribution(CFG).success_p), (50, 0.3)):
        dist = ReceptionDistribution(n, p)
        lhs = ber_analytic(n, p)
        rhs = 0.5 * received_count_pmf(dist, 0)
        if not math.isclose(lhs, rhs, rel_tol=1e-12):
            problems.append(f"ber identity broken at n={n}, p={p}")

    # bit-identical reruns from equal seeds
    lit = run_ensemble(runs, 1, (CFG.t_s,))
    lit_again = run_ensemble(runs, 1, (CFG.t_s,))
    if not (
        np.array_equal(lit.counts_rx, lit_again.counts_rx)
        and np.array_equal(lit.n_switched, lit_again.n_switched)
    ):
        problems.append("ensemble rerun differs")
    d = received_distribution(CFG)
    if not np.array_equal(
        sample_received_count(d, np.random.default_rng(5), size=500),
        sample_received_count(d, np.random.default_rng(5), size=500),
    ):
        problems.append("count sampler rerun differs")
    if ber_empirical(10, 0.0999, 20_000, np.random.default_rng(3)) != ber_empirical(
        10, 0.0999, 20_000, np.random.default_rng(3)
    ):
        problems.append("error-rate estimator rerun differs")

    ok = not problems
    detail = "; ".join(problems) if problems else (
        "conservation, normalization, no false positives, "
        "ber identity, seeded determinism"
    )
    record_acceptance(
        "cross-module invariants and determinism",
        ok, time.perf_counter() - t0, detail,
    )
    assert ok, detail
