import argparse
import hashlib
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from mediamod import (
    SwitchingModel,
    ber_analytic,
    ber_empirical,
    hit_probability,
    link_switch_probability,
    load_config,
    photon_flux,
    received_distribution,
    serialize_config,
    switch_probability,
)
from mediamod.cli import CONFIG_ENV_VAR, _emit, main


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_table(text):
    """Split CSV output into (header, data rows, footer comments)."""
    lines = [l for l in text.splitlines() if l]
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    header = data[0].split(",")
    rows = [l.split(",") for l in data[1:]]
    return header, rows, comments


def footer_value(comments, name):
    for line in comments:
        if line.startswith(f"# {name} = "):
            return line.split(" = ", 1)[1]
    raise AssertionError(f"missing footer {name}")


def test_validate_default_config(capsys):
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0
    assert "static_assumption = ok" in out
    assert "switch_independence = ok" in out
    assert "p_tx = 0.09999999999999998" in out
    assert "sampling_time = 19.999999999999996 s" in out


def test_validate_writes_its_report_to_the_out_file(capsys, tmp_path):
    code, want, _ = run_cli(capsys, "validate")
    path = tmp_path / "validate.txt"
    assert run_cli(capsys, "validate", "--out", str(path)) == (code, "", "")
    assert path.read_text() == want


def test_validate_fails_under_tight_threshold(capsys):
    code, out, _ = run_cli(capsys, "validate", "--threshold", "1e-4")
    assert code == 1
    assert "static_assumption = violated" in out


def test_validate_fails_for_fast_flow(capsys):
    code, out, _ = run_cli(capsys, "validate", "--set", "flow_v=5.0")
    assert code == 1
    assert "static_assumption = violated" in out


def test_config_error_exit_codes(capsys, tmp_path):
    assert run_cli(capsys, "validate", "--set", "flowv0.02")[0] == 2
    assert run_cli(capsys, "validate", "--set", "no_such_key=3")[0] == 2
    assert run_cli(capsys, "validate", "--set", "flow_v=-1")[0] == 2
    assert run_cli(capsys, "validate", "--config", str(tmp_path / "missing.txt"))[0] == 2
    _, _, err = run_cli(capsys, "validate", "--set", "flowv0.02")
    assert err.startswith("error:")
    # the key name is checked before its value is parsed
    assert run_cli(capsys, "cir", "--set", "bogus=abc")[1:] == ("", "error: unknown key 'bogus'\n")
    # the duct height cancels from every formula, so it is not a key
    assert run_cli(capsys, "cir", "--set", "height=1e-3") == (
        2, "", "error: unknown key 'height'\n")
    # values no computation can hold, or that mean nothing: one error line each
    for argv in (
        ("pmf", "--set", f"n_realizations={10**21}"),
        ("ber", "--power", "1e3", "--n-sys", str(10**400)),
        ("ber", "--power", "1e3", "--trials", "5", "--n-sys", str(10**21)),
        ("ber", "--trials", "-5", "--points", "1"),
        ("ber", "--theta", "0"),
        ("ber", "--n-sys", "100", "--n-sys", "0"),
        ("ber", "--power", "1e3", "--trials", str(2**63)),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)
    assert run_cli(capsys, "ber", "--power", "1e3", "--trials", str(2**63)) == (
        2, "", f"error: --trials must not exceed {2**63 - 1}\n")


def test_usage_error_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


def test_power_grid_validation(capsys):
    assert run_cli(capsys, "ber", "--power", "5", "--power", "2")[0] == 2
    assert run_cli(capsys, "switching-curve", "--p-min", "0")[0] == 2
    assert run_cli(capsys, "switching-curve", "--points", "0")[0] == 2
    assert run_cli(capsys, "ber", "--power", "-3")[0] == 2
    # non-finite flag values are rejected, not written out as nan rows, and
    # so are an empty power range, a population of no molecules and a ratio
    # threshold no config can pass
    for argv in (
        ("switching-curve", "--p-min", "10", "--p-max", "5"),
        ("switching-curve", "--n-tx", "100", "--n-tx", "0"),
        ("ber", "--power", "inf"),
        ("switching-curve", "--power", "nan"),
        ("switching-curve", "--p-min", "nan"),
        ("ber", "--p-max", "inf"),
        ("switching-curve", "--n-tx", "1e400"),
        ("cir", "--t-max", "1e400"),
        ("validate", "--threshold", "nan"),
        ("validate", "--threshold", "-1"),
        ("validate", "--threshold", "0"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and err.count("\n") == 1, (argv, err)


def test_switching_curve_values(capsys, default_cfg):
    code, out, _ = run_cli(
        capsys, "switching-curve", "--power", "1000", "--power", "10000",
        "--n-tx", "100",
    )
    assert code == 0
    header, rows, _ = parse_table(out)
    assert header == ["power_w_per_m2", "n_tx", "p_switch"]
    assert len(rows) == 2
    for row, power in zip(rows, (1e3, 1e4)):
        model = SwitchingModel.from_config(default_cfg, irradiance=power)
        assert float(row[0]) == power
        assert float(row[1]) == 100.0
        assert float(row[2]) == switch_probability(model, 100.0)


def test_switching_curve_grid_cells_equal_scalar_calls(capsys, default_cfg):
    # the benchmark's curve shape: one call over the power x n_tx grid, rows
    # power-major, every cell the scalar call at its row exactly
    n_tx = ("10.0", "100.0", "1000.0", "1e16", "1.2e18")
    argv = ["switching-curve", "--points", "60"]
    for n in n_tx:
        argv += ["--n-tx", n]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    _, rows, _ = parse_table(out)
    assert len(rows) == 60 * len(n_tx)
    for i, row in enumerate(rows):
        power, n = float(row[0]), float(row[1])
        assert n == float(n_tx[i % len(n_tx)])
        model = SwitchingModel.from_config(default_cfg, irradiance=power)
        assert float(row[2]) == switch_probability(model, n)


def test_switching_curve_dark_power(capsys):
    code, out, _ = run_cli(capsys, "switching-curve", "--power", "0", "--n-tx", "100")
    assert code == 0
    _, rows, _ = parse_table(out)
    assert rows == [["0.0", "100.0", "0.0"]]


def test_switching_curve_huge_population(capsys, default_cfg):
    # a*n far past exp's range: every photon is absorbed, so the switched
    # count is the photon budget phi*q*t
    code, out, err = run_cli(capsys, "switching-curve", "--power", "1e3", "--n-tx", "1e20")
    assert code == 0, err
    _, rows, _ = parse_table(out)
    cfg = default_cfg
    budget = (cfg.quantum_yield * photon_flux(1e3, cfg.area_tx, cfg.wavelength_ba)
              * cfg.irradiation_time)
    assert float(rows[0][2]) == pytest.approx(budget / 1e20, rel=1e-6)


@pytest.mark.parametrize("args", [
    ("validate", "--set", "irradiance_on=1e300"),
    ("switching-curve", "--power", "1e308"),
    ("cir", "--pbs", "--set", "irradiance_on=1e300", "--set", "n_realizations=50"),
    ("pmf", "--set", "irradiance_on=1e300", "--set", "n_realizations=50"),
    ("ber", "--power", "1e308", "--trials", "100"),
    ("validate", "--set", "wavelength_ba=1e305"),
    ("switching-curve", "--set", "wavelength_ba=1e305"),
    ("cir", "--set", "wavelength_ba=1e305"),
    ("ber", "--derived", "--set", "wavelength_ba=1e305"),
    ("validate", "--set", "width=1e300"),
    ("switching-curve", "--set", "width=1e300"),
    ("cir", "--set", "width=1e300"),
    ("ber", "--derived", "--set", "width=1e300"),
    ("cir", "--pbs", "--points", "3", "--set", "n_realizations=3", "--set", "flow_v=1.7e308"),
    ("cir", "--pbs", "--points", "41", "--set", "n_realizations=3", "--set", "flow_v=1e307"),
    ("cir", "--pbs", "--points", "3", "--set", "n_realizations=3", "--set", "diff_a=1.7e308"),
    ("pmf", "--set", "n_realizations=3", "--set", "flow_v=1e-300", "--set", "diff_a=1e10"),
    # interval ends whose sum overflows: the transit distance d halves each
    # edge's offset before adding, so t_s = d / flow_v stays finite
    ("cir", "--points", "3", "--set", "flow_v=1e300", "--set", "sys_length=1.7e308",
     "--set", "z_a_rx=1e308", "--set", "z_b_rx=1.5e308"),
], ids=["validate", "switching-curve", "cir-pbs", "pmf", "ber-trials",
        "wavelength-validate", "wavelength-switching-curve", "wavelength-cir",
        "wavelength-ber", "width-validate", "width-switching-curve", "width-cir",
        "width-ber", "flow-drift-cir-pbs", "flow-path-cir-pbs", "diffusion-cir-pbs",
        "diffusion-pmf", "distance-cir"])
def test_power_past_the_float_range_runs_clean(capsys, args):
    # a photon flux or dose past the float range, where switching is
    # certain, or a photon energy or width at either end of it, which
    # cancel from every cell, or a drift or spread whose simulated positions
    # leave it; warnings are errors under this suite, so an overflow
    # warning fails
    code, out, err = run_cli(capsys, *args)
    assert code == 0, err
    assert err == ""
    assert "nan" not in out
    if args[0] == "validate":
        return
    header, rows, _ = parse_table(out)
    assert all(math.isfinite(float(cell)) for row in rows for cell in row)
    if args[-1] == "width=1e300":
        # the cross section drops out of every cell: same table as the
        # default config
        _, want, _ = parse_table(run_cli(capsys, *args[:-2])[1])
        assert len(rows) == len(want)
        for row, ref in zip(rows, want):
            for got, cell in zip(map(float, row), map(float, ref)):
                assert abs(got - cell) <= 1e-12 * abs(cell), (row, ref)
    elif args[0] in ("switching-curve", "ber"):
        assert float(rows[0][2]) == 1.0
    elif args[-1].startswith(("flow_v=", "diff_a=")):
        # a position past the float range lies in no window, so the
        # simulation counts what the closed form gives
        sim, ana = (("cir_pbs_mean", "cir_analytic") if args[0] == "cir"
                    else ("pmf_empirical", "pmf_analytic"))
        i, j = header.index(sim), header.index(ana)
        assert [row[i] for row in rows] == [row[j] for row in rows]


@pytest.mark.parametrize("sets, key", [
    (("width=5e-324",), "width"),
    (("flow_v=5e-324",), "flow_v"),
    (("sys_length=1e300", "z_a_tx=0", "z_b_tx=1e-100"), "(z_b_tx - z_a_tx) / sys_length"),
], ids=["width", "flow_v", "p_tx"])
def test_derived_quantity_out_of_range_is_a_config_error(capsys, sets, key):
    # every key is in range, but the illuminated surface, the illuminated
    # fraction or the sampling time made of them rounds to 0 or overflows; a
    # traceback would propagate out of main here
    for command in (["validate"], ["cir"], ["pmf"], ["ber", "--derived"]):
        argv = command + [arg for kv in sets for arg in ("--set", kv)]
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: invariant violation") and key in err, (argv, err)
        assert err.count("\n") == 1, (argv, err)


def test_switch_probability_lost_past_the_float_range_is_a_named_error(capsys):
    # the dose and a * n_tx both overflow, so their ratio is lost and
    # p_switch is nan: each command stops on its name instead of printing nan
    big = "1" + "0" * 30
    sets = ["--set", "irradiance_on=1e308", "--set", "molar_absorption=1e308",
            "--set", f"n_sys={big}"]
    cases = [
        ["cir", *sets],
        ["validate", *sets],
        # the simulation needs n_sys below 2**63, so a tiny width overflows a instead
        ["pmf", *sets[:4], "--set", "width=1e-300", "--set", "n_realizations=5"],
        ["switching-curve", "--power", "1e308", "--n-tx", "1e300",
         "--set", "molar_absorption=1e308"],
        ["ber", "--power", "1e308", "--n-sys", big, "--set", "molar_absorption=1e308"],
    ]
    for argv in cases:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv   # no nan cells
        assert "p_switch" in err, (argv, err)


@pytest.mark.parametrize("args", [
    ("--points", "3", "--t-max", "1e308", "--set", "flow_v=10"),
    ("--set", "diff_a=1e308"),
], ids=["shift", "spread"])
def test_cir_past_the_float_range_prints_zero(capsys, args):
    # the shift v*t or the spread 4*D*t overflows: nothing is in the window
    code, out, err = run_cli(capsys, "cir", *args)
    assert (code, err) == (0, "")
    _, rows, _ = parse_table(out)
    assert "nan" not in out
    assert all(float(r[1]) == float(r[2]) == 0.0 for r in rows[1:])


def test_switching_curve_default_grid(capsys):
    code, out, _ = run_cli(capsys, "switching-curve", "--points", "7")
    assert code == 0
    _, rows, _ = parse_table(out)
    assert len(rows) == 7
    powers = [float(r[0]) for r in rows]
    assert powers[0] == 1e3 and powers[-1] == 1e6
    p_switch = [float(r[2]) for r in rows]
    # saturates to 1.0 at the strongest powers, hence non-strict at the tail
    assert all(a <= b for a, b in zip(p_switch, p_switch[1:]))
    assert p_switch[0] < p_switch[-1] == 1.0


def test_cir_table(capsys, default_cfg):
    code, out, _ = run_cli(capsys, "cir")
    assert code == 0
    header, rows, _ = parse_table(out)
    assert header == ["t_seconds", "h_analytic", "cir_analytic"]
    assert len(rows) == 41
    assert rows[0][0] == "0.0"
    assert float(rows[0][1]) == 0.0
    for row in rows[1:]:
        t = float(row[0])
        assert float(row[1]) == hit_probability(default_cfg, t)
    # the CLI column is the mean of the stats module's received count
    for row in rows:
        want = received_distribution(default_cfg, t=float(row[0])).mean
        assert float(row[2]) == pytest.approx(want, rel=1e-14)
    peak = max(rows, key=lambda r: float(r[2]))
    assert float(peak[0]) == 20.0


def test_analytic_sweep_cells_equal_scalar_functions(capsys, default_cfg):
    # the argv of the benchmark's analytic sweep: every cell is the scalar
    # function's value at its row, exactly
    code, out, _ = run_cli(capsys, "cir", "--points", "20001")
    assert code == 0
    _, rows, _ = parse_table(out)
    assert len(rows) == 20001
    scale = default_cfg.n_sys * default_cfg.p_tx * link_switch_probability(default_cfg)
    for row in rows:
        h = hit_probability(default_cfg, float(row[0]))
        assert (float(row[1]), float(row[2])) == (h, scale * h)

    code, out, _ = run_cli(capsys, "ber", "--derived", "--theta", "3", "--points", "1000",
                           "--n-sys", "10", "--n-sys", "100", "--n-sys", "1000")
    assert code == 0
    _, rows, comments = parse_table(out)
    assert len(rows) == 3000
    hit = float(footer_value(comments, "hit_probability"))
    for i, row in enumerate(rows):
        power, n_sys = float(row[0]), int(row[1])
        assert n_sys == (10, 100, 1000)[i % 3]   # power-major order
        p_sw = switch_probability(SwitchingModel.from_config(default_cfg, irradiance=power),
                                  n_sys * default_cfg.p_tx)
        p_r = default_cfg.p_tx * p_sw * hit
        assert (float(row[2]), float(row[3])) == (p_sw, p_r)
        assert float(row[4]) == ber_analytic(n_sys, p_r, theta=3)


def test_ber_monte_carlo_draws_in_row_order(capsys, default_cfg):
    code, out, _ = run_cli(capsys, "ber", "--points", "2", "--n-sys", "10", "--n-sys", "50",
                           "--theta", "2", "--trials", "300", "--seed", "5")
    assert code == 0
    _, rows, _ = parse_table(out)
    # one generator seeded from the config, drawn row after row
    rng = np.random.default_rng(5)
    for row in rows:
        est = ber_empirical(int(row[1]), float(row[3]), 300, rng, theta=2)
        assert [float(v) for v in row[5:]] == [est.ber, est.ci_low, est.ci_high]


def test_ber_monte_carlo_output_is_pinned(capsys):
    # the digest of the whole table of a short ber_mc-shaped sweep, every
    # p_r below 1/3: any change of the Monte-Carlo stream or of the text shows
    code, out, _ = run_cli(capsys, "ber", "--trials", "100000", "--p-min", "1e3",
                           "--p-max", "1e6", "--points", "2", "--n-sys", "10",
                           "--n-sys", "50", "--n-sys", "100", "--seed", "1")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "748146929a2c537631fda6fc2574978f30eaad9f16ae811c6b648a6d833a2bd6")


@pytest.mark.parametrize("args, digest", [
    (("pmf",), "a9ecd2feec863c3bc08c2ad8353ddad1b600472ae9e6e6cf9d7ec6a9eaf91a40"),
    (("ber", "--trials", "200000", "--theta", "2", "--points", "3", "--n-sys", "10",
      "--n-sys", "1000"), "3d55760a1655a3b34b2512f911825e8b507b993d72f77ff5af2f0e6bf2dea18e"),
], ids=["pmf", "ber-theta-2"])
def test_sampled_count_output_is_pinned(capsys, args, digest):
    # the digests of whole tables whose counts come from the count sampler:
    # the default run's 10 000 switched counts (mean 11.3), and theta = 2
    # received counts at means 0.11, 0.98 and 1.0 (n_sys 10) and 11.3, 98
    # and 100 (n_sys 1000), on both sides of the table's cut-over and of the
    # generator's inversion
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_cir_with_simulation_columns(capsys):
    code, out, _ = run_cli(capsys, "cir", "--pbs", "--set", "n_realizations=200")
    assert code == 0
    header, rows, _ = parse_table(out)
    assert header == [
        "t_seconds", "h_analytic", "cir_analytic", "cir_pbs_mean", "cir_pbs_stderr",
    ]
    peak = rows[20]
    assert float(peak[0]) == 20.0
    dev = abs(float(peak[3]) - float(peak[2]))
    assert dev < 4 * float(peak[4])


def test_cir_simulation_needs_no_sampling_time(capsys):
    # it does not: cir never reads the sampling time, so grids that miss it
    # (t_s = 20 s beyond --t-max 10; t_s = 6.67 s off the default grid) run
    for extra in (["--t-max", "10"], ["--set", "flow_v=0.03"]):
        code, out, err = run_cli(capsys, "cir", "--pbs", "--set", "n_realizations=50", *extra)
        assert code == 0, err
        header, rows, _ = parse_table(out)
        assert header[-2:] == ["cir_pbs_mean", "cir_pbs_stderr"]
        assert len(rows) == 41


def test_simulation_records_off_the_step_grid(capsys):
    # t_s = 0.2 / 0.03 s and the 7-point grid 0, 6.67, ... are not multiples
    # of any round time step; the simulation records there all the same
    code, out, err = run_cli(capsys, "pmf", "--set", "flow_v=0.03",
                             "--set", "n_realizations=200")
    assert code == 0, err
    _, _, comments = parse_table(out)
    assert float(footer_value(comments, "tv_distance")) < 0.2
    code, out, err = run_cli(capsys, "cir", "--pbs", "--points", "7",
                             "--set", "n_realizations=200")
    assert code == 0, err
    _, rows, _ = parse_table(out)
    assert [r[0] for r in rows][:2] == ["0.0", "6.666666666666667"]
    assert float(rows[3][3]) > 0


def test_out_of_memory_is_a_config_error(capsys):
    # 10^17 positions, or counts of 10^17 realizations, cannot be allocated
    # on any machine: one-line error, exit 2
    for key in ("n_sys", "n_realizations"):
        code, out, err = run_cli(capsys, "pmf", "--set", f"{key}=1e17")
        assert code == 2
        assert out == ""
        assert err.startswith("error: out of memory")
        assert err.count("\n") == 1


def test_pmf_dark_bit(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--s", "0", "--set", "n_realizations=300")
    assert code == 0
    header, rows, comments = parse_table(out)
    assert header == ["k", "pmf_analytic", "pmf_empirical"]
    assert rows == [["0", "1.0", "1.0"]]
    assert float(footer_value(comments, "tv_distance")) == 0.0


def test_pmf_lit_bit(capsys):
    code, out, _ = run_cli(capsys, "pmf", "--set", "n_realizations=500")
    assert code == 0
    _, rows, comments = parse_table(out)
    ks = [int(r[0]) for r in rows]
    assert ks == list(range(len(ks)))
    analytic = [float(r[1]) for r in rows]
    empirical = [float(r[2]) for r in rows]
    assert sum(empirical) == pytest.approx(1.0, abs=1e-12)
    assert sum(analytic) == pytest.approx(1.0, abs=1e-6)
    assert float(footer_value(comments, "tv_distance")) < 0.1
    assert footer_value(comments, "realizations") == "500"


def test_ber_reference_channel(capsys, default_cfg):
    code, out, _ = run_cli(capsys, "ber", "--power", "1000", "--n-sys", "10")
    assert code == 0
    header, rows, comments = parse_table(out)
    assert header == ["power_w_per_m2", "n_sys", "p_switch", "p_r", "ber_analytic"]
    assert footer_value(comments, "channel_mode") == "reference"
    assert footer_value(comments, "hit_probability") == "0.999"
    model = SwitchingModel.from_config(default_cfg, irradiance=1e3)
    p_sw = switch_probability(model, 10 * 0.1)
    row = rows[0]
    assert float(row[2]) == p_sw
    assert float(row[3]) == 0.1 * p_sw * 0.999
    assert float(row[4]) == ber_analytic(10, 0.1 * p_sw * 0.999)


def test_ber_derived_channel(capsys, default_cfg):
    code, out, _ = run_cli(capsys, "ber", "--power", "1000", "--derived")
    assert code == 0
    _, rows, comments = parse_table(out)
    assert footer_value(comments, "channel_mode") == "derived"
    hit = hit_probability(default_cfg, default_cfg.t_s)
    assert float(footer_value(comments, "hit_probability")) == hit
    model = SwitchingModel.from_config(default_cfg, irradiance=1e3)
    p_sw = switch_probability(model, default_cfg.n_sys * default_cfg.p_tx)
    assert float(rows[0][3]) == default_cfg.p_tx * p_sw * hit


def test_ber_improves_with_population(capsys):
    code, out, _ = run_cli(
        capsys, "ber", "--power", "1000000",
        "--n-sys", "10", "--n-sys", "50", "--n-sys", "100",
    )
    assert code == 0
    _, rows, _ = parse_table(out)
    bers = [float(r[4]) for r in rows]
    assert bers[0] > bers[1] > bers[2]


def test_ber_monte_carlo_columns(capsys):
    code, out, _ = run_cli(
        capsys, "ber", "--power", "1000", "--n-sys", "10", "--trials", "4000",
    )
    assert code == 0
    header, rows, _ = parse_table(out)
    assert header[-3:] == ["ber_empirical", "ci95_lo", "ci95_hi"]
    row = rows[0]
    analytic, empirical = float(row[4]), float(row[5])
    lo, hi = float(row[6]), float(row[7])
    assert lo <= empirical <= hi
    assert lo <= analytic <= hi


def test_output_file_reruns_byte_identical(capsys, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["ber", "--power", "1000", "--n-sys", "10", "--trials", "2000"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert out1.read_bytes()  # not empty


def test_emit_writes_each_row_as_the_repr_of_its_cells(capsys, default_cfg):
    # tables are passed column by column; each data line is the row's cells
    # written with repr and joined by commas, for ints, signed zeros, the
    # float extremes and the non-finite values alike
    args = argparse.Namespace(out=None)
    config = [f"# {line}" for line in serialize_config(default_cfg).splitlines()]
    cells = [[0, -7, 2**70, 3, 1],
             [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1],
             [math.inf, -math.inf, math.nan, 2.5, -0.0]]
    _emit(args, default_cfg, ["a", "b", "c"], cells, footer=["# end"])
    rows = [",".join(map(repr, row)) for row in zip(*cells)]
    assert capsys.readouterr().out.splitlines() == config + ["a,b,c"] + rows + ["# end"]

    # no rows: the header alone
    _emit(args, default_cfg, ["a", "b"], [[], []])
    assert capsys.readouterr().out.splitlines() == config + ["a,b"]

    # columns of unequal length are an error, not a truncated table
    for cells in ([[1, 2], [1.0]], [[1], [1.0, 2.0]], [[], [1.0]]):
        with pytest.raises(ValueError):
            _emit(args, default_cfg, ["a", "b"], cells)
        assert capsys.readouterr().out == ""


def test_header_embeds_the_resolved_config(capsys):
    code, out, _ = run_cli(capsys, "cir", "--set", "flow_v=0.02", "--points", "3")
    assert code == 0
    lines = out.splitlines()
    header_lines = []
    for line in lines:
        if not line.startswith("# "):
            break
        header_lines.append(line[2:])
    rebuilt = load_config("\n".join(header_lines))
    assert rebuilt.flow_v == 0.02
    assert serialize_config(rebuilt) == "\n".join(header_lines) + "\n"


def test_seed_flag_changes_simulation_but_not_analytics(capsys):
    args = ["pmf", "--set", "n_realizations=200"]
    _, out_a, _ = run_cli(capsys, *args, "--seed", "1")
    _, out_b, _ = run_cli(capsys, *args, "--seed", "2")
    _, rows_a, _ = parse_table(out_a)
    _, rows_b, _ = parse_table(out_b)
    assert [r[1] for r in rows_a[:5]] == [r[1] for r in rows_b[:5]]
    assert [r[2] for r in rows_a] != [r[2] for r in rows_b]


def test_config_from_environment(capsys, tmp_path, monkeypatch):
    path = tmp_path / "link.cfg"
    path.write_text("flow_v = 0.02\n")
    monkeypatch.setenv(CONFIG_ENV_VAR, str(path))
    code, out, _ = run_cli(capsys, "validate")
    assert code == 0
    assert "sampling_time = 9.999999999999998 s" in out


def test_module_runs_as_a_script():
    proc = subprocess.run(
        [sys.executable, "-m", "mediamod.cli", "validate"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert "static_assumption = ok" in proc.stdout


_SCIPY_PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout

steps = []
def record(label, code=None):
    steps.append([label, code, "scipy" in sys.modules, "scipy.special" in sys.modules])

import mediamod
record("import mediamod")
from mediamod.cli import build_config, main
build_config({})
record("build_config")
for argv in (["validate"], ["switching-curve", "--points", "3"],
             ["cir", "--set", "n_sys=0"], ["cir", "--points", "3"]):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(argv)
    record(" ".join(argv), code)
print(json.dumps(steps))
"""


def test_scipy_special_loads_on_first_closed_form_call():
    # a fresh interpreter: this test session has imported scipy already
    proc = subprocess.run(
        [sys.executable, "-c", _SCIPY_PROBE],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    steps = [tuple(step) for step in json.loads(proc.stdout)]
    assert steps == [
        ("import mediamod", None, False, False),
        ("build_config", None, False, False),
        ("validate", 0, False, False),
        ("switching-curve --points 3", 0, False, False),
        ("cir --set n_sys=0", 2, False, False),
        ("cir --points 3", 0, True, True),
    ]


_REPEAT_PROBE = """
import io, json
from contextlib import redirect_stderr, redirect_stdout
from mediamod.cli import main

calls = []
for argv in (["ber", "--n-sys", "5", "--points", "1"], ["ber", "--points", "1"],
             ["--help"], ["--help"], ["no-such-command"], ["no-such-command"]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    calls.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(calls))
"""


def test_repeated_calls_in_one_process_start_fresh():
    # a fresh interpreter, so the first call builds the parser: later calls
    # see no option of an earlier one, and help and usage errors repeat
    proc = subprocess.run(
        [sys.executable, "-c", _REPEAT_PROBE],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    ber_5, ber_default, help_1, help_2, usage_1, usage_2 = json.loads(proc.stdout)
    assert ber_5[0] == ber_default[0] == 0
    assert [row[1] for row in parse_table(ber_5[1])[1]] == ["5"]
    assert [row[1] for row in parse_table(ber_default[1])[1]] == ["1000"]
    assert help_1 == help_2 and help_1[0] == 0 and "usage: mediamod" in help_1[1]
    assert usage_1 == usage_2 and usage_1[0] == 2 and "invalid choice" in usage_1[2]
