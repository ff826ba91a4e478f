import math

import numpy as np
import pytest

from mediamod import (
    ConfigError,
    SystemConfig,
    load_config,
    serialize_config,
    validate_static_assumption,
)
from mediamod.config import parse_document
from dataclasses import replace


def test_defaults_match_reference_parameter_set(default_cfg):
    cfg = default_cfg
    assert cfg.width == 1e-3
    assert cfg.sys_length == 0.5
    assert cfg.z_b_tx - cfg.z_a_tx == pytest.approx(0.05)
    assert cfg.z_b_rx - cfg.z_a_rx == pytest.approx(0.05)
    assert cfg.d == pytest.approx(0.2)
    assert cfg.flow_v == 0.01
    assert cfg.diff_a == 1e-10
    assert cfg.diff_b == 1e-10
    assert cfg.n_sys == 1000
    assert cfg.wavelength_ba == 365e-9
    assert cfg.molar_absorption == 8.3e3
    assert cfg.quantum_yield == 0.41
    assert cfg.irradiation_time == 5e-3
    assert cfg.n_realizations == 10000


def test_derived_quantities(default_cfg):
    cfg = default_cfg
    assert cfg.p_tx == pytest.approx(0.1)
    assert cfg.t_s == pytest.approx(20.0)
    # exact floating identities, not just approximations
    assert cfg.p_tx == (cfg.z_b_tx - cfg.z_a_tx) / cfg.sys_length
    assert cfg.t_s == cfg.d / cfg.flow_v
    assert cfg.area_tx == pytest.approx(5e-5)


def test_parse_skips_comments_and_blanks():
    raw = parse_document("# a comment\n\n  flow_v = 0.02  \n# another\nn_sys=500\n")
    assert raw == {"flow_v": "0.02", "n_sys": "500"}


def test_overrides_applied():
    cfg = load_config("flow_v = 0.02\nn_sys = 500\nseed = 9\n")
    assert cfg.flow_v == 0.02
    assert cfg.n_sys == 500
    assert cfg.seed == 9
    # untouched keys keep defaults
    assert cfg.sys_length == 0.5


@pytest.mark.parametrize(
    "text",
    [
        "no_such_key = 1",
        "pbs_dt = 0",                      # removed keys are unknown keys
        "wavelength_ab = 4.05e-7",
        "wavelength_fluor_in = 5.15e-7",
        "wavelength_fluor_out = 5.29e-7",
        "flow_v = 0.01\nflow_v = 0.02",   # duplicate
        "just a line without equals",
        "flow_v =",                        # empty value
        "flow_v = fast",                   # not a number
        "n_sys = 10.5",                    # non-integral int
        "flow_v = nan",
        # an integer beyond the float range
        pytest.param("n_sys = 1" + "0" * 400, id="n_sys = 10**400"),
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(ConfigError):
        load_config(text)


@pytest.mark.parametrize(
    "text",
    [
        "flow_v = 0",
        "flow_v = -0.01",
        "n_sys = 0",
        "quantum_yield = 1.5",
        "quantum_yield = 0",
        "z_a_tx = 0.2\nz_b_tx = 0.15",     # inverted interval
        "z_a_rx = 0.12",                   # receiver not downstream
        "z_b_rx = 0.6",                    # outside the subvolume
        "width = -1e-3",
        "molar_absorption = 0",
        "irradiation_time = 0",
        "n_realizations = 0",
        "seed = -1",
        "irradiance_on = -5",
        # the counts array has one row per realization, so the count must be C-sized
        pytest.param("n_realizations = 1" + "0" * 21, id="n_realizations = 10**21"),
    ],
)
def test_invariant_violations_rejected(text):
    with pytest.raises(ConfigError):
        load_config(text)


def test_diff_b_follows_diff_a_unless_set():
    cfg = load_config("diff_a = 3e-10")
    assert cfg.diff_b == 3e-10
    cfg = load_config("diff_a = 3e-10\ndiff_b = 7e-10")
    assert cfg.diff_b == 7e-10
    # setting only diff_b leaves diff_a at its default
    cfg = load_config("diff_b = 7e-10")
    assert cfg.diff_a == 1e-10


def test_serialize_round_trip(default_cfg):
    assert load_config(serialize_config(default_cfg)) == default_cfg
    tweaked = load_config("flow_v = 0.0123456789012345\nseed = 42\nn_sys = 77")
    assert load_config(serialize_config(tweaked)) == tweaked


def test_serialize_round_trips_numpy_scalars():
    # a config varied with dataclasses.replace over np.linspace values holds
    # numpy scalars; its text must load back to an equal config
    cfg = replace(
        load_config(""), flow_v=np.float64(0.02), n_sys=np.int64(2000), seed=np.int64(7)
    )
    text = serialize_config(cfg)
    assert "flow_v = 0.02\n" in text and "n_sys = 2000\n" in text
    assert load_config(text) == cfg


def test_integer_keys_parse_exactly():
    big = 12345678901234567891          # not representable as a float
    cfg = load_config(f"seed = {big}")
    assert cfg.seed == big
    assert f"seed = {big}\n" in serialize_config(cfg)
    assert load_config(serialize_config(cfg)) == cfg
    # integral float forms stay accepted
    assert load_config("n_sys = 1e3").n_sys == 1000
    assert load_config("n_realizations = 20.0").n_realizations == 20


def test_serialize_config_covers_every_key(default_cfg):
    # the '# key = value' header of every CSV lists the keys in this order
    order = [
        "sys_length", "width", "z_a_tx", "z_b_tx", "irradiance_on",
        "irradiation_time", "wavelength_ba", "z_a_rx", "z_b_rx", "diff_a",
        "diff_b", "molar_absorption", "quantum_yield", "flow_v", "n_sys",
        "n_realizations", "seed",
    ]
    lines = serialize_config(default_cfg).splitlines()
    assert [line.partition(" = ")[0] for line in lines] == order


def test_static_assumption_defaults(default_cfg):
    report = validate_static_assumption(default_cfg)
    assert report.lhs == pytest.approx(5.1e-5, abs=1e-9)
    assert report.rhs == pytest.approx(0.05)
    assert report.ratio == pytest.approx(1.02e-3, rel=1e-9)
    assert report.ok


def test_static_assumption_zero_illumination(default_cfg):
    # constructed directly: load_config would reject a zero duration
    cfg = replace(default_cfg, irradiation_time=0.0)
    report = validate_static_assumption(cfg)
    assert report.lhs == 0.0
    assert report.ok


def test_static_assumption_fast_flow(default_cfg):
    cfg = replace(default_cfg, flow_v=1.0)
    report = validate_static_assumption(cfg)
    assert report.lhs >= 5e-3
    assert report.ratio >= 0.1
    assert not report.ok


def test_static_assumption_threshold_is_configurable(default_cfg):
    assert validate_static_assumption(default_cfg, threshold=1e-4).ok is False


def test_constants_not_configurable():
    with pytest.raises(ConfigError):
        load_config("planck = 1.0")


def test_direct_construction_unvalidated_then_checked():
    cfg = SystemConfig(flow_v=-1.0)   # dataclasses do not self-validate
    from mediamod import validate_config

    with pytest.raises(ConfigError):
        validate_config(cfg)


def test_sampling_time_uses_center_distance():
    cfg = load_config("z_a_rx = 0.35\nz_b_rx = 0.4")
    assert cfg.d == pytest.approx(0.25)
    assert cfg.t_s == pytest.approx(25.0)


def test_tx_length_property():
    cfg = replace(SystemConfig(), z_a_tx=0.1, z_b_tx=0.18)
    assert validate_static_assumption(cfg).rhs == pytest.approx(0.08)
    assert cfg.area_tx == pytest.approx(0.08 * cfg.width)
