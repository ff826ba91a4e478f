import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mediamod import (
    ChannelModel,
    hit_probability,
    hit_probability_quadrature,
    load_config,
)
from mediamod.channel import point_kernel

H_AT_TS = 0.9989907469911921


@pytest.fixture()
def channel(default_cfg):
    return ChannelModel.from_config(default_cfg)


def test_from_config_fields(default_cfg, channel):
    assert channel.diff_a == default_cfg.diff_a
    assert channel.flow_v == default_cfg.flow_v
    assert (channel.z_a_tx, channel.z_b_tx) == (0.1, 0.15)
    assert (channel.z_a_rx, channel.z_b_rx) == (0.3, 0.35)
    assert channel.l_tx == pytest.approx(0.05)


def test_point_kernel_normalizes(channel):
    t = 20.0
    sigma = math.sqrt(2 * channel.diff_a * t)
    mean = 0.125 + channel.flow_v * t
    z = np.linspace(mean - 10 * sigma, mean + 10 * sigma, 20001)
    mass = np.trapezoid(point_kernel(channel, t, z, 0.125), z)
    assert mass == pytest.approx(1.0, abs=1e-9)


def test_point_kernel_peak_and_spread(channel):
    t, z_tx = 20.0, 0.125
    sigma = math.sqrt(2 * channel.diff_a * t)
    assert sigma == pytest.approx(6.324555320336759e-5, rel=1e-12)
    peak = point_kernel(channel, t, z_tx + channel.flow_v * t, z_tx)
    assert peak == pytest.approx(1.0 / math.sqrt(2 * math.pi) / sigma, rel=1e-12)
    off = point_kernel(channel, t, z_tx + channel.flow_v * t + sigma, z_tx)
    assert off == pytest.approx(peak * math.exp(-0.5), rel=1e-12)
    # symmetric about the drifted mean
    left = point_kernel(channel, t, z_tx + channel.flow_v * t - 2 * sigma, z_tx)
    right = point_kernel(channel, t, z_tx + channel.flow_v * t + 2 * sigma, z_tx)
    assert left == pytest.approx(right, rel=1e-12)


def test_point_kernel_rejects_nonpositive_time(channel):
    with pytest.raises(ValueError):
        point_kernel(channel, 0.0, 0.3, 0.125)
    with pytest.raises(ValueError):
        point_kernel(channel, -1.0, 0.3, 0.125)


def test_hit_probability_reference_values(channel):
    assert hit_probability(channel, 20.0) == pytest.approx(H_AT_TS, rel=1e-12)
    assert hit_probability(channel, 19.0) == pytest.approx(0.8, rel=1e-9)
    assert hit_probability(channel, 21.0) == pytest.approx(0.8, rel=1e-9)


def test_hit_probability_bounds(channel):
    for t in (0.0, 1.0, 5.0, 10.0, 15.0, 20.0, 25.0, 40.0, 1000.0):
        h = hit_probability(channel, t)
        assert 0.0 <= h <= 1.0
    # block far from the window in both directions
    assert hit_probability(channel, 5.0) == 0.0
    assert hit_probability(channel, 40.0) < 1e-6
    # a shift or a spread past the float range leaves nothing in the window
    assert hit_probability(channel, math.inf) == 0.0
    fast = replace(channel, flow_v=10.0)
    assert hit_probability(fast, np.array([5e307, 1e308, math.inf])).tolist() == [0.0] * 3
    spread = replace(channel, diff_a=1e308)
    assert hit_probability(spread, np.linspace(0.0, 40.0, 5)).tolist() == [0.0] * 5


def test_hit_probability_disjoint_start(channel):
    assert hit_probability(channel, 0.0) == 0.0
    with pytest.raises(ValueError):
        hit_probability(channel, -1.0)
    with pytest.raises(ValueError):
        hit_probability(channel, np.array([1.0, -1.0]))
    with pytest.raises(ValueError):
        hit_probability(channel, math.nan)
    with pytest.raises(ValueError):
        hit_probability(channel, np.array([1.0, math.nan]))


def test_hit_probability_array_equals_scalar_calls(channel):
    overlapping = ChannelModel(
        diff_a=1e-10, flow_v=0.01,
        z_a_tx=0.1, z_b_tx=0.15, z_a_rx=0.12, z_b_rx=0.2,
    )
    cases = [
        (channel, np.linspace(0.0, 40.0, 20001)),
        # the drift limit at t = 0 and where 4*D*t underflows; u * u
        # overflows at the largest times
        (channel, np.array([0.0, 5e-324, 20.0, 1e155, 1e308])),
        (overlapping, np.array([0.0, 5e-324, 1.0])),
        # where scipy's erf and libm's differ in the last digits
        (replace(channel, diff_a=1e-5), np.linspace(0.0, 40.0, 5001)),
        # the shift or 4*D*t overflows: h is 0, never nan
        (replace(channel, flow_v=10.0), np.array([0.0, 20.0, 5e307, 1e308, math.inf])),
        (replace(channel, diff_a=1e308), np.linspace(0.0, 40.0, 41)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, times in cases:
            h = hit_probability(model, times)
            assert isinstance(h, np.ndarray) and h.shape == times.shape
            want = [hit_probability(model, t) for t in times.tolist()]
            assert all(type(w) is float for w in want)
            assert h.tolist() == want
    # the shape of t is kept, and a numpy scalar still gives a float
    grid = np.linspace(1.0, 30.0, 6).reshape(2, 3)
    assert hit_probability(channel, grid).tolist() == [
        [hit_probability(channel, t) for t in row] for row in grid.tolist()
    ]
    assert type(hit_probability(channel, np.float64(20.0))) is float


def test_hit_probability_overlap_limit_at_zero_time():
    # overlapping intervals built directly (the config loader enforces a
    # downstream receiver, the pure geometry does not)
    model = ChannelModel(
        diff_a=1e-10, flow_v=0.01,
        z_a_tx=0.1, z_b_tx=0.15, z_a_rx=0.12, z_b_rx=0.2,
    )
    assert hit_probability(model, 0.0) == pytest.approx(0.03 / 0.05, rel=1e-12)
    # a time so small that 4*D*t underflows to zero sees the same overlap
    assert hit_probability(model, 5e-324) == hit_probability(model, 0.0)


def test_hit_probability_symmetry_around_alignment(channel):
    # equal interval lengths: perfect alignment at t_s, mirror images around it
    for delta in (0.5, 1.0, 2.0):
        lo = hit_probability(channel, 20.0 - delta)
        hi = hit_probability(channel, 20.0 + delta)
        assert lo == pytest.approx(hi, abs=1e-9)


def test_hit_probability_translation_invariance(channel):
    shifted = ChannelModel(
        diff_a=channel.diff_a, flow_v=channel.flow_v,
        z_a_tx=channel.z_a_tx + 0.07, z_b_tx=channel.z_b_tx + 0.07,
        z_a_rx=channel.z_a_rx + 0.07, z_b_rx=channel.z_b_rx + 0.07,
    )
    for t in (1.0, 15.0, 19.5, 20.0, 22.0):
        assert hit_probability(shifted, t) == pytest.approx(
            hit_probability(channel, t), abs=1e-12
        )


def test_hit_probability_monotone_in_window_size(channel):
    wider = ChannelModel(
        diff_a=channel.diff_a, flow_v=channel.flow_v,
        z_a_tx=channel.z_a_tx, z_b_tx=channel.z_b_tx,
        z_a_rx=channel.z_a_rx - 0.01, z_b_rx=channel.z_b_rx + 0.01,
    )
    for t in (14.0, 16.0, 18.0, 20.0, 22.0, 26.0):
        assert hit_probability(wider, t) >= hit_probability(channel, t)


def test_hit_probability_drift_only_limit():
    # vanishing diffusion: pure advection slides the block across the window
    model = ChannelModel(
        diff_a=1e-18, flow_v=0.01,
        z_a_tx=0.1, z_b_tx=0.15, z_a_rx=0.3, z_b_rx=0.35,
    )
    for t, want in ((17.5, 0.5), (20.0, 1.0), (22.5, 0.5), (10.0, 0.0)):
        assert hit_probability(model, t) == pytest.approx(want, abs=1e-6)


def test_hit_probability_plateau_for_wide_transmitter():
    cfg = load_config("z_a_tx = 0.075\nz_b_tx = 0.175")
    model = ChannelModel.from_config(cfg)
    mid = hit_probability(model, 20.0)
    assert mid == pytest.approx(0.5, abs=1e-9)
    for t in (19.0, 19.5, 20.5, 21.0):
        assert hit_probability(model, t) == pytest.approx(mid, rel=1e-3)


def test_quadrature_matches_closed_form(channel):
    for t in (1.0, 5.0, 10.0, 15.0, 19.0, 20.0, 21.0, 30.0, 40.0):
        gap = abs(hit_probability_quadrature(channel, t) - hit_probability(channel, t))
        assert gap < 1e-9


def test_quadrature_node_count_insensitive(channel):
    coarse = hit_probability_quadrature(channel, 20.0, nodes=512)
    fine = hit_probability_quadrature(channel, 20.0, nodes=4096)
    assert coarse == pytest.approx(fine, abs=1e-11)


def test_quadrature_validation(channel):
    with pytest.raises(ValueError):
        hit_probability_quadrature(channel, 0.0)
    with pytest.raises(ValueError):
        hit_probability_quadrature(channel, 20.0, nodes=8)

