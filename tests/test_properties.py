"""Every configuration that loads runs every subcommand.

Configs are drawn over the whole float range, together: the keys that enter
the switching dose or the absorption scale, the flow and diffusion keys and
the duct length log-uniform over 1e-323..1e308, and the four interval ends
inside the duct in their load-time order. Each subcommand must
exit 0 or 1, or exit 2 with a one-line message, never raise, and print only
finite CSV cells. The analytic subcommands see populations up to the largest
float and flag values up to ``ber --n-sys 10**400``, ``--n-tx`` and
``--t-max`` from subnormal to inf; the simulating ones allocate memory per
molecule and realization, so they run at small sizes.
"""

import contextlib
import io
import math
import sys

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mediamod.cli import main

ANALYTIC = (
    ["validate"],
    ["switching-curve", "--points", "5"],
    ["cir", "--points", "9"],
    ["ber", "--points", "5"],
    ["ber", "--points", "5", "--derived"],
)
SIMULATING = (
    ["cir", "--pbs"],
    ["pmf"],
    ["ber", "--points", "3", "--trials", "50"],
)


def _log_uniform(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


def _decimal(max_exp):
    """Integers m * 10**e with m in 1..9 and e in 0..max_exp."""
    return st.tuples(st.integers(1, 9), st.integers(0, max_exp)).map(
        lambda me: me[0] * 10 ** me[1])


# 10**-330 underflows to 0.0; 10**308 is near the largest float
flag_float = st.one_of(st.just(math.inf), _log_uniform(-330, 308))


# 10**-323 is the smallest power of ten that does not round to 0.0
physics = st.fixed_dictionaries({
    "flow_v": _log_uniform(-323, 308),
    "diff_a": _log_uniform(-323, 308),
    "diff_b": _log_uniform(-323, 308),
    "irradiance_on": _log_uniform(-323, 308),
    "irradiation_time": _log_uniform(-323, 308),
    "molar_absorption": _log_uniform(-323, 308),
    "quantum_yield": _log_uniform(-323, 0),
    "wavelength_ba": _log_uniform(-323, 308),
    "width": _log_uniform(-323, 308),
})


@st.composite
def geometry(draw):
    """sys_length and the interval ends, 0 <= z_a_tx < z_b_tx <= z_a_rx <
    z_b_rx <= sys_length."""
    length = draw(_log_uniform(-323, 308))
    ends = sorted(draw(st.lists(st.floats(0.0, length), min_size=4, max_size=4)))
    assume(ends[0] < ends[1] and ends[2] < ends[3])
    return {"sys_length": length, **dict(zip(("z_a_tx", "z_b_tx", "z_a_rx", "z_b_rx"), ends))}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _columns(csv_text):
    """The columns of a CSV table by name, or nothing if there is none."""
    lines = [line.split(",") for line in csv_text.splitlines() if not line.startswith("#")]
    if not lines:
        return {}
    return {name: [float(row[i]) for row in lines[1:]] for i, name in enumerate(lines[0])}


def _check(argv, keys):
    args = list(argv)
    for key, value in keys.items():
        args += ["--set", f"{key}={value!r}"]
    code, out, err = _run(args)
    assert code in (0, 1, 2), (args, code)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)
        # every key drawn here is a config key: an unknown one tests nothing
        assert "unknown key" not in err, (args, err)
    columns = _columns(out) if argv[0] != "validate" else {}
    for name, cells in columns.items():
        assert all(math.isfinite(c) for c in cells), (args, name, cells)
    # an error rate is a probability of at most one half, at any population
    for ber in columns.get("ber_analytic", ()):
        assert 0.0 <= ber <= 0.5, (args, ber)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    keys=st.tuples(physics, geometry()).map(lambda kg: {**kg[0], **kg[1]}),
    n_big=st.one_of(st.just(sys.float_info.max), _log_uniform(0.0, 308.0)).map(int),
    n_small=st.integers(1, 10_000),
    n_real=st.integers(1, 5),
    n_flag=_decimal(400),
    n_trials_flag=_decimal(21),
    n_tx=flag_float,
    t_max=flag_float,
)
def test_every_valid_config_runs_every_subcommand(
    keys, n_big, n_small, n_real, n_flag, n_trials_flag, n_tx, t_max,
):
    for argv in ANALYTIC:
        _check(argv, {**keys, "n_sys": n_big})
    for theta in ("1", "3"):
        _check(["ber", "--points", "5", "--theta", theta, "--n-sys", str(n_flag)], keys)
        _check(["ber", "--points", "5", "--derived", "--theta", theta, "--n-sys", str(n_flag)], keys)
    _check(["switching-curve", "--points", "5", "--n-tx", repr(n_tx)], {**keys, "n_sys": n_big})
    _check(["cir", "--points", "9", "--t-max", repr(t_max)], {**keys, "n_sys": n_big})
    for argv in SIMULATING:
        _check(argv, {**keys, "n_sys": n_small, "n_realizations": n_real})
    # five trials: n_sys sets the binomial's size parameter, not an allocation
    _check(["ber", "--points", "3", "--trials", "5", "--n-sys", str(n_trials_flag)], keys)
