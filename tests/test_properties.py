"""Every configuration that loads runs every subcommand.

Configs are drawn from wide log-uniform ranges around the defaults; each
subcommand must exit 0 or 1, or exit 2 with a one-line message, and never
raise. The analytic subcommands see populations up to 1e30; the simulating
ones allocate memory per molecule and realization, so they run at small
sizes.
"""

import contextlib
import io

from hypothesis import given, settings
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


physics = st.fixed_dictionaries({
    "flow_v": _log_uniform(-5, 1),
    "diff_a": _log_uniform(-13, -6),
    "irradiance_on": _log_uniform(-3, 9),
    "irradiation_time": _log_uniform(-6, 1),
    "molar_absorption": _log_uniform(0, 6),
    "height": _log_uniform(-5, -1),
    "quantum_yield": st.floats(1e-6, 1.0),
    "z_a_tx": st.floats(0.0, 0.149),
})


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def _check(argv, keys):
    args = list(argv)
    for key, value in keys.items():
        args += ["--set", f"{key}={value!r}"]
    code, err = _run(args)
    assert code in (0, 1, 2), (args, code)
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1, (args, err)


@settings(derandomize=True, deadline=None, database=None, max_examples=60)
@given(
    keys=physics,
    n_big=st.floats(0.0, 30.0).map(lambda e: int(10.0 ** e)),
    n_small=st.integers(1, 10_000),
    n_real=st.integers(1, 5),
)
def test_every_valid_config_runs_every_subcommand(keys, n_big, n_small, n_real):
    for argv in ANALYTIC:
        _check(argv, {**keys, "n_sys": n_big})
    for argv in SIMULATING:
        _check(argv, {**keys, "n_sys": n_small, "n_realizations": n_real})
