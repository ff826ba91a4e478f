"""Benchmark workloads: the CLI calls of one op, its work units, and the
output gate that decides whether the op succeeded.

Every op is the argv list of one or more ``mediamod.cli.main`` calls, built
from the op's own seed. Gates parse the CSV the op wrote and compare it with
independent evaluations; their tolerances keep the false-failure rate of
correct code below one per 10^4 ops (derivations in LAYERS.md). Each
workload also knows how to move one checked value of a good output outside
its tolerance (by ten tolerances, or by one ulp where the check is exact),
which the benchmark uses to prove its gate is live.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import bdtr

from mediamod import (
    ChannelModel,
    hit_probability_quadrature,
    integrate_switching_ode,
    load_config,
    received_count_pmf,
    received_distribution,
)
from mediamod.config import KNOWN_KEYS
from mediamod.photochem import SwitchingModel

ENSEMBLE_REALIZATIONS = 500
PMF_REALIZATIONS = 10_000
BER_TRIALS = 1_000_000
BER_N_SYS = (10, 50, 100)
BER_POWERS = 2          # log grid 1e3 .. 1e6 W/m^2: low power and the error floor
SWEEP_CIR_POINTS = 20_001
SWEEP_N_TX = (10.0, 100.0, 1000.0, 1e6)
SWEEP_POWERS = 1000
SWEEP_N_SYS = (10, 100, 1000)
SWEEP_THETA = 3


@dataclass
class Table:
    """One CSV written by the CLI: '# key = value' lines (config and
    footers), the header, and the data rows as floats."""

    meta: dict[str, str]
    columns: list[str]
    rows: list[list[float]]
    text: str

    @classmethod
    def parse(cls, text: str) -> "Table":
        meta: dict[str, str] = {}
        columns: list[str] = []
        rows: list[list[float]] = []
        for line in text.splitlines():
            if line.startswith("#"):
                key, _, value = line[1:].partition("=")
                meta[key.strip()] = value.strip()
            elif not columns:
                columns = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
        if not columns or any(len(r) != len(columns) for r in rows):
            raise ValueError("malformed CSV table")
        return cls(meta, columns, rows, text)

    def col(self, name: str) -> list[float]:
        j = self.columns.index(name)
        return [r[j] for r in self.rows]

    def config(self):
        """The resolved configuration the CSV embeds."""
        return load_config("\n".join(f"{k} = {v}" for k, v in self.meta.items()
                                     if k in KNOWN_KEYS))

    def replaced(self, row: int, column: str, value: float) -> str:
        """The CSV text with one cell replaced (for gate self-tests)."""
        lines = self.text.split("\n")
        start = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
        cells = lines[start + row].split(",")
        cells[self.columns.index(column)] = repr(value)
        lines[start + row] = ",".join(cells)
        return "\n".join(lines)


def _check_seed(table: Table, seed: int) -> list[str]:
    got = int(table.meta.get("seed", "-1"))
    return [] if got == seed else [f"CSV seed {got} != op seed {seed}"]


# ---- ensemble_curve ---------------------------------------------------------

def _ensemble_calls(seed: int) -> list[list[str]]:
    return [["cir", "--pbs", "--t-max", "40", "--points", "41",
             "--set", f"n_realizations={ENSEMBLE_REALIZATIONS}", "--seed", str(seed)]]


def _ensemble_tolerances(table: Table) -> list[float]:
    # 5 standard errors; the sample stderr is floored by the model's, since
    # at the curve's edges a few realizations see a count and the sample
    # stderr of an all-zero column is 0
    n_sys = int(table.meta["n_sys"])
    out = []
    for cir, se in zip(table.col("cir_analytic"), table.col("cir_pbs_stderr")):
        p = min(max(cir / n_sys, 0.0), 1.0)
        se_model = math.sqrt(n_sys * p * (1.0 - p) / ENSEMBLE_REALIZATIONS)
        out.append(5.0 * max(se, se_model) + 1e-9)
    return out


def _ensemble_check(tables: list[Table], seed: int) -> list[str]:
    (t,) = tables
    problems = _check_seed(t, seed)
    if len(t.rows) != 41 or int(t.meta["n_realizations"]) != ENSEMBLE_REALIZATIONS:
        return problems + ["unexpected grid or ensemble size"]
    for i, (time_s, cir, mean, tol) in enumerate(zip(
            t.col("t_seconds"), t.col("cir_analytic"), t.col("cir_pbs_mean"),
            _ensemble_tolerances(t))):
        if time_s != float(i) or not abs(mean - cir) <= tol:
            problems.append(f"t={time_s!r}: mean {mean!r} vs analytic {cir!r} (tol {tol!r})")
    return problems


def _ensemble_corrupt(tables: list[Table]) -> list[str]:
    (t,) = tables
    stderr = t.col("cir_pbs_stderr")
    row = max(range(len(stderr)), key=stderr.__getitem__)
    mean = t.col("cir_pbs_mean")[row] + 10.0 * stderr[row]
    return [t.replaced(row, "cir_pbs_mean", mean)]


# ---- pmf_sampling -----------------------------------------------------------

def _pmf_calls(seed: int) -> list[list[str]]:
    return [["pmf", "--set", f"n_realizations={PMF_REALIZATIONS}", "--seed", str(seed)]]


def _pmf_check(tables: list[Table], seed: int) -> list[str]:
    (t,) = tables
    problems = _check_seed(t, seed)
    k = np.array(t.col("k"))
    analytic = np.array(t.col("pmf_analytic"))
    empirical = np.array(t.col("pmf_empirical"))
    want = received_count_pmf(received_distribution(t.config(), s=1), k.astype(np.int64))
    if not np.array_equal(analytic, want):
        problems.append("pmf_analytic differs from received_count_pmf")
    tv = float(t.meta["tv_distance"])
    tv_cols = 0.5 * float(np.abs(analytic - empirical).sum()) + 0.5 * float(1.0 - analytic.sum())
    if not abs(tv - tv_cols) <= 1e-12:
        problems.append(f"footer tv {tv!r} != tv of the columns {tv_cols!r}")
    if not tv < 0.05:
        problems.append(f"tv_distance {tv!r} >= 0.05")
    if int(t.meta["realizations"]) != PMF_REALIZATIONS or abs(empirical.sum() - 1.0) > 1e-9:
        problems.append("empirical pmf does not cover the ensemble")
    return problems


def _pmf_corrupt(tables: list[Table]) -> list[str]:
    (t,) = tables
    value = t.col("pmf_analytic")[0]
    return [t.replaced(0, "pmf_analytic", math.nextafter(value, 1.0))]


# ---- ber_mc -----------------------------------------------------------------

def _ber_calls(seed: int) -> list[list[str]]:
    argv = ["ber", "--trials", str(BER_TRIALS), "--p-min", "1e3", "--p-max", "1e6",
            "--points", str(BER_POWERS), "--seed", str(seed)]
    for n in BER_N_SYS:
        argv += ["--n-sys", str(n)]
    return [argv]


def _ber_tolerance(b: float) -> float:
    return 5.0 * math.sqrt(b * (1.0 - b) / BER_TRIALS)


def _ber_check(tables: list[Table], seed: int) -> list[str]:
    (t,) = tables
    problems = _check_seed(t, seed)
    if len(t.rows) != BER_POWERS * len(BER_N_SYS):
        return problems + [f"{len(t.rows)} rows"]
    for power, n, b, emp in zip(t.col("power_w_per_m2"), t.col("n_sys"),
                                t.col("ber_analytic"), t.col("ber_empirical")):
        if not abs(emp - b) <= _ber_tolerance(b):
            problems.append(f"power {power!r} n_sys {n!r}: empirical {emp!r} vs {b!r}")
    return problems


def _ber_corrupt(tables: list[Table]) -> list[str]:
    (t,) = tables
    b = t.col("ber_analytic")[0]
    return [t.replaced(0, "ber_empirical", b + 10.0 * _ber_tolerance(b))]


# ---- analytic_sweep ---------------------------------------------------------

def _sweep_calls(seed: int) -> list[list[str]]:
    s = str(seed)
    curve = ["switching-curve", "--points", str(SWEEP_POWERS), "--seed", s]
    for n in SWEEP_N_TX:
        curve += ["--n-tx", repr(n)]
    ber = ["ber", "--derived", "--theta", str(SWEEP_THETA), "--points", str(SWEEP_POWERS),
           "--seed", s]
    for n in SWEEP_N_SYS:
        ber += ["--n-sys", str(n)]
    return [["cir", "--points", str(SWEEP_CIR_POINTS), "--seed", s], curve, ber]


def _p_switch_ode(cfg, power: float, n_tx: float) -> float:
    model = SwitchingModel.from_config(cfg, irradiance=power)
    return 1.0 - integrate_switching_ode(model, n_tx, model.irradiation_time, steps=20000) / n_tx


def _sweep_check(tables: list[Table], seed: int) -> list[str]:
    cir, curve, ber = tables
    problems = [p for t in tables for p in _check_seed(t, seed)]
    if (len(cir.rows), len(curve.rows), len(ber.rows)) != (
            SWEEP_CIR_POINTS, SWEEP_POWERS * len(SWEEP_N_TX), SWEEP_POWERS * len(SWEEP_N_SYS)):
        return problems + ["unexpected row counts"]
    cfg = cir.config()
    pick = random.Random(seed)

    # transport closed form vs quadrature at sampled times (acceptance 04: 1e-9)
    channel = ChannelModel.from_config(cfg)
    for i in pick.sample(range(1, SWEEP_CIR_POINTS), 3):
        t_s, h = cir.rows[i][0], cir.rows[i][1]
        want = hit_probability_quadrature(channel, t_s)
        if not abs(h - want) <= 1e-9:
            problems.append(f"h({t_s!r}) = {h!r}, quadrature {want!r}")

    # switching closed form vs RK4 at sampled rows (acceptance 03: 1e-6
    # relative on the remaining state-B count)
    for i in pick.sample(range(len(curve.rows)), 2):
        power, n_tx, p = curve.rows[i]
        want = _p_switch_ode(cfg, power, n_tx)
        if not abs(p - want) <= 1e-6 * (1.0 - want) + 1e-15:
            problems.append(f"p_switch({power!r}, {n_tx!r}) = {p!r}, RK4 {want!r}")

    # error rate vs half the binomial cdf below the threshold, every row
    n = np.array(ber.col("n_sys")).astype(np.int64)
    p_r = np.array(ber.col("p_r"))
    got = np.array(ber.col("ber_analytic"))
    want = 0.5 * bdtr(SWEEP_THETA - 1, n, p_r)
    bad = ~(np.abs(got - want) <= 1e-6 * want + 1e-300)
    if bad.any():
        i = int(np.argmax(bad))
        problems.append(f"ber row {i}: {got[i]!r} vs binomial cdf {want[i]!r}")
    return problems


def _sweep_corrupt(tables: list[Table]) -> list[str]:
    cir, curve, ber = tables
    b = ber.col("ber_analytic")[0]
    return [cir.text, curve.text, ber.replaced(0, "ber_analytic", b * (1.0 + 1e-5))]


@dataclass(frozen=True)
class Workload:
    calls: Callable[[int], list[list[str]]]          # op seed -> argv of each CLI call
    units: Callable[[list[Table]], int]              # work units done by one op
    check: Callable[[list[Table], int], list[str]]   # problems found in the outputs
    corrupt: Callable[[list[Table]], list[str]]      # texts with one value broken


WORKLOADS = {
    "ensemble_curve": Workload(
        _ensemble_calls, lambda tables: ENSEMBLE_REALIZATIONS, _ensemble_check, _ensemble_corrupt),
    "pmf_sampling": Workload(
        _pmf_calls, lambda tables: PMF_REALIZATIONS, _pmf_check, _pmf_corrupt),
    "ber_mc": Workload(
        _ber_calls, lambda tables: BER_TRIALS * len(tables[0].rows), _ber_check, _ber_corrupt),
    "analytic_sweep": Workload(
        _sweep_calls, lambda tables: sum(len(t.rows) for t in tables), _sweep_check, _sweep_corrupt),
}
