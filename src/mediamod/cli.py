"""
Command line front end.

Subcommands:
  validate          parameter invariants, static-molecule regime, derived values
  switching-curve   switch probability over a power sweep, per illuminated count
  cir               expected count over a time grid, optionally with simulation
  pmf               analytic vs simulated count distribution at the sampling time
  ber               bit error rate over a power sweep, per population size

Output goes to stdout (or --out FILE): a report from validate, CSV from the
rest. Every table embeds the fully resolved configuration as '#' comment
lines, and floats are written with repr, so reruns with identical inputs
produce byte-identical files.

Exit codes: 0 ok, 1 a validation check failed, 2 usage or config error
(including a run too large for the available memory).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

import numpy as np

from .channel import hit_probability
from .config import (
    ConfigError,
    SystemConfig,
    build_config,
    parse_document,
    serialize_config,
    validate_static_assumption,
)
from .detect import ber_analytic, ber_empirical
from .pbs import empirical_pmf, run_ensemble
from .photochem import SwitchingModel, photon_flux, switch_probability
from .stats import received_count_pmf, received_distribution, switched_distribution

CONFIG_ENV_VAR = "MEDIAMOD_CONFIG"

# power sweeps run against a fixed reference channel unless --derived is set
_REFERENCE_HIT = 0.999
_REFERENCE_PTX = 0.1


def _load_cfg(args: argparse.Namespace) -> SystemConfig:
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    mapping: dict[str, str] = {}
    if path:
        mapping = parse_document(Path(path).read_text())
    for item in args.set or []:
        key, sep, value = item.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ConfigError(f"--set expects key=value, got {item!r}")
        mapping[key.strip()] = value.strip()
    if args.seed is not None:
        mapping["seed"] = str(args.seed)
    return build_config(mapping)


def _emit(args: argparse.Namespace, cfg: SystemConfig, columns: list[str],
          cells: list[list], footer: list[str] | None = None) -> None:
    """Write a table given as equal-length columns, with one repr pass per column."""
    lines = [f"# {line}" for line in serialize_config(cfg).splitlines()]
    lines.append(",".join(columns))
    lines.extend(map(",".join, zip(*[map(repr, col) for col in cells], strict=True)))
    lines.extend(footer or [])
    _write(args, lines)


def _write(args: argparse.Namespace, lines: list[str]) -> None:
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _require_finite(name: str, values) -> None:
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"{name} must be finite")


def _power_grid(args: argparse.Namespace) -> list[float]:
    if args.power:
        _require_finite("--power values", args.power)
        if any(p < 0 for p in args.power):
            raise ConfigError("--power values must be non-negative")
        if any(b <= a for a, b in zip(args.power, args.power[1:])):
            raise ConfigError("--power values must be strictly increasing")
        return list(args.power)
    _require_finite("power bounds", (args.p_min, args.p_max))
    if args.p_min <= 0 or args.p_max <= 0:
        raise ConfigError("power bounds must be positive")
    if args.p_max < args.p_min:
        raise ConfigError("--p-max must be >= --p-min")
    if args.points < 1:
        raise ConfigError("--points must be >= 1")
    grid = np.logspace(math.log10(args.p_min), math.log10(args.p_max), args.points)
    return [float(p) for p in grid]


def _cmd_validate(cfg: SystemConfig, args: argparse.Namespace) -> int:
    _require_finite("--threshold", (args.threshold,))
    if args.threshold <= 0:
        raise ConfigError("--threshold must be positive")
    report = validate_static_assumption(cfg, threshold=args.threshold)
    model = SwitchingModel.from_config(cfg)
    p_one, p_exp = switch_probability(model, [1.0, cfg.n_sys * cfg.p_tx]).tolist()
    # relative shift of p_switch when all expected molecules compete
    margin = abs(p_exp - p_one) / p_one if p_one > 0 else 0.0
    independent = margin < 0.01
    flux = photon_flux(cfg.irradiance_on, cfg.area_tx, cfg.wavelength_ba)
    _write(args, [
        f"displacement_during_illumination = {report.lhs!r} m",
        f"illuminated_interval = {report.rhs!r} m",
        f"ratio = {report.ratio!r} (threshold {args.threshold!r})",
        f"static_assumption = {'ok' if report.ok else 'violated'}",
        f"p_tx = {cfg.p_tx!r}",
        f"sampling_time = {cfg.t_s!r} s",
        f"absorption_scale = {model.absorption_scale!r}",
        f"photon_flux_at_irradiance_on = {flux!r} 1/s",
        f"switch_independence_margin = {margin!r}",
        f"switch_independence = {'ok' if independent else 'violated'}",
    ])
    return 0 if (report.ok and independent) else 1


def _cmd_switching_curve(cfg: SystemConfig, args: argparse.Namespace) -> int:
    n_tx_values = args.n_tx or [cfg.n_sys * cfg.p_tx]
    _require_finite("--n-tx values", n_tx_values)
    if any(n <= 0 for n in n_tx_values):
        raise ConfigError("--n-tx values must be positive")
    powers = _power_grid(args)
    model = SwitchingModel.from_config(cfg, irradiance=np.array(powers)[:, None])
    p_sw = switch_probability(model, n_tx_values)
    # one row per power and count, powers outer
    cells = [np.repeat(powers, len(n_tx_values)).tolist(), n_tx_values * len(powers),
             p_sw.ravel().tolist()]
    _emit(args, cfg, ["power_w_per_m2", "n_tx", "p_switch"], cells)
    return 0


def _cmd_cir(cfg: SystemConfig, args: argparse.Namespace) -> int:
    _require_finite("--t-max", (args.t_max,))
    if args.t_max <= 0 or args.points < 2:
        raise ConfigError("--t-max must be positive and --points >= 2")
    scale = switched_distribution(cfg).mean   # expected switched count
    times = np.linspace(0.0, args.t_max, args.points)
    h = hit_probability(cfg, times)

    columns = ["t_seconds", "h_analytic", "cir_analytic"]
    cells = [times.tolist(), h.tolist(), (scale * h).tolist()]
    if args.pbs:
        pbs_stats = run_ensemble(cfg, s=1, record_times=times)
        columns += ["cir_pbs_mean", "cir_pbs_stderr"]
        cells += [pbs_stats.mean_rx.tolist(), pbs_stats.stderr_rx.tolist()]
    _emit(args, cfg, columns, cells)
    return 0


def _cmd_pmf(cfg: SystemConfig, args: argparse.Namespace) -> int:
    stats = run_ensemble(cfg, s=args.s, record_times=(cfg.t_s,))
    counts = stats.counts_rx[:, 0]
    dist = received_distribution(cfg, s=args.s)
    spread = int(math.ceil(dist.mean + 8.0 * math.sqrt(dist.variance)))
    n_max = min(cfg.n_sys, max(int(counts.max()), spread))
    k = np.arange(n_max + 1)
    analytic = received_count_pmf(dist, k)
    empirical = empirical_pmf(counts, n_max=n_max)
    tv = 0.5 * float(np.abs(analytic - empirical).sum()) + 0.5 * float(1.0 - analytic.sum())
    _emit(args, cfg, ["k", "pmf_analytic", "pmf_empirical"],
          [k.tolist(), analytic.tolist(), empirical.tolist()],
          footer=[f"# tv_distance = {tv!r}", f"# realizations = {cfg.n_realizations}"])
    return 0


def _cmd_ber(cfg: SystemConfig, args: argparse.Namespace) -> int:
    if args.theta < 1:
        raise ConfigError("--theta must be >= 1")
    if args.trials < 0:
        raise ConfigError("--trials must be >= 0")
    if args.trials > sys.maxsize:
        raise ConfigError(f"--trials must not exceed {sys.maxsize}")
    n_sys_values = args.n_sys or [cfg.n_sys]
    if any(n < 1 for n in n_sys_values):
        raise ConfigError("--n-sys values must be >= 1")
    if any(n > sys.float_info.max for n in n_sys_values):
        raise ConfigError("--n-sys values must not exceed the largest float")
    if args.trials > 0 and any(n > sys.maxsize for n in n_sys_values):
        raise ConfigError(f"--n-sys values must not exceed {sys.maxsize} with --trials")
    if args.derived:
        p_tx = cfg.p_tx
        hit = hit_probability(cfg, cfg.t_s)
    else:
        p_tx = _REFERENCE_PTX
        hit = _REFERENCE_HIT
    rng = np.random.default_rng(cfg.seed)
    columns = ["power_w_per_m2", "n_sys", "p_switch", "p_r", "ber_analytic"]
    if args.trials > 0:
        columns += ["ber_empirical", "ci95_lo", "ci95_hi"]
    powers = _power_grid(args)
    model = SwitchingModel.from_config(cfg, irradiance=np.array(powers))
    # one column triple (p_switch, p_r, ber) per population, each over the
    # whole power grid
    by_n_sys = []
    for n_sys in n_sys_values:
        # by hand: n_sys comes from --n-sys, and the reference channel
        # fixes p_tx = 0.1 and h = 0.999 independently of the config
        p_sw = switch_probability(model, n_sys * p_tx)
        p_r = p_tx * p_sw * hit
        by_n_sys.append((p_sw, p_r, ber_analytic(n_sys, p_r, theta=args.theta)))
    # one row per power and population, powers outer
    cells = [np.repeat(powers, len(n_sys_values)).tolist(), n_sys_values * len(powers)]
    cells += [np.ravel(col, order="F").tolist() for col in zip(*by_n_sys)]
    if args.trials > 0:
        ests = [ber_empirical(n_sys, p_r, args.trials, rng, theta=args.theta)
                for n_sys, p_r in zip(cells[1], cells[3])]
        cells += [[e.ber for e in ests], [e.ci_low for e in ests], [e.ci_high for e in ests]]
    mode = "derived" if args.derived else "reference"
    _emit(args, cfg, columns, cells,
          footer=[f"# channel_mode = {mode}", f"# hit_probability = {hit!r}"])
    return 0


@functools.cache   # built once per process; parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mediamod",
        description="Analytical models and particle simulation of a "
                    "media-modulation molecular communication link.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"config file (or ${CONFIG_ENV_VAR})")
    common.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    common.add_argument("--seed", type=int, help="override the master seed")
    common.add_argument("--out", help="write the output here instead of stdout")

    power = argparse.ArgumentParser(add_help=False)
    power.add_argument("--p-min", type=float, default=1e3, help="W/m^2 (default 1e3)")
    power.add_argument("--p-max", type=float, default=1e6, help="W/m^2 (default 1e6)")
    power.add_argument("--points", type=int, default=25,
                       help="log-spaced grid size (default 25)")
    power.add_argument("--power", type=float, action="append", metavar="P",
                       help="explicit power value, repeatable (overrides the grid)")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", parents=[common],
                       help="check invariants, the static-molecule regime, "
                            "and switching independence")
    p.add_argument("--threshold", type=float, default=0.01,
                   help="max displacement/interval ratio (default 0.01)")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("switching-curve", parents=[common, power],
                       help="switch probability vs input power")
    p.add_argument("--n-tx", type=float, action="append", metavar="N",
                   help="illuminated molecule count, repeatable "
                        "(default: expected count from the config)")
    p.set_defaults(func=_cmd_switching_curve)

    p = sub.add_parser("cir", parents=[common],
                       help="hit probability and expected count vs time")
    p.add_argument("--t-max", type=float, default=40.0, help="s (default 40)")
    p.add_argument("--points", type=int, default=41, help="grid size (default 41)")
    p.add_argument("--pbs", action="store_true",
                   help="add simulated mean and standard error columns")
    p.set_defaults(func=_cmd_cir)

    p = sub.add_parser("pmf", parents=[common],
                       help="count distribution at the sampling time, "
                            "analytic vs simulated")
    p.add_argument("--s", type=int, default=1, choices=(0, 1),
                   help="transmitted bit (default 1)")
    p.set_defaults(func=_cmd_pmf)

    p = sub.add_parser("ber", parents=[common, power],
                       help="bit error rate vs input power")
    p.add_argument("--n-sys", type=int, action="append", metavar="N",
                   help="population size, repeatable (default: from config)")
    p.add_argument("--theta", type=int, default=1, help="detection threshold (default 1)")
    p.add_argument("--derived", action="store_true",
                   help="derive the transport factor from the configured channel "
                        "instead of the fixed reference value")
    p.add_argument("--trials", type=int, default=0,
                   help="add Monte-Carlo columns with this many trials per row")
    p.set_defaults(func=_cmd_ber)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_cfg(args)
        return args.func(cfg, args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
