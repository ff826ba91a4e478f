"""
Experiment configuration for the media-modulation link simulator.

All parameters are SI. A configuration is described by a flat ``key = value``
text document; omitted keys fall back to the default duct/molecule parameter
set. Loading validates every physical invariant (positive geometry, receiver
downstream of the transmitter, intervals inside the system volume, ...) so
that downstream modules can assume a consistent :class:`SystemConfig`.

The configuration is immutable after construction and safe to share across
concurrent workers.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, fields, replace


class ConfigError(ValueError):
    """Malformed configuration text or violated parameter invariant."""


@dataclass(frozen=True)
class SystemConfig:
    """Complete, validated description of one link experiment.

    Field names are the configuration keys, in serialization order.
    """

    sys_length: float = 0.5            # m, axial extent of the observed subvolume
    height: float = 1e-3               # m, duct height (cancels from every derived value)
    width: float = 1e-3                # m, duct width
    z_a_tx: float = 0.1                # m, upstream edge of the illuminated interval
    z_b_tx: float = 0.15               # m, downstream edge
    irradiance_on: float = 1e3         # W/m^2, input power density for bit 1
    irradiation_time: float = 5e-3     # s, illumination duration per symbol
    wavelength_ba: float = 365e-9      # m, switch-on wavelength (state B -> A)
    z_a_rx: float = 0.3                # m, upstream edge of the counting window
    z_b_rx: float = 0.35               # m, downstream edge
    diff_a: float = 1e-10              # m^2/s, diffusion coefficient, state A
    diff_b: float = 1e-10              # m^2/s, diffusion coefficient, state B
    molar_absorption: float = 8.3e3    # m^2/mol, molar absorption coefficient
    quantum_yield: float = 0.41        # switched molecules per absorbed photon
    flow_v: float = 0.01               # m/s, uniform axial flow velocity
    n_sys: int = 1000                  # signaling molecules in the subvolume
    n_realizations: int = 10000        # Monte-Carlo realizations per ensemble
    seed: int = 12345                  # master seed for all stochastic runs

    @property
    def area_tx(self) -> float:
        """Illuminated duct surface area [m^2]."""
        return (self.z_b_tx - self.z_a_tx) * self.width

    @property
    def p_tx(self) -> float:
        """Probability that a uniformly placed molecule starts inside the
        illuminated interval: its share of the duct length (the cross
        section cancels from the volume ratio)."""
        return (self.z_b_tx - self.z_a_tx) / self.sys_length

    @property
    def d(self) -> float:
        """Center-to-center transmitter/receiver distance [m]."""
        return (self.z_b_rx + self.z_a_rx) / 2.0 - (self.z_b_tx + self.z_a_tx) / 2.0

    @property
    def t_s(self) -> float:
        """Sampling time d / flow_v [s]: the mean transit time from the
        illuminated interval to the counting window."""
        return self.d / self.flow_v


@dataclass(frozen=True)
class ValidityReport:
    """Outcome of the static-molecule check (see validate_static_assumption)."""

    lhs: float     # m, diffusion + drift displacement during illumination
    rhs: float     # m, axial extent of the illuminated interval
    ratio: float   # lhs / rhs
    ok: bool


KNOWN_KEYS = tuple(f.name for f in fields(SystemConfig))   # canonical key order

_INT_KEYS = ("n_sys", "n_realizations", "seed")


def parse_document(text: str) -> dict[str, str]:
    """Parse a flat ``key = value`` document into a raw string mapping.

    Blank lines and ``#`` comments are skipped. Unknown keys, duplicate keys,
    and lines without ``=`` are rejected.
    """
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if not value:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        raw[key] = value
    return raw


def _convert(key: str, value: str) -> float | int:
    if key in _INT_KEYS:
        try:
            return int(value)   # exact for integers beyond float precision
        except ValueError:
            pass                # integral float forms such as 1e3
    try:
        x = float(value)
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {value!r} as a number") from None
    if not math.isfinite(x):
        raise ConfigError(f"key {key!r}: value must be finite, got {value!r}")
    if key in _INT_KEYS:
        if x != int(x):
            raise ConfigError(f"key {key!r}: expected an integer, got {value!r}")
        return int(x)
    return x


def build_config(mapping: dict[str, str]) -> SystemConfig:
    """Build and validate a SystemConfig from a raw key/value mapping.

    ``diff_b`` follows ``diff_a`` when not set explicitly (the molecule is
    assumed to keep its size when its state changes).
    """
    for key in mapping:
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown key {key!r}")
    values: dict[str, float | int] = {k: _convert(k, v) for k, v in mapping.items()}
    if "diff_a" in values and "diff_b" not in values:
        values["diff_b"] = values["diff_a"]

    cfg = replace(SystemConfig(), **values)
    validate_config(cfg)
    return cfg


def load_config(text: str) -> SystemConfig:
    """Load a SystemConfig from configuration text (empty text -> defaults)."""
    return build_config(parse_document(text))


def _require(ok: bool, name: str, predicate: str) -> None:
    if not ok:
        raise ConfigError(f"invariant violation: {name} must satisfy {predicate}")


def validate_config(cfg: SystemConfig) -> None:
    """Check every parameter invariant; raise ConfigError naming the field."""
    _require(cfg.height > 0, "height", "> 0")
    _require(cfg.width > 0, "width", "> 0")
    _require(cfg.sys_length > 0, "sys_length", "> 0")

    _require(cfg.z_a_tx >= 0, "z_a_tx", ">= 0")
    _require(cfg.z_a_tx < cfg.z_b_tx, "z_a_tx", "< z_b_tx")
    _require(cfg.irradiance_on >= 0, "irradiance_on", ">= 0")
    _require(cfg.irradiation_time > 0, "irradiation_time", "> 0")
    _require(cfg.wavelength_ba > 0, "wavelength_ba", "> 0")

    _require(cfg.z_a_rx < cfg.z_b_rx, "z_a_rx", "< z_b_rx")
    _require(cfg.z_a_rx >= cfg.z_b_tx, "z_a_rx", ">= z_b_tx (receiver downstream)")
    _require(cfg.z_b_tx <= cfg.sys_length, "z_b_tx", "<= sys_length")
    _require(cfg.z_b_rx <= cfg.sys_length, "z_b_rx", "<= sys_length")

    _require(cfg.diff_a > 0, "diff_a", "> 0")
    _require(cfg.diff_b > 0, "diff_b", "> 0")
    _require(cfg.molar_absorption > 0, "molar_absorption", "> 0")
    _require(0 < cfg.quantum_yield <= 1, "quantum_yield", "in (0, 1]")

    _require(cfg.flow_v > 0, "flow_v", "> 0")
    # products and ratios of in-range keys can still underflow or overflow
    _require(0 < cfg.area_tx < math.inf, "area_tx = (z_b_tx - z_a_tx) * width", "in (0, inf)")
    _require(cfg.p_tx > 0, "p_tx = (z_b_tx - z_a_tx) / sys_length", "> 0")
    _require(cfg.t_s < math.inf, "t_s = d / flow_v", "< inf")
    _require(cfg.n_sys >= 1, "n_sys", ">= 1")
    _require(cfg.n_sys <= sys.float_info.max, "n_sys", "<= the largest float")
    _require(cfg.n_realizations >= 1, "n_realizations", ">= 1")
    _require(cfg.n_realizations <= sys.maxsize, "n_realizations", "<= sys.maxsize")
    _require(cfg.seed >= 0, "seed", ">= 0")


def _format_value(x: float | int) -> str:
    return repr(x) if isinstance(x, float) else str(x)


def config_items(cfg: SystemConfig) -> list[tuple[str, float | int]]:
    """All configurable values in canonical key order."""
    return [(key, getattr(cfg, key)) for key in KNOWN_KEYS]


def serialize_config(cfg: SystemConfig) -> str:
    """Render cfg as configuration text. load_config(serialize_config(cfg))
    reconstructs an identical SystemConfig (floats round-trip via repr)."""
    lines = [f"{key} = {_format_value(value)}" for key, value in config_items(cfg)]
    return "\n".join(lines) + "\n"


def validate_static_assumption(cfg: SystemConfig, threshold: float = 0.01) -> ValidityReport:
    """Check that molecules barely move while the transmitter is lit.

    The displacement scale during one illumination, diffusion standard
    deviation plus flow drift, must be a small fraction of the illuminated
    interval; otherwise the closed-volume switching model is invalid.
    The default threshold 0.01 operationalizes "much smaller than".
    """
    t_on = cfg.irradiation_time
    lhs = math.sqrt(2.0 * cfg.diff_b * t_on) + cfg.flow_v * t_on
    rhs = cfg.z_b_tx - cfg.z_a_tx
    ratio = lhs / rhs
    return ValidityReport(lhs=lhs, rhs=rhs, ratio=ratio, ok=ratio < threshold)
