"""Flat key=value run configuration.

Keys are dotted and unit-suffixed (trap.r0_um, trace.per_atom_rate_hz);
values are converted to the SI quantities the library works in. Unknown keys
are rejected rather than ignored so a typo cannot silently fall back to a
default. Presets bundle the operating points of the standard measurement runs
and are applied underneath any user config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .channels import ChannelSet, effective_betas
from .constants import CM3_PER_M3
from .markov import RateModel
from .trap import TrapConfig, effective_volume


class ConfigError(ValueError):
    """Unknown key, malformed value, or inconsistent parameter set."""


def _per(power_of_ten: float) -> Callable[[str], float]:
    """Divides by the exact power of ten, so '10' um reads as 10e-6 m (times
    1e-6, an inexact factor, it reads as 9.999999999999999e-06)."""
    return lambda v: float(v) / power_of_ten


# key -> (constructor group, field name, converter to internal units)
_KEYS: dict[str, tuple[str, str, Callable[[str], object]]] = {
    "trap.repump_sat": ("trap", "repump_sat", float),
    "trap.r0_um": ("trap", "r0", _per(1e6)),
    "trap.temperature_uk": ("trap", "temperature", _per(1e6)),
    "trap.depth_min_k": ("trap", "depth_min", float),
    "trap.load_rate_per_s": ("trap", "load_rate", float),
    "trap.bg_lifetime_s": ("trap", "bg_lifetime", float),
    "channels.beta_hcc_cm3_s": ("channels", "beta_hcc", float),
    "channels.beta_re_cm3_s": ("channels", "beta_re", float),
    "channels.beta_fcc_cm3_s": ("channels", "beta_fcc", float),
    "sim.duration_s": ("run", "duration", float),
    "sim.n0": ("run", "n0", int),
    "sim.seed": ("run", "seed", int),
    "rates.b1_per_s": ("run", "b1", float),
    "rates.b2_per_s": ("run", "b2", float),
    "trace.per_atom_rate_hz": ("run", "per_atom_rate", float),
    "trace.bg_rate_hz": ("run", "trace_bg_rate", float),
    "trace.bin_width_s": ("run", "bin_width", float),
}

# Operating points of the standard runs. fig2: steady-state statistics at a
# mean occupancy near 2.6 with explicit event-rate coefficients. fig4a..c:
# repump-power scans at the three calibrated temperatures; the shallow trap
# depth (45 mK against 220 mK per atom) makes every surviving ground-channel
# collision eject both atoms.
PRESETS: dict[str, dict[str, str]] = {
    "fig2": {
        "trap.load_rate_per_s": "0.1403",  # stationary mean N = 2.60
        "trap.bg_lifetime_s": "60",
        "trap.depth_min_k": "0.045",
        "rates.b1_per_s": "0.004",
        "rates.b2_per_s": "0.006",
    },
    "fig4a": {
        "trap.temperature_uk": "316",
        "trap.depth_min_k": "0.045",
        "trap.r0_um": "10",
    },
    "fig4b": {
        "trap.temperature_uk": "506",
        "trap.depth_min_k": "0.045",
        "trap.r0_um": "10",
    },
    "fig4c": {
        "trap.temperature_uk": "705",
        "trap.depth_min_k": "0.045",
        "trap.r0_um": "10",
    },
}


@dataclass
class RunConfig:
    """Everything a run needs, in internal units."""

    trap: TrapConfig = field(default_factory=TrapConfig)
    channels: ChannelSet = field(default_factory=ChannelSet)
    duration: float = 0.0  # s; must be set before simulating
    n0: int = 0
    seed: int = 0
    b1: float | None = None  # 1/s; with b2, explicit override of the composed pair
    b2: float | None = None  # 1/s
    per_atom_rate: float = 10_000.0  # Hz
    trace_bg_rate: float = 500.0  # Hz
    bin_width: float = 0.1  # s

    def volume_cm3(self) -> float:
        return effective_volume(self.trap.r0) * CM3_PER_M3

    def rate_model(self) -> RateModel:
        """Birth-death rates at this operating point.

        Explicit rates.b1/b2, set both or neither, take precedence;
        otherwise the channel set is composed through the Monte Carlo outcome
        classifier and divided by the effective volume. Rates whose pair rate
        2 * (b1 + b2), the collision rate out of N = 2, is not finite are
        refused, naming the keys that gave them.
        """
        b1, b2 = self.b1, self.b2
        if (b1 is None) != (b2 is None):
            raise ConfigError("rates.b1_per_s and rates.b2_per_s must be set together "
                              "or not at all")
        if b1 is None:
            # as Python floats, whose quotient overflows to inf without a warning
            e1, e2 = map(float, effective_betas(self.trap, self.channels))
            v = self.volume_cm3()
            b1, b2 = e1 / v, e2 / (2.0 * v)
            sources = ("channels.beta_hcc_cm3_s, channels.beta_re_cm3_s and "
                       "channels.beta_fcc_cm3_s over the trap.r0_um volume compose to")
        else:
            sources = "rates.b1_per_s and rates.b2_per_s give"
        if not 2.0 * (b1 + b2) < math.inf:
            raise ConfigError(f"{sources} b1 = {b1:.3g}, b2 = {b2:.3g} per s, "
                              "whose pair rate 2 * (b1 + b2) is not finite")
        return RateModel(load_rate=self.trap.load_rate,
                         bg_rate=1.0 / self.trap.bg_lifetime, b1=b1, b2=b2)


def parse_pairs(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse 'key = value' lines; '#' starts a comment, blank lines skipped."""
    pairs: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if not key or not val:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in pairs:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        pairs[key] = val
    return pairs


def build_config(pairs: dict[str, str]) -> RunConfig:
    """Convert raw key/value pairs into a validated RunConfig."""
    groups: dict[str, dict[str, object]] = {
        "trap": {}, "channels": {}, "run": {}}
    for key, raw in pairs.items():
        if key not in _KEYS:
            known = ", ".join(sorted(k for k in _KEYS if k.split(".")[0] == key.split(".")[0]))
            hint = f" (known keys with this prefix: {known})" if known else ""
            raise ConfigError(f"unknown config key {key!r}{hint}")
        group, name, conv = _KEYS[key]
        try:
            value = conv(raw)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError("must be finite")
            if isinstance(value, int) and not 0 <= value < 2**63:  # n0, seed: int64 counts
                raise ValueError("must be non-negative" if value < 0 else "must be below 2**63")
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
        groups[group][name] = value
    try:
        trap = TrapConfig(**groups["trap"])
        cs = ChannelSet(**groups["channels"])
        run = RunConfig(trap=trap, channels=cs, **groups["run"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    for key, ok, rule in (
            ("sim.duration_s", run.duration >= 0, "non-negative"),
            ("trace.bin_width_s", run.bin_width > 0, "positive"),
            ("trace.per_atom_rate_hz", run.per_atom_rate > 0, "positive"),
            ("trace.bg_rate_hz", run.trace_bg_rate >= 0, "non-negative"),
            ("rates.b1_per_s", run.b1 is None or run.b1 >= 0, "non-negative"),
            ("rates.b2_per_s", run.b2 is None or run.b2 >= 0, "non-negative")):
        if not ok:
            raise ConfigError(f"{key} must be {rule}")
    return run


def load_config(path: str | Path | None = None, preset: str | None = None,
                overrides: dict[str, str] | None = None) -> RunConfig:
    """Assemble a RunConfig from preset, config file, and explicit overrides.

    Later sources win: preset < file < overrides.
    """
    pairs: dict[str, str] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(
                f"unknown preset {preset!r}; available: {', '.join(sorted(PRESETS))}")
        pairs.update(PRESETS[preset])
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {p}")
        pairs.update(parse_pairs(p.read_text(), source=str(p)))
    if overrides:
        pairs.update(overrides)
    return build_config(pairs)
