"""Quadrupole trap model: saturation parameter, capture volume, direction-dependent depth.

The depth model is deliberately coarse. An atom leaving the cloud is decelerated
by the scattering force over the distance where the Zeeman detuning stays within
the power-broadened linewidth, so the shallow-axis depth scales as

    dU_min = KAPPA_GEOM * F_max * d_eff,
    F_max  = (hbar k Gamma / 2) * s / (1 + s),
    d_eff  = hbar Gamma sqrt(1 + s) / (MU_EFF * B')

with one Zeeman moment MU_EFF and one geometry factor KAPPA_GEOM calibrated at
the reference operating point (375 G/cm, s = 0.87 -> 0.15 K). The model sets
the depth only when no depth is given; every preset sets trap.depth_min_k.
Anisotropy between field axes is imposed explicitly:
dU(theta) = dU_min * (1 + (a - 1) cos^2 theta), deep axis along z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import BOHR_MAGNETON, GAMMA, HBAR, I_SAT, KB, WAVELENGTH

MU_EFF = BOHR_MAGNETON  # J/T, effective Zeeman moment of the escaping atom
# Calibrated so depth_minimum(375 G/cm, s=0.87) = 0.15 K with MU_EFF.
KAPPA_GEOM = 2.587


@dataclass
class TrapConfig:
    """Operating point of the trap.

    detuning is the cooling-laser detuning in units of gamma (negative = red).
    intensity is the total six-beam intensity in W/m^2. gradient is the strong-axis
    field gradient in T/m. depth_min, if given, overrides the derived shallow-axis
    depth (kelvin).
    """

    detuning: float = -3.35  # units of gamma
    intensity: float = 420.0  # W/m^2 (42 mW/cm^2)
    repump_sat: float = 4.0  # repump saturation parameter s0
    gradient: float = 3.75  # T/m (375 G/cm)
    r0: float = 10e-6  # m, cloud 1/sqrt(e) radius
    temperature: float = 316e-6  # K
    depth_min: float | None = None  # K; None -> derived from the force model
    depth_anisotropy: float = 4.0  # max/min depth ratio between directions
    load_rate: float = 0.17  # atoms/s
    bg_lifetime: float = 60.0  # s, background-collision lifetime

    def __post_init__(self):
        for name, value in vars(self).items():
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.intensity <= 0:
            raise ValueError("intensity must be positive")
        if self.repump_sat < 0:
            raise ValueError("repump_sat must be non-negative")
        if self.gradient <= 0:
            raise ValueError("gradient must be positive")
        if not 1e-6 <= self.r0 <= 1e-3:
            raise ValueError(f"r0 = {self.r0} m outside the sane band [1 um, 1 mm]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.depth_min is not None and self.depth_min <= 0:
            raise ValueError("depth_min must be positive when given")
        if self.depth_anisotropy < 1:
            raise ValueError("depth_anisotropy must be >= 1")
        if self.load_rate < 0 or self.bg_lifetime <= 0:
            raise ValueError("load_rate >= 0 and bg_lifetime > 0 required")


def saturation_parameter(config: TrapConfig) -> float:
    """Off-resonance saturation parameter s = (I/I_sat) / (1 + (2 delta/gamma)^2)."""
    return (config.intensity / I_SAT) / (1.0 + 4.0 * config.detuning**2)


def effective_volume(r0: float) -> float:
    """Gaussian-cloud pair volume (pi/2)^(3/2) r0^3, m^3."""
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    return (math.pi / 2.0) ** 1.5 * r0**3


def depth_minimum(config: TrapConfig) -> float:
    """Shallow-axis trap depth in kelvin.

    Returns config.depth_min when set; otherwise the scattering-force estimate
    described in the module docstring, evaluated with the strong-axis gradient.
    """
    if config.depth_min is not None:
        return config.depth_min
    s = saturation_parameter(config)
    k = 2.0 * math.pi / WAVELENGTH
    f_max = (HBAR * k * GAMMA / 2.0) * s / (1.0 + s)
    d_eff = HBAR * GAMMA * math.sqrt(1.0 + s) / (MU_EFF * config.gradient)
    return KAPPA_GEOM * f_max * d_eff / KB


def depth_from_cos(config: TrapConfig, cos_theta):
    """Direction-dependent escape threshold dU(theta), kelvin, parametrized by cos(theta).

    dU(theta) = dU_min * (1 + (a - 1) cos^2 theta) with a = depth_anisotropy;
    symmetric under theta -> pi - theta, max/min ratio exactly a.
    Accepts scalar or ndarray cos_theta.
    """
    du_min = depth_minimum(config)
    return du_min * (1.0 + (config.depth_anisotropy - 1.0) * np.asarray(cos_theta) ** 2)
