"""Quadrupole trap model: saturation parameter, capture volume, direction-dependent depth.

The depth model is deliberately coarse. An atom leaving the cloud is decelerated
by the scattering force over the distance where the Zeeman detuning stays within
the power-broadened linewidth, so the shallow-axis depth scales as

    dU_min = kappa_geom * F_max * d_eff,
    F_max  = (hbar k Gamma / 2) * s / (1 + s),
    d_eff  = hbar Gamma sqrt(1 + s) / (mu_eff * B')

with a single geometry factor kappa_geom calibrated at the reference operating
point (375 G/cm, s = 0.87 -> 0.15 K). Anisotropy between field axes is imposed
explicitly: dU(theta) = dU_min * (1 + (a - 1) cos^2 theta), deep axis along z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CESIUM, BOHR_MAGNETON, PhysConstants

# Calibrated so depth_minimum(375 G/cm, s=0.87) = 0.15 K with mu_eff = 1 Bohr magneton.
KAPPA_GEOM_DEFAULT = 2.587


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
    kappa_geom: float = KAPPA_GEOM_DEFAULT
    mu_eff: float = BOHR_MAGNETON  # J/T, effective Zeeman moment of the escaping atom
    load_rate: float = 0.17  # atoms/s
    bg_lifetime: float = 60.0  # s, background-collision lifetime

    def __post_init__(self):
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


def saturation_parameter(config: TrapConfig, i_sat: float | None = None,
                         pc: PhysConstants = CESIUM) -> float:
    """Off-resonance saturation parameter s = (I/I_sat) / (1 + (2 delta/gamma)^2)."""
    isat = pc.i_sat if i_sat is None else i_sat
    return (config.intensity / isat) / (1.0 + 4.0 * config.detuning**2)


def effective_volume(r0: float) -> float:
    """Gaussian-cloud pair volume (pi/2)^(3/2) r0^3, m^3."""
    if r0 <= 0:
        raise ValueError("r0 must be positive")
    return (math.pi / 2.0) ** 1.5 * r0**3


def pair_rate_gradient_scaling(gradient_from: float, gradient_to: float) -> float:
    """Two-body rate scaling between gradients: density goes as B'^(3/2), pair rate as B'^3."""
    if gradient_from <= 0 or gradient_to <= 0:
        raise ValueError("gradients must be positive")
    return (gradient_to / gradient_from) ** 3


def depth_minimum(config: TrapConfig, pc: PhysConstants = CESIUM) -> float:
    """Shallow-axis trap depth in kelvin.

    Returns config.depth_min when set; otherwise the scattering-force estimate
    described in the module docstring, evaluated with the strong-axis gradient.
    """
    if config.depth_min is not None:
        return config.depth_min
    s = saturation_parameter(config, pc=pc)
    k = 2.0 * math.pi / pc.wavelength
    f_max = (pc.hbar * k * pc.gamma / 2.0) * s / (1.0 + s)
    d_eff = pc.hbar * pc.gamma * math.sqrt(1.0 + s) / (config.mu_eff * config.gradient)
    return config.kappa_geom * f_max * d_eff / pc.kb


def trap_depth(config: TrapConfig, polar_angle, pc: PhysConstants = CESIUM):
    """Direction-dependent escape threshold dU(theta), kelvin.

    dU(theta) = dU_min * (1 + (a - 1) cos^2 theta) with a = depth_anisotropy;
    symmetric under theta -> pi - theta, max/min ratio exactly a.
    Accepts scalar or ndarray polar_angle.
    """
    return depth_from_cos(config, np.cos(polar_angle), pc)


def depth_from_cos(config: TrapConfig, cos_theta, pc: PhysConstants = CESIUM):
    """trap_depth's dU(theta), parametrized by cos(theta); handy for sampled directions."""
    du_min = depth_minimum(config, pc)
    return du_min * (1.0 + (config.depth_anisotropy - 1.0) * np.asarray(cos_theta) ** 2)


def photons_to_stop(energy_kelvin: float, pc: PhysConstants = CESIUM) -> float:
    """Number of photon recoils needed to remove the speed of an atom with the
    given kinetic energy (kelvin): sqrt(2 kB E / m) / v_recoil."""
    if energy_kelvin < 0:
        raise ValueError("energy must be non-negative")
    v = math.sqrt(2.0 * pc.kb * energy_kelvin / pc.mass)
    return v / pc.recoil_speed()
