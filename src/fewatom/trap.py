"""Quadrupole trap model: capture volume, direction-dependent depth.

The shallow-axis depth depth_min is a plain field; every preset sets it
through trap.depth_min_k. Anisotropy between field axes is imposed explicitly:
dU(theta) = dU_min * (1 + (a - 1) cos^2 theta), deep axis along z, with the
module constant a = DEPTH_ANISOTROPY; no config key sets it.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

DEPTH_ANISOTROPY = 4.0  # max/min depth ratio between directions


@dataclass
class TrapConfig:
    """Operating point of the trap. depth_min is the shallow-axis depth (kelvin)."""

    repump_sat: float = 4.0  # repump saturation parameter s0
    r0: float = 10e-6  # m, cloud 1/sqrt(e) radius
    temperature: float = 316e-6  # K
    # K; the scattering-force estimate at 42 mW/cm^2, -3.35 gamma and
    # 375 G/cm that an earlier depth model derived, written out
    depth_min: float = 0.14492300282222922
    load_rate: float = 0.17  # atoms/s
    bg_lifetime: float = 60.0  # s, background-collision lifetime
    # Accepted and ignored: the benchmark's repump scan still passes
    # intensity=420.0. ROADMAP item 1, the benchmark change, drops it from
    # bench/worker.py and from here.
    intensity: InitVar[float] = 420.0

    def __post_init__(self, intensity):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        if self.repump_sat < 0:
            raise ValueError("repump_sat must be non-negative")
        if not 1e-6 <= self.r0 <= 1e-3:
            raise ValueError(f"r0 = {self.r0} m outside the sane band [1 um, 1 mm]")
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.temperature > 1.0:  # (kB T)**2 overflows past 1e177 K
            raise ValueError(f"temperature = {self.temperature} K above 1 K, "
                             "far hotter than any trap holds")
        if self.depth_min <= 0:
            raise ValueError("depth_min must be positive")
        if self.load_rate < 0 or self.bg_lifetime <= 0:
            raise ValueError("load_rate >= 0 and bg_lifetime > 0 required")


def effective_volume(r0: float) -> float:
    """Gaussian-cloud pair volume (pi/2)^(3/2) r0^3, m^3."""
    if not 0 < r0 < math.inf:
        raise ValueError("r0 must be positive and finite")
    return (math.pi / 2.0) ** 1.5 * r0**3


def depth_from_cos(config: TrapConfig, cos_theta):
    """Direction-dependent escape threshold dU(theta), kelvin, parametrized by cos(theta).

    dU(theta) = dU_min * (1 + (a - 1) cos^2 theta) with a = DEPTH_ANISOTROPY;
    symmetric under theta -> pi - theta, max/min ratio exactly a.
    Accepts scalar or ndarray cos_theta.
    """
    return config.depth_min * (
        1.0 + (DEPTH_ANISOTROPY - 1.0) * np.asarray(cos_theta) ** 2)
