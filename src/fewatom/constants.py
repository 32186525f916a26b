"""Physical constants for the cesium D2 system and the unit conversions used package-wide.

Internal unit system is SI. Energies that parametrize collision channels and
trap depths are quoted as temperatures (kelvin) and multiplied by KB where an
energy in joules is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA 2018
KB = 1.380649e-23  # J/K, exact
HBAR = 1.054571817e-34  # J s
H_PLANCK = 6.62607015e-34  # J s, exact
HARTREE_ENERGY = 4.3597447222071e-18  # J
BOHR_RADIUS = 5.29177210903e-11  # m
ATOMIC_MASS = 1.66053906660e-27  # kg
BOHR_MAGNETON = 9.2740100783e-24  # J/T

CS_MASS = 132.905451961 * ATOMIC_MASS  # kg, Cs-133

# practical-unit factors
G_PER_CM_TO_T_PER_M = 1e-2
MW_PER_CM2_TO_W_PER_M2 = 10.0
CM3_PER_M3 = 1e6


def c3_atomic_to_si(c3_au: float) -> float:
    """Convert a C3 dispersion coefficient from atomic units (Hartree * a0^3) to J m^3.

    1 a.u. = 6.4605e-49 J m^3.
    """
    if c3_au <= 0:
        raise ValueError(f"C3 must be positive, got {c3_au}")
    return c3_au * HARTREE_ENERGY * BOHR_RADIUS**3


@dataclass(frozen=True)
class PhysConstants:
    """Atomic constants of the cooling transition plus collision energy scales.

    Each field is set by one constants.* config key; defaults describe the
    Cs D2 line. The fundamental constants and the Cs mass are the module
    constants KB, HBAR and CS_MASS.
    """

    gamma: float = 2.0 * math.pi * 5.2e6  # natural linewidth, rad/s
    wavelength: float = 852.35e-9  # m
    e_hcc_per_atom: float = 0.22  # K, kinetic energy per atom after a hyperfine-changing collision
    e_fcc_per_atom: float = 400.0  # K, per atom after a fine-structure-changing collision
    i_sat: float = 11.0  # W/m^2 (1.1 mW/cm^2)

    def __post_init__(self):
        for name in ("gamma", "wavelength", "e_hcc_per_atom", "e_fcc_per_atom",
                     "i_sat"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")

    @property
    def doppler_temp(self) -> float:
        """Doppler temperature hbar*gamma/(2 kB), in kelvin (about 125 uK for Cs)."""
        return HBAR * self.gamma / (2.0 * KB)

    def recoil_speed(self) -> float:
        """Single-photon recoil speed hbar*k/m, m/s."""
        k = 2.0 * math.pi / self.wavelength
        return HBAR * k / CS_MASS


CESIUM = PhysConstants()
