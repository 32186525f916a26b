"""Physical constants of cesium and its D2 line, and the unit conversions used package-wide.

The package models one atom, Cs-133, so its mass, linewidth, wavelength,
saturation intensity and collision energy scales are module constants.
Internal unit system is SI. Energies that parametrize collision channels and
trap depths are quoted as temperatures (kelvin) and multiplied by KB where an
energy in joules is needed.
"""

from __future__ import annotations

import math

# CODATA 2018
KB = 1.380649e-23  # J/K, exact
HBAR = 1.054571817e-34  # J s
H_PLANCK = 6.62607015e-34  # J s, exact
HARTREE_ENERGY = 4.3597447222071e-18  # J
BOHR_RADIUS = 5.29177210903e-11  # m
ATOMIC_MASS = 1.66053906660e-27  # kg
BOHR_MAGNETON = 9.2740100783e-24  # J/T

CS_MASS = 132.905451961 * ATOMIC_MASS  # kg, Cs-133

# Cs D2 line (6S1/2 -> 6P3/2) and the collision energy scales
GAMMA = 2.0 * math.pi * 5.2e6  # natural linewidth, rad/s
WAVELENGTH = 852.35e-9  # m
I_SAT = 11.0  # W/m^2 (1.1 mW/cm^2)
E_HCC_PER_ATOM = 0.22  # K, kinetic energy per atom after a hyperfine-changing collision
E_FCC_PER_ATOM = 400.0  # K, per atom after a fine-structure-changing collision

DOPPLER_TEMP = HBAR * GAMMA / (2.0 * KB)  # K, hbar*gamma/(2 kB), about 125 uK
RECOIL_SPEED = HBAR * (2.0 * math.pi / WAVELENGTH) / CS_MASS  # m/s, single-photon hbar*k/m

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
