"""Physical constants of cesium and its D2 line, and the unit conversions used package-wide.

The package models one atom, Cs-133, so its linewidth and collision energy
scales are module constants.
Internal unit system is SI. Energies that parametrize collision channels and
trap depths are quoted as temperatures (kelvin) and multiplied by KB where an
energy in joules is needed.
"""

from __future__ import annotations

import math

# CODATA 2018
KB = 1.380649e-23  # J/K, exact
HBAR = 1.054571817e-34  # J s

# Cs D2 line (6S1/2 -> 6P3/2) and the collision energy scales
GAMMA = 2.0 * math.pi * 5.2e6  # natural linewidth, rad/s
E_HCC_PER_ATOM = 0.22  # K, kinetic energy per atom after a hyperfine-changing collision
E_FCC_PER_ATOM = 400.0  # K, per atom after a fine-structure-changing collision

DOPPLER_TEMP = HBAR * GAMMA / (2.0 * KB)  # K, hbar*gamma/(2 kB), about 125 uK

# practical-unit factor
CM3_PER_M3 = 1e6
