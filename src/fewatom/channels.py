"""Cold-collision loss channels and optical shielding of the ground-state channel.

Three two-body channels are modeled:

  hcc  ground-state hyperfine-changing collisions, 0.22 K per atom, suppressed
       by the repump light (see suppression_ratio);
  re   radiative-escape collisions; both atoms share one exponentially
       distributed energy;
  fcc  fine-structure-changing collisions, 400 K per atom, always over threshold.

Rate coefficients are quoted in the total-loss flux convention: a channel with
coefficient beta whose every collision ejects both atoms removes atoms at
beta * N(N-1) / V per second. The pair-event coefficient is then beta/2.

Shielding model: the blue-detuned repump dresses a repulsive excited pair state
that crosses the ground asymptote at the Condon radius. The implemented
suppression factor is a Gaussian in the ratio of the Rabi energy hbar*Omega to
the collision energy scale, where the thermal scale kB*T and the linewidth
floor sqrt(2)*kB*T_D add in quadrature:

    P_hcc(s0, T) = exp(-(hbar Omega)^2 / ((kB T)^2 + 2 (kB T_D)^2)),
    Omega = rabi_coeff * Gamma * sqrt(s0).

With the default rabi_coeff = 1/sqrt(2) this is identical to exp(-s0 / A(T))
with A(T) = 1 + (T/T_D)^2 / 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (DOPPLER_TEMP, E_FCC_PER_ATOM, E_HCC_PER_ATOM, GAMMA,
                        H_PLANCK, HBAR, KB, c3_atomic_to_si)
from .trap import TrapConfig, depth_from_cos


CHANNELS = ("hcc", "re", "fcc")


@dataclass
class ChannelSet:
    """Intrinsic channel coefficients (cm^3/s) and the classifier's nuisance parameters."""

    beta_hcc: float = 4.1e-11  # cm^3/s, unshielded ground-state coefficient
    beta_re: float = 2.0e-11  # cm^3/s
    beta_fcc: float = 5.0e-12  # cm^3/s
    re_energy_scale: float = 0.43  # K, exponential scale of the shared RE energy
    depth_jitter: float = 0.03  # fractional rms fluctuation of the escape threshold
    angular_spread: float = 0.35  # rad, rms deviation of atom 2 from back-to-back

    def __post_init__(self):
        for name in ("beta_hcc", "beta_re", "beta_fcc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.re_energy_scale <= 0:
            raise ValueError("re_energy_scale must be positive")
        if not 0.0 <= self.depth_jitter < 0.2:
            raise ValueError("depth_jitter must lie in [0, 0.2)")
        if not 0.0 <= self.angular_spread < math.pi / 2:
            raise ValueError("angular_spread must lie in [0, pi/2)")


@dataclass
class ShieldingParams:
    """Repump-dressing parameters for the ground-channel suppression."""

    repump_detuning: float = 9.0e9  # Hz, blue detuning of the repump
    c3: float = c3_atomic_to_si(12.0)  # J m^3, excited-pair dispersion coefficient
    rabi_coeff: float = 1.0 / math.sqrt(2.0)  # Omega = rabi_coeff * Gamma * sqrt(s0)

    def __post_init__(self):
        if self.repump_detuning <= 0:
            raise ValueError("repump_detuning must be positive")
        if self.c3 <= 0:
            raise ValueError("c3 must be positive")
        if self.rabi_coeff <= 0:
            raise ValueError("rabi_coeff must be positive")


def condon_radius(params: ShieldingParams) -> float:
    """Crossing radius R_C = (C3 / (h * detuning))^(1/3), meters."""
    return (params.c3 / (H_PLANCK * params.repump_detuning)) ** (1.0 / 3.0)


def scaling_constant(temperature: float):
    """Suppression decay constant A(T) = 1 + (T / T_D)^2 / 2."""
    t = np.asarray(temperature, dtype=float)
    if np.any(t < 0):
        raise ValueError("temperature must be non-negative")
    out = 1.0 + 0.5 * (t / DOPPLER_TEMP) ** 2
    return float(out) if np.isscalar(temperature) else out


def suppression_ratio(s0, temperature: float, params: ShieldingParams | None = None):
    """Fraction of ground-channel collisions surviving the repump shielding.

    Gaussian in hbar*Omega over the quadrature sum of the thermal and linewidth
    energy scales (module docstring). Equals exp(-s0/A(T)) at the default
    rabi_coeff; monotone non-increasing in s0, non-decreasing in T, and 1 at s0=0.
    """
    if params is None:
        params = ShieldingParams()
    s = np.asarray(s0, dtype=float)
    if np.any(s < 0):
        raise ValueError("s0 must be non-negative")
    if temperature < 0:
        raise ValueError("temperature must be non-negative")
    omega_sq = (params.rabi_coeff * GAMMA) ** 2 * s
    e_thermal = KB * temperature
    e_floor = KB * DOPPLER_TEMP
    out = np.exp(-(HBAR**2) * omega_sq / (e_thermal**2 + 2.0 * e_floor**2))
    return float(out) if np.isscalar(s0) else out


def outcome_probabilities(channel: str, trap: TrapConfig, cs: ChannelSet,
                          rng: np.random.Generator,
                          n_samples: int = 100_000) -> tuple[float, float, float]:
    """Monte Carlo estimate of (P_none, P_one, P_two) for a channel: the
    shares of n_samples collisions that eject no atom, one or both.

    Each atom escapes when its energy exceeds the (jittered) trap depth
    along its direction; atom 2 leaves back-to-back up to a random tilt.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    # atom 1 direction: isotropic, only cos(theta) matters for the depth
    c1 = rng.uniform(-1.0, 1.0, n_samples)
    # atom 2: back-to-back up to a half-normal tilt with uniform azimuth
    if cs.angular_spread > 0:
        alpha = np.abs(rng.normal(0.0, cs.angular_spread, n_samples))
        phi = rng.uniform(0.0, 2.0 * math.pi, n_samples)
        s1 = np.sqrt(1.0 - c1**2)
        c2 = -c1 * np.cos(alpha) + s1 * np.sin(alpha) * np.cos(phi)
    else:
        c2 = -c1
    d1 = depth_from_cos(trap, c1)
    d2 = depth_from_cos(trap, c2)
    if cs.depth_jitter > 0:
        d1 = d1 * (1.0 + rng.normal(0.0, cs.depth_jitter, n_samples))
        d2 = d2 * (1.0 + rng.normal(0.0, cs.depth_jitter, n_samples))
    if channel == "hcc":
        energy = E_HCC_PER_ATOM
    elif channel == "fcc":
        energy = E_FCC_PER_ATOM
    else:
        energy = rng.exponential(cs.re_energy_scale, n_samples)
    escaped = (energy > d1).astype(np.int64) + (energy > d2)
    return tuple(np.bincount(escaped, minlength=3) / n_samples)


def effective_betas(trap: TrapConfig, cs: ChannelSet,
                    shielding: ShieldingParams | None = None,
                    seed: int = 7070, n_samples: int = 200_000) -> tuple[float, float]:
    """Compose the channels into observable loss coefficients (cm^3/s).

    Returns (beta_1atom, beta_2atoms): beta_1atom * N(N-1)/V is the one-atom
    collisional loss flux, beta_2atoms * N(N-1)/V is twice the two-atom event
    rate. The hcc channel is weighted by suppression_ratio at the trap's
    repump_sat and temperature.
    """
    if shielding is None:
        shielding = ShieldingParams()
    rng = np.random.default_rng(seed)
    w = {
        "hcc": suppression_ratio(trap.repump_sat, trap.temperature, shielding),
        "re": 1.0,
        "fcc": 1.0,
    }
    beta = {"hcc": cs.beta_hcc, "re": cs.beta_re, "fcc": cs.beta_fcc}
    beta1 = 0.0
    beta2 = 0.0
    for ch in CHANNELS:
        if beta[ch] == 0.0:
            continue
        _, p1, p2 = outcome_probabilities(ch, trap, cs, rng, n_samples)
        beta1 += beta[ch] * w[ch] * p1 / 2.0
        beta2 += beta[ch] * w[ch] * p2
    return beta1, beta2
