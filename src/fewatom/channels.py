"""Cold-collision loss channels and optical shielding of the ground-state channel.

Three two-body channels are modeled:

  hcc  ground-state hyperfine-changing collisions, 0.22 K per atom, suppressed
       by the repump light (see suppression_ratio);
  re   radiative-escape collisions; both atoms share one exponentially
       distributed energy;
  fcc  fine-structure-changing collisions, 400 K per atom, always over threshold.

outcome_probabilities samples each collision's directions and depth jitters,
drawing every variate, but computes atom 2's direction only for the samples
whose energy lies between atom 2's jittered shallow-axis and deep-axis depths;
above both it escapes and at or below both it stays, in any direction. An hcc
or fcc energy above the deep depth times 1 + JITTER_SIGMAS * DEPTH_JITTER
ejects both atoms in every collision: the channel returns (0, 0, 1) before
sampling and draws nothing from rng. The RE energy scale, the depth jitter and
atom 2's angular spread are module constants; no config key sets them.

Rate coefficients are quoted in the total-loss flux convention: a channel with
coefficient beta whose every collision ejects both atoms removes atoms at
beta * N(N-1) / V per second. The pair-event coefficient is then beta/2.

Shielding model: the repump suppression factor is a Gaussian in the ratio of
the Rabi energy hbar*Omega to the collision energy scale, where the thermal
scale kB*T and the linewidth floor sqrt(2)*kB*T_D add in quadrature:

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
                        HBAR, KB)
from .trap import TrapConfig, depth_from_cos


CHANNELS = ("hcc", "re", "fcc")
RE_ENERGY_SCALE = 0.43  # K, exponential scale of the shared RE energy
DEPTH_JITTER = 0.03  # fractional rms fluctuation of the escape threshold
ANGULAR_SPREAD = 0.35  # rad, rms deviation of atom 2 from back-to-back
# bound on a depth jitter draw, in widths: the Gaussian tail past it underflows in float64
JITTER_SIGMAS = 40.0


@dataclass
class ChannelSet:
    """Intrinsic channel coefficients, cm^3/s."""

    beta_hcc: float = 4.1e-11  # cm^3/s, unshielded ground-state coefficient
    beta_re: float = 2.0e-11  # cm^3/s
    beta_fcc: float = 5.0e-12  # cm^3/s

    def __post_init__(self):
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        for name in ("beta_hcc", "beta_re", "beta_fcc"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass
class ShieldingParams:
    """Repump-dressing strength of the ground-channel suppression."""

    rabi_coeff: float = 1.0 / math.sqrt(2.0)  # Omega = rabi_coeff * Gamma * sqrt(s0)

    def __post_init__(self):
        if not 0 < self.rabi_coeff < math.inf:
            raise ValueError("rabi_coeff must be positive and finite")


def scaling_constant(temperature: float):
    """Suppression decay constant A(T) = 1 + (T / T_D)^2 / 2."""
    t = np.asarray(temperature, dtype=float)
    if not np.all((0 <= t) & (t < math.inf)):
        raise ValueError("temperature must be non-negative and finite")
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
    if not np.all((0 <= s) & (s < math.inf)):
        raise ValueError("s0 must be non-negative and finite")
    if not 0 <= temperature < math.inf:
        raise ValueError("temperature must be non-negative and finite")
    with np.errstate(over="ignore"):  # omega_sq = inf past s0 = 3.4e293: ratio 0
        omega_sq = (params.rabi_coeff * GAMMA) ** 2 * s
    e_thermal = KB * temperature
    e_floor = KB * DOPPLER_TEMP
    out = np.exp(-(HBAR**2) * omega_sq / (e_thermal**2 + 2.0 * e_floor**2))
    return float(out) if np.isscalar(s0) else out


def outcome_probabilities(channel: str, trap: TrapConfig, cs: ChannelSet,
                          rng: np.random.Generator,
                          n_samples: int) -> tuple[float, float, float]:
    """Monte Carlo estimate of (P_none, P_one, P_two) for a channel: the
    shares of n_samples collisions that eject no atom, one or both.

    Each atom escapes when its energy exceeds the (jittered) trap depth
    along its direction; atom 2 leaves back-to-back up to a random tilt.
    Atom 2's direction is computed only where the energy lies between its
    jittered shallow and deep depths. An hcc or fcc energy above deep * (1 +
    JITTER_SIGMAS * DEPTH_JITTER) returns (0, 0, 1) and draws nothing from rng.
    The shares do not depend on cs: its coefficients weight them only in
    effective_betas.
    """
    if channel not in CHANNELS:
        raise ValueError(f"unknown channel {channel!r}")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    # 1e-12 of slack covers rounding in c2, whose |c2| can round to just above 1
    shallow = depth_from_cos(trap, 0.0) * (1.0 - 1e-12)
    deep = depth_from_cos(trap, 1.0) * (1.0 + 1e-12)
    fixed = {"hcc": E_HCC_PER_ATOM, "fcc": E_FCC_PER_ATOM}.get(channel)
    if fixed is not None and fixed > deep * (1.0 + JITTER_SIGMAS * DEPTH_JITTER):
        return tuple(np.array([0.0, 0.0, 1.0]))
    # atom 1 direction: isotropic, only cos(theta) matters for the depth
    c1 = rng.uniform(-1.0, 1.0, n_samples)
    # atom 2: back-to-back up to a half-normal tilt with uniform azimuth
    alpha = np.abs(rng.normal(0.0, ANGULAR_SPREAD, n_samples))
    phi = rng.uniform(0.0, 2.0 * math.pi, n_samples)
    f1 = 1.0 + rng.normal(0.0, DEPTH_JITTER, n_samples)
    f2 = 1.0 + rng.normal(0.0, DEPTH_JITTER, n_samples)
    if fixed is None:
        energy = rng.exponential(RE_ENERGY_SCALE, n_samples)
    elif fixed > deep * max(f1.max(), f2.max()):
        return tuple(np.array([0.0, 0.0, 1.0]))
    else:
        energy = np.full(n_samples, fixed)
    escaped = (energy > depth_from_cos(trap, c1) * f1).astype(np.int64)
    # atom 2's depth lies in [shallow, deep] * f2; a factor f2 < 0 puts both
    # bounds below 0 <= energy, so such a sample escapes like its depth does
    hi = deep * f2
    escaped += energy > hi
    i = np.flatnonzero((energy > shallow * f2) & (energy <= hi))
    c2 = -c1[i] * np.cos(alpha[i]) + np.sqrt(1.0 - c1[i]**2) * np.sin(alpha[i]) * np.cos(phi[i])
    escaped[i] += energy[i] > depth_from_cos(trap, c2) * f2[i]
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
