"""Fluorescence trace synthesis: binned photon counts from an event log.

Counts in a bin are Poisson with mean bin_width * (bg_rate + per_atom_rate * Nbar)
where Nbar is the exact time-weighted atom number within the bin, so events
landing mid-bin produce the intermediate count levels seen in real traces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .markov import EventLog


@dataclass
class FluorescenceTrace:
    """Binned photon counts; bin i covers [i*bin_width, (i+1)*bin_width)."""

    bin_width: float  # s
    counts: np.ndarray  # int64
    per_atom_rate: float  # counts/s per atom used at synthesis
    bg_rate: float  # counts/s
    seed: int

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def duration(self) -> float:
        return len(self.counts) * self.bin_width


def binned_mean_counts(log: EventLog, per_atom_rate: float, bg_rate: float,
                       bin_width: float) -> np.ndarray:
    """Exact per-bin expected counts for the staircase N(t) of `log`."""
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    if per_atom_rate <= 0 or bg_rate < 0:
        raise ValueError("per_atom_rate > 0 and bg_rate >= 0 required")
    n_bins = int(round(log.duration / bin_width))
    if n_bins < 1 or abs(n_bins * bin_width - log.duration) > 1e-9 * max(1.0, log.duration):
        # keep whole bins; a ragged final bin would bias its mean
        n_bins = int(np.floor(log.duration / bin_width + 1e-12))
    if n_bins < 1:
        raise ValueError("duration shorter than one bin")

    t_break, levels = log.staircase()
    t_break = np.append(t_break, log.duration)
    # cumulative integral of N(t) at the breakpoints
    cum = np.concatenate([[0.0], np.cumsum(levels * np.diff(t_break))])

    edges = np.arange(n_bins + 1) * bin_width
    idx = np.searchsorted(t_break, edges, side="right") - 1
    idx = np.clip(idx, 0, len(levels) - 1)
    cum_at_edges = cum[idx] + (edges - t_break[idx]) * levels[idx]
    nbar = np.diff(cum_at_edges) / bin_width
    return bin_width * (bg_rate + per_atom_rate * nbar)


def synthesize(log: EventLog, per_atom_rate: float = 10_000.0, bg_rate: float = 500.0,
               bin_width: float = 0.1, seed: int = 0) -> FluorescenceTrace:
    """Poisson-sample a photon-count trace from an event log."""
    means = binned_mean_counts(log, per_atom_rate, bg_rate, bin_width)
    rng = np.random.default_rng(np.random.PCG64(seed))
    counts = rng.poisson(means).astype(np.int64)
    return FluorescenceTrace(bin_width=bin_width, counts=counts,
                             per_atom_rate=per_atom_rate, bg_rate=bg_rate, seed=seed)
