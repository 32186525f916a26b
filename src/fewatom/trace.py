"""Fluorescence trace synthesis: binned photon counts from an event log.

Counts in a bin are Poisson with mean bin_width * (bg_rate + per_atom_rate * Nbar)
where Nbar is the exact time-weighted atom number within the bin, so events
landing mid-bin produce the intermediate count levels seen in real traces.

Means and Poisson draws are made BLOCK_BINS = 2**16 bins at a time, so a
long trace costs its counts array plus one block of float64 temporaries
(512 KB each, small enough to stay in a core's L2 cache). The block size
changes no value: each bin's mean depends on its own edges alone, and
numpy's Generator draws the same stream in blocks as in one call.

A bin edge's value of the integral of N(t) needs the last step of the
staircase at or before it. Each step covers a run of consecutive edges, so
a block repeats each step's integral, time and level over its run (run
lengths from one searchsorted of the block's breakpoints) rather than
gathering them edge by edge: three contiguous fills per block, whatever the
number of events in it.

A trace holds its counts read-only and histograms them on first use of
count_hist, BLOCK_BINS bins at a time; calibration and detection both read
that one histogram. A trace refuses, when made, a bin width that is not
positive and finite, and a count below 0 or above MAX_COUNT (count_faults,
which the CSV reader shares; see MAX_COUNT).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .markov import EventLog, raise_first

# bins per block of the per-bin passes here and in detect.py
BLOCK_BINS = 2 ** 16

# The highest count a trace's histogram covers. The histogram and the
# per-value tables built from it have one entry per count value up to the
# highest count, so this bounds them near 100 MB together; a fig2 trace
# tops out near 2**14 counts.
MAX_COUNT = 2 ** 22
_COUNT_CAP = "the highest a count histogram covers"

# The most bins a trace may have. The library chain synthesize, calibrate,
# detect, fit peaks at 11 bytes of numpy allocations per bin (tracemalloc,
# fig2 at 2**21 and 2**23 bins; 8 of them the int64 counts), so a run at
# 2**27 bins takes about 1.4 GiB: 13 times the 1e7 bins of the longest
# benchmark trace. synthesize refuses more before allocating; synth and
# pipeline make the same check by key before simulating.
MAX_BINS = 2 ** 27


def count_faults(counts: np.ndarray) -> list[tuple[np.ndarray, Callable[[int], str]]]:
    """(mask of the bins, message about bin i) per part of the count rule
    broken: below 0, above MAX_COUNT. Clean counts cost a min and a max."""
    faults = []
    if counts.min(initial=0) < 0:
        faults.append((counts < 0, lambda i: f"negative count {counts[i]}"))
    if counts.max(initial=0) > MAX_COUNT:
        faults.append((counts > MAX_COUNT, lambda i: f"count {counts[i]} above "
                       f"{MAX_COUNT}, {_COUNT_CAP}"))
    return faults


@dataclass(frozen=True)
class FluorescenceTrace:
    """Binned photon counts; bin i covers [i*bin_width, (i+1)*bin_width).

    The bin width must be positive and finite, and the counts 1-D integers
    that keep count_faults' rule. The trace keeps a read-only view of the
    counts, so its cached count_hist cannot go stale.
    """

    bin_width: float  # s
    counts: np.ndarray  # 1-D, int64 or a narrower integer type
    per_atom_rate: float  # counts/s per atom used at synthesis
    bg_rate: float  # counts/s
    seed: int

    def __post_init__(self) -> None:
        _check_positive("bin_width", self.bin_width)
        counts = np.asarray(self.counts).view()
        if counts.ndim != 1 or counts.dtype.kind not in "iu" or counts.dtype == np.uint64:
            raise ValueError(f"counts must be 1-D int64 or narrower, got "
                             f"{counts.ndim}-D {counts.dtype}")
        raise_first(count_faults(counts), lambda i: f"bin {i}")
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    @property
    def duration(self) -> float:
        return len(self.counts) * self.bin_width

    @cached_property
    def count_hist(self) -> np.ndarray:
        """np.bincount(counts): the number of bins that hold each count
        value, computed on first use, BLOCK_BINS bins at a time (np.bincount
        copies a read-only array it is given whole)."""
        counts = self.counts
        top = int(counts.max(initial=0))
        hist = np.zeros(top + 1, dtype=np.int64)
        for lo in range(0, len(counts), BLOCK_BINS):
            hist += np.bincount(counts[lo:lo + BLOCK_BINS], minlength=top + 1)
        return hist


def _check_positive(name: str, value: float) -> None:
    if not 0 < value < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {value}")


def check_bins(duration: float, bin_width: float,
               names: tuple = ("log duration", "bin_width")) -> float:
    """duration / bin_width, the bins of a trace of the run; refuses fewer
    than 1 or more than MAX_BINS, calling the two terms `names`."""
    bins = duration / bin_width
    if bins < 1:
        raise ValueError(f"{names[0]} / {names[1]} = {bins:.3g} bins, below 1, "
                         "the fewest a trace may have")
    if bins > MAX_BINS:
        raise ValueError(f"{names[0]} / {names[1]} = {bins:.3g} bins, above "
                         f"MAX_BINS = {MAX_BINS}, the most a trace may have")
    return bins


def check_bin_mean(log: EventLog, per_atom_rate: float, bg_rate: float, bin_width: float,
                   names: tuple = ("per_atom_rate", "bg_rate", "bin_width")) -> None:
    """Refuse a log whose highest atom number N lets a bin's mean count,
    bin_width * (bg_rate + per_atom_rate * N), pass MAX_COUNT, calling the
    three terms `names`; one pass over the events, none over the bins."""
    n_max = int(log.n_after.max(initial=log.n0))  # Python floats overflow to inf quietly
    top = bin_width * (bg_rate + per_atom_rate * n_max)
    if top > MAX_COUNT:
        raise ValueError(f"{names[2]} * ({names[1]} + {names[0]} * {n_max} atoms) = "
                         f"{top:.3g} counts, above MAX_COUNT = {MAX_COUNT}, {_COUNT_CAP}")


def _whole_bins(log: EventLog, per_atom_rate: float, bg_rate: float,
                bin_width: float) -> int:
    """Checked arguments of a synthesis; the number of whole bins in `log`."""
    _check_positive("bin_width", bin_width)
    _check_positive("per_atom_rate", per_atom_rate)
    if not 0 <= bg_rate < np.inf:
        raise ValueError(f"bg_rate must be finite and non-negative, got {bg_rate}")
    bins = check_bins(log.duration, bin_width)
    n_bins = int(round(bins))
    if abs(n_bins * bin_width - log.duration) > 1e-9 * max(1.0, log.duration):
        # keep whole bins; a ragged final bin would bias its mean
        n_bins = int(np.floor(bins + 1e-12))
    return n_bins


def _mean_blocks(log: EventLog, per_atom_rate: float, bg_rate: float,
                 bin_width: float, n_bins: int) -> Iterator[np.ndarray]:
    """Exact expected counts of bins [0, n_bins), BLOCK_BINS bins at a time."""
    t_break, levels = log.staircase()
    # cumulative integral of N(t) at each breakpoint, up to the last one
    cum = np.concatenate([[0.0], np.cumsum(levels[:-1] * np.diff(t_break))])
    for lo in range(0, n_bins, BLOCK_BINS):
        hi = min(lo + BLOCK_BINS, n_bins)
        edges = np.arange(lo, hi + 1) * bin_width
        # each edge's step is the last breakpoint at or before it: step
        # j0 - 1 holds from the first edge, and each step j0..j1-1 from the
        # first edge at or after its breakpoint, so the steps cover runs of
        # edges whose lengths come from those first edges
        j0, j1 = np.searchsorted(t_break, edges[[0, -1]], side="right")
        runs = np.diff(np.searchsorted(edges, t_break[j0:j1], "left"),
                       prepend=0, append=len(edges))
        steps = slice(j0 - 1, j1)
        # the integral at each edge, cum + (edge - t) * level, and each
        # bin's mean, bin_width * (bg_rate + per_atom_rate * nbar), in
        # place: swapping the operands of a + or a * keeps every bit
        x = edges - np.repeat(t_break[steps], runs)
        x *= np.repeat(levels[steps], runs)
        x += np.repeat(cum[steps], runs)
        means = np.diff(x)
        means /= bin_width  # nbar
        means *= per_atom_rate
        means += bg_rate
        means *= bin_width
        yield means


def binned_mean_counts(log: EventLog, per_atom_rate: float, bg_rate: float,
                       bin_width: float) -> np.ndarray:
    """Exact per-bin expected counts for the staircase N(t) of `log`."""
    n_bins = _whole_bins(log, per_atom_rate, bg_rate, bin_width)
    return np.concatenate(list(_mean_blocks(log, per_atom_rate, bg_rate,
                                            bin_width, n_bins)))


def synthesize(log: EventLog, per_atom_rate: float = 10_000.0, bg_rate: float = 500.0,
               bin_width: float = 0.1, seed: int = 0) -> FluorescenceTrace:
    """Poisson-sample a photon-count trace from an event log.

    Refuses, before allocating the counts, a trace that check_bins or a
    log that check_bin_mean refuses."""
    n_bins = _whole_bins(log, per_atom_rate, bg_rate, bin_width)
    check_bin_mean(log, per_atom_rate, bg_rate, bin_width)
    rng = np.random.default_rng(np.random.PCG64(seed))
    counts = np.empty(n_bins, dtype=np.int64)
    blocks = _mean_blocks(log, per_atom_rate, bg_rate, bin_width, n_bins)
    for lo, means in zip(range(0, n_bins, BLOCK_BINS), blocks):
        counts[lo:lo + len(means)] = rng.poisson(means)
    return FluorescenceTrace(bin_width=bin_width, counts=counts,
                             per_atom_rate=per_atom_rate, bg_rate=bg_rate, seed=seed)
