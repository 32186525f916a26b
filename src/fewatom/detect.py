"""Step detection on photon-count traces.

calibrate() locates the equally spaced count levels (atom number comb) in the
trace histogram and refines background and per-atom spacing by a global
regression. detect() rounds each bin to its nearest level, folds down-down
transition bins into two-atom steps, re-votes jumps of more than two atoms,
reads sub-level bumps on flat stretches as quick load/loss pairs, and emits
number-changing events at bin boundaries. Every trace it accepts is read by
these rules, so a one-bin excursion to another level is a pair of events.

Each rule runs once per count value, once per step or once per rewritten
bin wherever it can; per bin, detect() only reads levels and finds steps:

- Per count value. Both stages read the trace's count histogram, built
  once per trace (FluorescenceTrace.count_hist). The level of every value
  from 0 to the highest count goes into a table (about 11 000 values for
  a fig2 trace); detect() reads each bin's level with one lookup, and the
  bins per level that its SNR needs come from the histogram. The bump test
  is decided per value too: a bin whose level was never rewritten has its
  value's level, so whether its residual is a bump depends on its count
  alone, and only the bins of such values and the rewritten bins are
  tested further.
- Per step. One pass finds the boundaries where the level changes. The
  merge and re-vote rewrites change only the boundaries on either side of
  the bins they rewrite, so the step set is updated there, and the
  down-down candidates, the |dN| > 2 re-votes and the events come from it.

The per-bin passes run BLOCK_BINS bins (2**16) at a time, and nothing
trace-sized is kept but the level sequence: each bin's level in the
smallest signed integer type that fits the top level, one byte per bin up
to level 127. A negative count, or one above trace.MAX_COUNT, raises
ValueError naming its first bin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .markov import EventLog, KIND_LOAD, KIND_LOSS1, KIND_LOSS2
from .trace import BLOCK_BINS, FluorescenceTrace


class CalibrationError(RuntimeError):
    """Histogram does not show at least two resolvable occupancy levels."""


class DetectionQualityError(RuntimeError):
    """Trace SNR too low for reliable level assignment."""


@dataclass
class Calibration:
    """Count-to-atom-number map: counts = bin_width*(bg_rate + per_atom_rate*N)."""

    per_atom_rate: float  # counts/s per atom
    bg_rate: float  # counts/s
    per_atom_err: float
    bg_err: float
    n_levels: int  # distinct levels used in the fit

    def per_bin(self, bin_width: float) -> tuple[float, float]:
        """(offset, spacing): the background counts and the counts per atom
        in one bin of width bin_width."""
        spacing = self.per_atom_rate * bin_width
        if spacing <= 0:
            raise ValueError("calibration has non-positive per-atom rate")
        return self.bg_rate * bin_width, spacing


def shot_noise(level, offset: float, spacing: float):
    """Poisson standard deviation, in counts, of a bin at atom number level
    (negative levels count as 0, and the variance as at least 1 count)."""
    return np.sqrt(np.maximum(offset + spacing * np.maximum(level, 0), 1.0))


def _levels(counts: np.ndarray, offset: float, spacing: float) -> np.ndarray:
    """The atom number of each count: rounded to the nearest comb level, >= 0.

    The levels are stored in the smallest signed integer type that holds
    every level from -top to top, where top is the level of the highest
    count (rounding is monotone), so a step between two levels fits too.
    Rewrites of the sequence stay inside [0, top]; arithmetic that can leave
    that range must upcast first. Both stages call it on count values, not
    bins, so it works on the whole array at once.
    """
    x = counts - offset
    x /= spacing
    np.round(x, out=x)
    np.maximum(x, 0.0, out=x)
    return x.astype(np.min_scalar_type(-int(x.max(initial=0.0)) - 1))


def _hist_percentile(cum: np.ndarray, q: float) -> float:
    """np.percentile(x, q) bit for bit, by its default linear rule, from
    cum = np.cumsum(np.bincount(x)) of a non-empty sample x of integers >= 0.

    The sorted sample's order statistics k and k+1 around (len(x)-1)*q/100
    are read off cum, then interpolated as numpy does: from the lower one
    below half-way and from the upper one from half-way on. For integers
    below 2**52 the median (q = 50) is also np.median(x) bit for bit.
    """
    n = int(cum[-1])
    pos = (n - 1) * (q / 100)
    k = math.floor(pos)
    a, b = np.searchsorted(cum, [k, min(k + 1, n - 1)], side="right").tolist()
    g = pos - k
    return a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)


@dataclass
class DetectionReport:
    """Quality metrics of one detection pass."""

    n_bins: int
    n_events: int
    snr: float  # level separation over shot noise at the brightest common level
    spike_bins: int  # always 0, no bin is suppressed; the benchmark still reads it
    merged_bins: int  # one-bin transition dwells folded into a two-atom step
    pair_bumps: int  # sub-threshold bumps recovered as quick load/loss pairs
    ambiguous_bins: int  # boundaries with |dN| > 2 needing local re-vote
    event_rate: float  # detected events/s
    coincidence_probability: float  # chance two events share one bin at that rate


def calibrate(trace: FluorescenceTrace) -> Calibration:
    """Estimate bg_rate and per_atom_rate from the count histogram comb.

    Peaks of the smoothed histogram give candidate levels; the median spacing
    seeds an assignment of every bin to an integer level, and a linear
    regression counts = a + b*N refines both parameters with standard errors.
    All bins of one count share a level, so the regression sums come from
    the histogram.
    """
    if len(trace.counts) < 10:
        raise CalibrationError("trace too short to calibrate")
    hist = trace.count_hist
    median = _hist_percentile(np.cumsum(hist), 50.0)
    sigma = max(1.0, np.sqrt(max(median, 1.0)) / 2.0)
    peaks = _comb_peaks(hist, sigma)
    if len(peaks) < 2:
        raise CalibrationError(f"found {len(peaks)} count level(s); need at least 2")
    spacing = float(np.median(np.diff(np.sort(peaks))))
    base = float(peaks.min())

    # assign each count to the comb and refine by a global regression
    value = np.arange(len(hist))
    level = _levels(value, base, spacing)
    # exact integers: a per-level count sum stays far below 2**53
    bins_per_level = np.bincount(level, weights=hist).astype(np.int64)
    n_levels = int(np.count_nonzero(bins_per_level))
    if n_levels < 2:
        raise CalibrationError("level assignment collapsed onto a single level")
    counts_per_level = np.bincount(level, weights=value * hist).astype(np.int64)
    (a, b), cov = _linfit(bins_per_level, counts_per_level,
                          int((value * value) @ hist))
    if b <= 0:
        raise CalibrationError("non-positive comb spacing after refinement")
    w = trace.bin_width
    return Calibration(per_atom_rate=b / w, bg_rate=max(a, 0.0) / w,
                       per_atom_err=float(np.sqrt(cov[1][1])) / w,
                       bg_err=float(np.sqrt(cov[0][0])) / w,
                       n_levels=n_levels)


def _comb_peaks(hist: np.ndarray, sigma: float) -> np.ndarray:
    """Level peaks of the count histogram.

    Gaussian smoothing (radius int(4 sigma + 0.5), symmetric edges), then
    local maxima with plateaus resolved to their middle sample, kept when
    they reach 0.5% of the highest point, are at least 2 sigma apart (higher
    peaks first) and stand out from their surroundings by that same 0.5%.
    The same operations as scipy's gaussian_filter1d and find_peaks with
    height, distance and prominence, in that order, plus maxima at count 0.
    """
    radius = int(4.0 * sigma + 0.5)
    x = np.arange(-radius, radius + 1)
    kernel = np.exp(-0.5 / (sigma * sigma) * x ** 2)
    kernel = kernel / kernel.sum()
    smooth = np.convolve(np.pad(hist.astype(float), radius, mode="symmetric"),
                         kernel, mode="valid")
    min_height = smooth.max() * 0.005
    min_dist = max(2, int(2.0 * sigma))

    # runs of equal samples; a run is a maximum if both neighbouring runs are
    # lower, the run at count 0 (mirrored by the padding) if the next one is
    starts = np.flatnonzero(np.r_[True, smooth[1:] != smooth[:-1]])
    ends = np.r_[starts[1:] - 1, len(smooth) - 1]
    level = smooth[starts]
    rise = level[1:] > level[:-1]  # a run that does not rise from the last falls
    top = np.flatnonzero(np.r_[True, rise] & ~np.r_[rise, True])
    peaks = np.where(top > 0, (starts[top] + ends[top]) // 2, 0)
    peaks = peaks[smooth[peaks] >= min_height]

    keep = np.ones(len(peaks), dtype=bool)
    for j in np.argsort(smooth[peaks])[::-1]:
        if keep[j]:
            near = np.abs(peaks - peaks[j]) < min_dist
            near[j] = False
            keep &= ~near
    peaks = peaks[keep]

    # prominence: height above the higher of the two minima reached before
    # the trace climbs above the peak on either side; at 0 both sides are one
    prominence = np.empty(len(peaks))
    for m, p in enumerate(peaks):
        higher = np.flatnonzero(smooth[:p] > smooth[p])
        lo = higher[-1] + 1 if len(higher) else 0
        higher = np.flatnonzero(smooth[p:] > smooth[p])
        hi = p + higher[0] if len(higher) else len(smooth)
        right = smooth[p:hi].min()
        prominence[m] = smooth[p] - max(smooth[lo:p + 1].min() if p else right, right)
    return peaks[prominence >= min_height]


def _linfit(bins_per_level: np.ndarray, counts_per_level: np.ndarray,
            sum_sq_counts: int) -> tuple[tuple[float, float], list[list[float]]]:
    """OLS for counts = a + b*N over all bins, from per-level sums.

    bins_per_level[N] bins sit at level N and their counts add up to
    counts_per_level[N]; sum_sq_counts is the sum of squared counts. Returns
    (a, b) and their covariance. The centred sums are exact Python integers
    (n*sum(y^2) overflows int64 on long traces), so each result is rounded
    once.
    """
    level = np.arange(len(bins_per_level))
    n = int(bins_per_level.sum())
    sx = int(level @ bins_per_level)
    sxx = int((level * level) @ bins_per_level)
    sy = int(counts_per_level.sum())
    sxy = int(level @ counts_per_level)
    dxx = n * sxx - sx * sx
    dxy = n * sxy - sx * sy
    dyy = n * sum_sq_counts - sy * sy
    b = dxy / dxx
    a = (sy * dxx - sx * dxy) / (n * dxx)
    # residual sum of squares / dof, over dxx: the covariance scale
    scale = (dyy * dxx - dxy * dxy) / (n * dxx * dxx * max(n - 2, 1))
    return (a, b), [[scale * sxx, -scale * sx], [-scale * sx, scale * n]]


# Below this SNR (level separation over shot noise at the typical occupancy)
# adjacent levels overlap too much to read the counts without bias. On 20
# fig2 logs of 1e5 s, each read again at a lower per-atom rate and paired
# with its read at 1e4 Hz (SNR near 12), no fitted coefficient's mean pull
# moves by more than 0.18 sigma at 3500 Hz (SNR 7.0-7.5), but b1's moves by
# +0.52 sigma at 3000 Hz (SNR 6.5-7.0) and by +1.20 at 2700 Hz (6.1-6.6).
MIN_SNR = 7.0

# Residual threshold, in shot-noise sigma of the local level, above which a
# flat-stretch bin is read back as a quick load/loss pair.
BUMP_NSIGMA = 4.5


def bump_threshold(level, offset: float, spacing: float):
    """The residual, in atoms, above which a flat-stretch bin at atom number
    level is read as a quick load/loss pair: BUMP_NSIGMA shot-noise sigma."""
    return BUMP_NSIGMA * (shot_noise(level, offset, spacing) / spacing)


def detect(trace: FluorescenceTrace, cal: Calibration
           ) -> tuple[EventLog, DetectionReport]:
    """Recover the event log from a trace.

    Events sit at bin boundaries: dN=+1 load, -1 one-atom loss, -2 two-atom
    loss. A dN=+2 boundary becomes two loads inside the bin, and jumps with
    |dN| > 2 are re-voted with a local median and counted as ambiguous.
    Raises DetectionQualityError when the level separation over shot noise at
    the typical occupancy falls below MIN_SNR.
    """
    if len(trace.counts) == 0:
        raise ValueError("cannot detect events in an empty trace (0 bins)")
    w = trace.bin_width
    offset, spacing = cal.per_bin(w)
    # the level of each count value; bins per level from bins per value
    count_hist = trace.count_hist
    value = np.arange(len(count_hist))
    table = _levels(value, offset, spacing)
    per_level = np.bincount(table, weights=count_hist).astype(np.int64)
    n_typ = _hist_percentile(np.cumsum(per_level), 99.5)
    snr = float(spacing / shot_noise(max(n_typ, 1.0), offset, spacing))
    if snr < MIN_SNR:
        raise DetectionQualityError(
            f"level separation / shot noise = {snr:.2f} below minimum {MIN_SNR:.2f}")

    # The per-bin passes: each bin's level and the bins whose count value is
    # a bump at its own level; then the steps. Each rewrite below updates the
    # step set around the bins it rewrites and adds them to the bins the bump
    # pass tests.
    n_hat, bump_bins = _read_levels(trace.counts, table,
                                    _bumps(value, table, offset, spacing)[1])
    tested = [bump_bins]
    steps = _steps(n_hat)

    # A two-atom loss mid-bin leaves one transition bin at the intermediate
    # level, which would read as two consecutive one-atom losses. Fold the
    # down-down one-bin dwell back into a single -2 step; genuine one-atom
    # losses one bin apart are rarer than this artifact by roughly the event
    # rate times the bin width.
    idx = _merge_down_down(n_hat, steps, trace.counts, offset, spacing)
    merged = len(idx)
    steps = _restep(n_hat, steps, idx)
    tested.append(idx)

    # re-vote implausible jumps with the local median
    d = n_hat[steps + 1] - n_hat[steps]
    bad = steps[np.abs(d, out=d) > 2]
    ambiguous = len(bad)
    for i in bad:
        lo = max(i - 1, 0)
        hi = min(i + 3, len(n_hat))
        n_hat[i + 1] = int(np.median(n_hat[lo:hi]))
    steps = _restep(n_hat, steps, bad + 1)
    tested.append(bad + 1)

    times, kinds = _events_from_levels(n_hat, steps, w)
    pair_times, pair_kinds = _bump_pairs(
        trace.counts, n_hat, _unique(np.concatenate(tested)), offset, spacing, w)
    times = np.concatenate([times, pair_times])
    order = np.argsort(times, kind="stable")
    times, kinds = times[order], np.concatenate([kinds, pair_kinds])[order]

    log = EventLog(times=times, kinds=kinds, n0=int(n_hat[0]),
                   duration=len(n_hat) * w, seed=trace.seed)
    rate = len(log) / trace.duration if trace.duration > 0 else 0.0
    report = DetectionReport(
        n_bins=len(trace.counts), n_events=len(log), snr=snr,
        spike_bins=0, merged_bins=merged, pair_bumps=len(pair_times) // 2,
        ambiguous_bins=ambiguous, event_rate=rate,
        coincidence_probability=1.0 - float(np.exp(-rate * w)))
    return log, report


def _read_levels(counts: np.ndarray, table: np.ndarray, strong: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(table[counts], the bins i where strong[counts[i]] is set), read
    BLOCK_BINS bins at a time. By indexing: np.take would copy the
    read-only counts whole."""
    n_hat = np.empty(len(counts), dtype=table.dtype)
    found = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(counts), BLOCK_BINS):
        block = counts[lo:lo + BLOCK_BINS]
        n_hat[lo:lo + BLOCK_BINS] = table[block]
        found.append(np.flatnonzero(strong[block]) + lo)
    return n_hat, np.concatenate(found)


def _steps(n_hat: np.ndarray) -> np.ndarray:
    """Boundaries i, between bins i and i+1, where the level changes
    (n_hat[i+1] != n_hat[i]), found BLOCK_BINS at a time."""
    found = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(n_hat) - 1, BLOCK_BINS):
        block = n_hat[lo:lo + BLOCK_BINS + 1]
        found.append(np.flatnonzero(block[1:] != block[:-1]) + lo)
    return np.concatenate(found)


def _unique(i: np.ndarray) -> np.ndarray:
    """np.unique(i) of an integer array, by one sort. numpy 2.4's np.unique
    took over 20 times as long as np.sort on the 1.4e5 bins the bump pass
    tests in a 1e7-bin fig2 trace (2-CPU Xeon VM)."""
    i = np.sort(i)
    return i[np.diff(i, prepend=i[:1] - 1) != 0]


def _restep(n_hat: np.ndarray, steps: np.ndarray, bins: np.ndarray) -> np.ndarray:
    """_steps(n_hat) after a rewrite of `bins`, from the steps before it.

    Only the boundaries on either side of a rewritten bin can change, so
    those are tested again and the rest of the sorted step set is kept.
    """
    near = _unique(np.concatenate([bins - 1, bins]))
    near = near[(near >= 0) & (near < len(n_hat) - 1)]
    at = np.searchsorted(steps, near)
    on_step = at < len(steps)
    on_step[on_step] = steps[at[on_step]] == near[on_step]
    kept = np.delete(steps, at[on_step])
    new = near[n_hat[near + 1] != n_hat[near]]
    return np.insert(kept, np.searchsorted(kept, new), new)


def _merge_down_down(n_hat: np.ndarray, steps: np.ndarray, counts: np.ndarray,
                     offset: float, spacing: float) -> np.ndarray:
    """Fold one-bin down-down dwells into two-atom steps in place; return
    the bins rewritten. steps is _steps(n_hat).

    Bins are judged in order on the level sequence as rewritten so far.
    Only down-down bins of the sequence as given can qualify, and a rewrite
    at i leaves bin i+1 with a step of 0 or -2 to its left, so in each run
    of adjacent candidates the first, third, fifth... are rewritten. No two
    of them are neighbours, so all are rewritten at once.
    """
    down = steps[n_hat[steps + 1] - n_hat[steps] == -1]
    candidates = down[1:][np.diff(down) == 1]
    # the first candidate of each one's run
    first = np.maximum.accumulate(
        np.where(np.diff(candidates, prepend=-2) != 1, candidates, 0))
    i = candidates[(candidates - first) % 2 == 0]
    # park the transition bin on whichever side its mean count favors,
    # otherwise dwell time is systematically pushed to the upper level
    upper = n_hat[i - 1]
    nu = (counts[i] - offset) / spacing
    n_hat[i] = np.where(nu >= upper - 1.0, upper, n_hat[i + 1])
    return i


def _events_from_levels(n_hat: np.ndarray, bounds: np.ndarray, bin_width: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Boundary events (times, kinds) of a per-bin level sequence, whose
    steps _steps(n_hat) are bounds.

    A boundary with dN = +1, -1 or -2 holds one event at the boundary, and
    dN = +2 two loads, at mid-bin and at the boundary. A residual |dN| > 2
    left by the re-vote unfolds into unit loads or, going down, into the
    fewest-event composition with two-atom steps first, spread evenly over
    the bin before the boundary.
    """
    # int64: 1 - d below leaves the range of a compact level type
    d = n_hat[bounds + 1].astype(np.int64) - n_hat[bounds]
    per_bound = np.where(d > 0, d, (1 - d) // 2)  # losses: ceil(|dN| / 2)
    owner = np.repeat(np.arange(len(bounds)), per_bound)
    j = np.arange(len(owner)) - np.repeat(np.cumsum(per_bound) - per_bound,
                                          per_bound)
    d = d[owner]
    up = d > 0
    times = (bounds[owner] + 1) * bin_width
    times[(d == 2) & (j == 0)] -= bin_width / 2
    multi = np.abs(d) > 2
    times[multi] = (times[multi] - bin_width
                    + (j[multi] + 1) * bin_width / per_bound[owner[multi]])
    kinds = np.where(up, KIND_LOAD,
                     np.where(j < -d // 2, KIND_LOSS2, KIND_LOSS1)).astype(np.int8)
    return times, kinds


def _bumps(counts, level, offset: float, spacing: float):
    """(r, strong): the residual r, in atoms, of counts at atom number level,
    and whether it reads as a bump: |r| above bump_threshold, and not a
    downward bump at level 0, which has no loss to pair with a load.

    Element by element, so a count value at its own level gives the same
    bits as every bin that holds it at that level."""
    r = counts - offset
    r /= spacing
    r -= level
    strong = np.abs(r) > bump_threshold(level, offset, spacing)
    strong &= ~((level == 0) & (r < 0))
    return r, strong


def _bump_pairs(counts: np.ndarray, n_hat: np.ndarray, candidates: np.ndarray,
                offset: float, spacing: float, bin_width: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """Quick load/loss pairs (times, kinds) too short to flip any bin's
    rounded level.

    A pair contained in a level-N stretch leaves one or two adjacent bins
    whose counts sit between levels. Bins deviating from their assigned level
    by more than BUMP_NSIGMA standard deviations (without reaching the
    rounding midpoint, or they would have flipped) are read back as one pair
    per run of adjacent such bins of one sign: up-bump load-then-loss,
    down-bump loss-then-load, at the thirds of a single bin or the middles of
    a run's first and last bins.

    Only the sorted, distinct candidates are tested: they must include every
    bin that can pass. A bin at its count value's level passes only if that
    value does (see _bumps), so detect() gives the bins of such values and
    the bins it rewrote.
    """
    # the candidates that have a neighbour on either side
    i = candidates[(candidates >= 1) & (candidates < len(n_hat) - 1)]
    level = n_hat[i]
    r, strong = _bumps(counts[i], level, offset, spacing)
    strong &= (level == n_hat[i - 1]) & (level == n_hat[i + 1])
    idx = i[strong]
    up = r[strong] > 0
    # runs of adjacent strong bins of one sign: a gap or a sign change ends one
    starts = (np.diff(idx, prepend=-2) != 1) | np.diff(up, prepend=up[:1])
    first = idx[starts]
    last = idx[(np.diff(idx, append=idx[-1:] + 2) != 1) | np.diff(up, append=up[-1:])]
    up = up[starts]
    w = bin_width
    single = first == last
    t1 = np.where(single, first * w + w / 3.0, first * w + w / 2.0)
    t2 = np.where(single, first * w + 2.0 * w / 3.0, last * w + w / 2.0)
    kinds = np.column_stack([np.where(up, KIND_LOAD, KIND_LOSS1),
                             np.where(up, KIND_LOSS1, KIND_LOAD)])
    return np.column_stack([t1, t2]).ravel(), kinds.ravel().astype(np.int8)
