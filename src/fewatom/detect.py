"""Step detection on photon-count traces.

calibrate() locates the equally spaced count levels (atom number comb) in the
trace histogram and refines background and per-atom spacing by a global
regression. detect() rounds each bin to its nearest level, applies two
structural corrections (single-bin excursions are noise-suppressed only at low
SNR, and down-down transition bins are folded into two-atom steps), and emits
number-changing events at bin boundaries.

Neither stage keeps a per-bin temporary beyond the level sequence it
returns or rewrites: calibrate() works on the count histogram alone, and
the per-bin passes of detect() run BLOCK_BINS bins at a time.
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
    """Each bin's atom number: counts rounded to the nearest comb level, >= 0."""
    n_hat = np.empty(len(counts), dtype=np.int64)
    for lo in range(0, len(counts), BLOCK_BINS):
        x = counts[lo:lo + BLOCK_BINS] - offset
        x /= spacing
        np.round(x, out=x)
        np.maximum(x, 0.0, out=x)
        n_hat[lo:lo + BLOCK_BINS] = x
    return n_hat


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
    spike_bins: int  # isolated single-bin excursions suppressed
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
    counts = trace.counts
    if len(counts) < 10:
        raise CalibrationError("trace too short to calibrate")
    hist = np.bincount(counts)
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
    height, distance and prominence, applied in that order.
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
    # lower, so a run touching either end of the histogram never is
    starts = np.flatnonzero(np.r_[True, smooth[1:] != smooth[:-1]])
    ends = np.r_[starts[1:] - 1, len(smooth) - 1]
    level = smooth[starts]
    top = np.flatnonzero((level[1:-1] > level[:-2]) & (level[1:-1] > level[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    peaks = peaks[smooth[peaks] >= min_height]

    keep = np.ones(len(peaks), dtype=bool)
    for j in np.argsort(smooth[peaks])[::-1]:
        if keep[j]:
            near = np.abs(peaks - peaks[j]) < min_dist
            near[j] = False
            keep &= ~near
    peaks = peaks[keep]

    # prominence: height above the higher of the two minima reached before
    # the trace climbs above the peak on either side
    prominence = np.empty(len(peaks))
    for m, p in enumerate(peaks):
        higher = np.flatnonzero(smooth[:p] > smooth[p])
        lo = higher[-1] + 1 if len(higher) else 0
        higher = np.flatnonzero(smooth[p:] > smooth[p])
        hi = p + higher[0] if len(higher) else len(smooth)
        prominence[m] = smooth[p] - max(smooth[lo:p + 1].min(), smooth[p:hi].min())
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


# Above this SNR a single-bin level excursion cannot plausibly be shot noise
# (it would need a > 4.5 sigma count fluctuation), so it is kept as a genuine
# quick load/loss pair instead of being median-suppressed.
SPIKE_KEEP_SNR = 9.0

# Residual threshold, in shot-noise sigma of the local level, above which a
# flat-stretch bin is read back as a quick load/loss pair.
BUMP_NSIGMA = 4.5


def bump_threshold(level, offset: float, spacing: float):
    """The residual, in atoms, above which a flat-stretch bin at atom number
    level is read as a quick load/loss pair: BUMP_NSIGMA shot-noise sigma."""
    return BUMP_NSIGMA * (shot_noise(level, offset, spacing) / spacing)


def detect(trace: FluorescenceTrace, cal: Calibration,
           min_snr: float = 5.0) -> tuple[EventLog, DetectionReport]:
    """Recover the event log from a trace.

    Events sit at bin boundaries: dN=+1 load, -1 one-atom loss, -2 two-atom
    loss. A dN=+2 boundary becomes two loads inside the bin, and jumps with
    |dN| > 2 are re-voted with a local median and counted as ambiguous.
    Raises DetectionQualityError when the level separation over shot noise at
    the typical occupancy falls below min_snr.
    """
    if len(trace.counts) == 0:
        raise ValueError("cannot detect events in an empty trace (0 bins)")
    w = trace.bin_width
    offset, spacing = cal.per_bin(w)
    n_hat = _levels(trace.counts, offset, spacing)

    n_typ = _hist_percentile(np.cumsum(np.bincount(n_hat)), 99.5)
    snr = float(spacing / shot_noise(max(n_typ, 1.0), offset, spacing))
    if snr < min_snr:
        raise DetectionQualityError(
            f"level separation / shot noise = {snr:.2f} below minimum {min_snr:.2f}")

    # One-bin excursions that return to the surrounding level: below
    # SPIKE_KEEP_SNR these are suppressed as noise; above it shot noise cannot
    # reach the next level and every such excursion is a real load+loss (or
    # loss+load) pair, so it is left in place.
    spikes = 0
    if len(n_hat) >= 3 and snr < SPIKE_KEEP_SNR:
        steps = _steps(n_hat, lambda d: d != 0)
        d = n_hat[steps + 1] - n_hat[steps]
        # a step into the bin and the opposite step out of it
        idx = steps[1:][(np.diff(steps) == 1) & (d[1:] == -d[:-1])]
        spikes = len(idx)
        if spikes:
            n_hat[idx] = n_hat[idx - 1]

    # A two-atom loss mid-bin leaves one transition bin at the intermediate
    # level, which would read as two consecutive one-atom losses. Fold the
    # down-down one-bin dwell back into a single -2 step; genuine one-atom
    # losses one bin apart are rarer than this artifact by roughly the event
    # rate times the bin width.
    merged = _merge_down_down(n_hat, trace.counts, offset, spacing)

    # re-vote implausible jumps with the local median
    bad = _steps(n_hat, lambda d: np.abs(d, out=d) > 2)
    ambiguous = len(bad)
    for i in bad:
        lo = max(i - 1, 0)
        hi = min(i + 3, len(n_hat))
        n_hat[i + 1] = int(np.median(n_hat[lo:hi]))

    times, kinds, befores = _events_from_levels(n_hat, w)
    bumps = 0
    if snr >= SPIKE_KEEP_SNR:
        pairs = _bump_pairs(trace.counts, n_hat, offset, spacing, w)
        bumps = len(pairs[0]) // 2
        times, kinds, befores = (np.concatenate(parts) for parts in
                                 zip((times, kinds, befores), pairs))
        order = np.argsort(times, kind="stable")
        times, kinds, befores = times[order], kinds[order], befores[order]

    log = EventLog(
        times=times, kinds=kinds, n_before=befores,
        n0=int(n_hat[0]),
        duration=len(n_hat) * w,
        seed=trace.seed)
    n_events = len(log.times)
    rate = n_events / trace.duration if trace.duration > 0 else 0.0
    report = DetectionReport(
        n_bins=len(trace.counts), n_events=n_events, snr=snr,
        spike_bins=spikes, merged_bins=merged, pair_bumps=bumps,
        ambiguous_bins=ambiguous, event_rate=rate,
        coincidence_probability=1.0 - float(np.exp(-rate * w)))
    return log, report


def _steps(n_hat: np.ndarray, test) -> np.ndarray:
    """Boundaries i, between bins i and i+1, whose step
    d = n_hat[i+1] - n_hat[i] passes test(d), found BLOCK_BINS at a time."""
    found = [np.empty(0, dtype=np.int64)]
    for lo in range(0, len(n_hat) - 1, BLOCK_BINS):
        d = np.diff(n_hat[lo:lo + BLOCK_BINS + 1])
        found.append(np.flatnonzero(test(d)) + lo)
    return np.concatenate(found)


def _merge_down_down(n_hat: np.ndarray, counts: np.ndarray, offset: float,
                     spacing: float) -> int:
    """Fold one-bin down-down dwells into two-atom steps in place; return the count.

    Bins are visited in order and each one is judged on the level sequence
    as rewritten so far. Only down-down bins of the sequence as given can
    qualify, since a rewrite at i leaves bin i+1 with a step of 0 or -2 to
    its left; the next candidate is still re-checked.
    """
    down = _steps(n_hat, lambda d: d == -1)
    candidates = down[1:][np.diff(down) == 1]
    merged = 0
    for i in candidates.tolist():
        if n_hat[i] - n_hat[i - 1] == -1 and n_hat[i + 1] - n_hat[i] == -1:
            # park the transition bin on whichever side its mean count favors,
            # otherwise dwell time is systematically pushed to the upper level
            upper = n_hat[i - 1]
            nu = (counts[i] - offset) / spacing
            n_hat[i] = upper if nu >= upper - 1.0 else n_hat[i + 1]
            merged += 1
    return merged


def _events_from_levels(n_hat: np.ndarray, bin_width: float
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Boundary events (times, kinds, n_before) of a per-bin level sequence.

    A boundary with dN = +1, -1 or -2 holds one event at the boundary, and
    dN = +2 two loads, at mid-bin and at the boundary. A residual |dN| > 2
    left by the re-vote unfolds into unit loads or, going down, into the
    fewest-event composition with two-atom steps first, spread evenly over
    the bin before the boundary.
    """
    bounds = _steps(n_hat, lambda d: d != 0)
    d = n_hat[bounds + 1] - n_hat[bounds]
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
    befores = n_hat[bounds[owner]] + np.where(up, j, -2 * j)
    return times, kinds, befores


def _bump_pairs(counts: np.ndarray, n_hat: np.ndarray, offset: float,
                spacing: float, bin_width: float
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quick load/loss pairs (times, kinds, n_before) too short to flip any
    bin's rounded level.

    A pair contained in a level-N stretch leaves one or two adjacent bins
    whose counts sit between levels. Bins deviating from their assigned level
    by more than BUMP_NSIGMA standard deviations (without reaching the
    rounding midpoint, or they would have flipped) are read back as one pair
    per run of adjacent such bins of one sign: up-bump load-then-loss,
    down-bump loss-then-load, at the thirds of a single bin or the middles of
    a run's first and last bins.
    """
    thresh = bump_threshold(np.arange(n_hat.max(initial=0) + 1), offset, spacing)
    idx, resid = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for start in range(0, len(n_hat), BLOCK_BINS):
        # the block's bins lo..hi-1 that have a neighbour on either side
        lo, hi = max(start, 1), min(start + BLOCK_BINS, len(n_hat) - 1)
        level = n_hat[lo:hi]
        r = counts[lo:hi] - offset
        r /= spacing
        r -= level
        strong = (level == n_hat[lo - 1:hi - 1]) & (level == n_hat[lo + 1:hi + 1])
        strong &= np.abs(r) > thresh[level]
        # a downward bump at level 0 has no loss to pair with a load
        strong &= ~((level == 0) & (r < 0))
        i = np.flatnonzero(strong)
        idx.append(i + lo)
        resid.append(r[i])
    idx = np.concatenate(idx)
    up = np.concatenate(resid) > 0
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
    n_before = n_hat[first]
    return (np.column_stack([t1, t2]).ravel(), kinds.ravel().astype(np.int8),
            np.column_stack([n_before, n_before + np.where(up, 1, -1)]).ravel())
