"""Rate estimation from event logs and suppression-curve fits.

tabulate() reduces an event log to per-occupancy dwell times and event counts.
fit_rates() extracts the load rate, the one-atom loss terms bg*N + b1*N(N-1),
and the two-atom loss term b2*N(N-1) by weighted least squares on the
per-occupancy rates. fit_repump_decay() fits the shielding curve
y = offset + amplitude*exp(-s0/scale) used to infer temperatures and to
extrapolate the unshielded two-atom loss coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import erfc

import numpy as np

from .constants import DOPPLER_TEMP
from .detect import BUMP_NSIGMA, Calibration, bump_threshold
from .markov import EventLog, KIND_LOAD, KIND_LOSS1, KIND_LOSS2


class DegenerateDataError(RuntimeError):
    """Too few populated occupancy levels to identify the rate model."""


class ConvergenceError(RuntimeError):
    """Nonlinear fit failed to converge."""


@dataclass
class EventRateTable:
    """Dwell time and event counts per occupancy level."""

    n: np.ndarray  # occupancy levels, 0..n_max
    occupancy_s: np.ndarray  # total time spent at each level
    n_load: np.ndarray
    n_loss1: np.ndarray
    n_loss2: np.ndarray

    def rate(self, kind: str) -> np.ndarray:
        counts = getattr(self, f"n_{kind}")
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.occupancy_s > 0, counts / self.occupancy_s, np.nan)

    def rate_err(self, kind: str) -> np.ndarray:
        """Poisson rate uncertainty, max(sqrt(c), 1)/T so zero counts still bound."""
        counts = getattr(self, f"n_{kind}")
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(self.occupancy_s > 0,
                            np.maximum(np.sqrt(counts), 1.0) / self.occupancy_s, np.nan)


def tabulate(log: EventLog) -> EventRateTable:
    """Accumulate per-occupancy dwell times and event counts from a log."""
    t_break, levels = log.staircase()
    dwell = np.diff(np.append(t_break, log.duration))
    # every atom number of the log is a level of its staircase
    occ = np.bincount(levels, weights=dwell)
    loads, loss1, loss2 = (
        np.bincount(log.n_before[log.kinds == kind], minlength=len(occ)).astype(float)
        for kind in (KIND_LOAD, KIND_LOSS1, KIND_LOSS2))
    return EventRateTable(n=np.arange(len(occ)), occupancy_s=occ,
                          n_load=loads, n_loss1=loss1, n_loss2=loss2)


# Geometric acceptances, in bins, for the pair-confusion modes of level
# rounding. Two one-atom losses closer than about a bin fuse into a read of
# one two-atom loss; a load within the same window of a two-atom loss
# swallows it into a read of one one-atom loss; a load/loss1 pair that flips
# no bin cancels entirely unless its residual clears the bump threshold, which
# leaves an acceptance of theta + theta^2/2 per event order at threshold
# theta (in atoms). The fuse and swallow values are hand-set: detect, run on
# noise-free pairs at N = 2-5 (test_fitting pins N = 3), fuses over 1.35-1.41
# bins and swallows over 1.30-1.43, and no transfer models its three-event
# misreads of 0.09-0.18 bins each; ROADMAP item 2 replaces both with a table.
PAIR_FUSE_BINS = 1.5
PAIR_SWALLOW_BINS = 1.625
# chance a flat bin's shot noise alone clears the two-sided bump threshold
BUMP_FP_PER_BIN = float(erfc(BUMP_NSIGMA / np.sqrt(2.0)))


def correct_coincidences(table: EventRateTable, bin_width: float,
                         calibration: Calibration | None = None,
                         ) -> EventRateTable:
    """First-order pile-up correction of a table read from binned detection.

    Expectation transfers, all computable from the observed table:

    * fuse: quick loss1 pairs read as one loss2. Expected count at occupancy N
      is r1(N) * r1(N-1) * PAIR_FUSE_BINS * w * occupancy(N); moved from loss2
      back to two one-atom losses (one at N, one at N-1).
    * swallow: a load next to a loss2 reads as one loss1. Expected count is
      r2(N) * R * PAIR_SWALLOW_BINS * w * occupancy(N); the loss2 and the load
      are restored and the spurious loss1 at N removed.
    * cancel (needs `calibration` for the shot-noise scale): a load/loss1 pair
      below the bump threshold theta(N) vanishes; the lost load and loss1 are
      restored with acceptance theta + theta^2/2 per order. The bump pass also
      fires on bare noise in BUMP_FP_PER_BIN of flat bins, adding a spurious
      load/loss1 pair that is subtracted here. Both model detect's bump pass.

    Without the transfers the quadratic loss coefficients read several percent
    low at typical occupancies and the linear term correspondingly high.
    """
    if bin_width <= 0:
        raise ValueError("bin_width must be positive")
    occ = table.occupancy_s
    total = float(occ.sum())
    load_rate = float(table.n_load.sum()) / total if total > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(occ > 0, table.n_loss1 / occ, 0.0)
        r2 = np.where(occ > 0, table.n_loss2 / occ, 0.0)

    fuse = np.zeros_like(occ)
    fuse[1:] = r1[1:] * r1[:-1] * PAIR_FUSE_BINS * bin_width * occ[1:]
    fuse = np.minimum(fuse, table.n_loss2)  # cannot restore more than was read

    swallow = r2 * load_rate * PAIR_SWALLOW_BINS * bin_width * occ

    loss1 = table.n_loss1 + fuse - swallow
    loss1[:-1] += fuse[1:]
    loads = table.n_load + swallow
    loss2 = table.n_loss2 - fuse + swallow

    if calibration is not None:
        o_w, s_w = calibration.per_bin(bin_width)
        theta = np.minimum(bump_threshold(table.n, o_w, s_w), 0.5)
        k_half = (theta + 0.5 * theta**2) * bin_width * load_rate
        # load-first pair at N eats a load(N) and a loss1(N+1)
        f_up = occ * k_half * np.append(r1[1:], 0.0)
        # loss1-first pair at N eats a loss1(N) and a load(N-1)
        f_dn = occ * k_half * r1
        loads += f_up
        loads[:-1] += f_dn[1:]
        loss1 += f_dn
        loss1[1:] += f_up[:-1]
        # noise-only bump pairs: a spurious load booked at the stretch level
        # and a spurious loss1 booked one level up. The top row has no
        # matching loss1 row, so it stays uncorrected.
        fp = BUMP_FP_PER_BIN * occ / bin_width
        loads[:-1] -= fp[:-1]
        loss1[1:] -= fp[:-1]

    return EventRateTable(n=table.n.copy(), occupancy_s=occ.copy(),
                          n_load=np.maximum(loads, 0.0),
                          n_loss1=np.maximum(loss1, 0.0),
                          n_loss2=np.maximum(loss2, 0.0))


@dataclass
class FitResult:
    load_rate: float
    load_rate_err: float
    bg_rate: float  # one-atom background loss rate per atom
    bg_rate_err: float
    b1: float  # one-atom collisional coefficient of N(N-1)
    b1_err: float
    b2_event: float  # two-atom event coefficient of N(N-1)
    b2_event_err: float
    chi2: float
    dof: int
    clipped: tuple[str, ...] = field(default_factory=tuple)

    @property
    def bg_lifetime(self) -> float:
        return 1.0 / self.bg_rate if self.bg_rate > 0 else np.inf

    @property
    def bg_lifetime_err(self) -> float:
        return self.bg_rate_err / self.bg_rate**2 if self.bg_rate > 0 else np.inf

    @property
    def beta2_over_v(self) -> float:
        """Two-atom atom-loss flux coefficient, 2*b2 (atoms per pair event)."""
        return 2.0 * self.b2_event

    @property
    def beta2_over_v_err(self) -> float:
        return 2.0 * self.b2_event_err

    @property
    def beta_total_over_v(self) -> float:
        """Total collisional atom-loss flux coefficient b1 + 2*b2."""
        return self.b1 + 2.0 * self.b2_event

    @property
    def beta_total_over_v_err(self) -> float:
        return float(np.hypot(self.b1_err, 2.0 * self.b2_event_err))


def _wls(design: np.ndarray, y: np.ndarray, sigma: np.ndarray):
    """Weighted least squares; returns (coef, cov, chi2)."""
    a = design / sigma[:, None]
    b = y / sigma
    ata = a.T @ a
    cov = np.linalg.inv(ata)
    coef = cov @ (a.T @ b)
    chi2 = float(np.sum((b - a @ coef) ** 2))
    return coef, cov, chi2


# (channel, lowest N fitted, fitted coefficients, their design columns in N)
_CHANNELS = (
    ("load", 0, ("load_rate",), lambda n: [np.ones_like(n)]),
    ("loss1", 1, ("bg_rate", "b1"), lambda n: [n, n * (n - 1.0)]),
    ("loss2", 2, ("b2_event",), lambda n: [n * (n - 1.0)]),
)


def fit_rates(table: EventRateTable,
              coincidence_width: float | None = None,
              calibration: Calibration | None = None) -> FitResult:
    """Fit the occupancy dependence of the three event channels.

    load: constant R. loss1: bg*N + b1*N(N-1). loss2: b2*N(N-1). Each is a
    weighted least-squares fit over the populated levels from its lowest N
    on. Coefficients driven negative by noise are clipped to zero and
    flagged. Pass the trace bin width as coincidence_width and its
    calibration when the table comes from binned detection to apply the
    pile-up corrections; leave both None for exact logs. A calibration
    without coincidence_width raises ValueError: its transfers would not
    apply.
    """
    if coincidence_width is not None:
        table = correct_coincidences(table, coincidence_width, calibration)
    elif calibration is not None:
        raise ValueError("fit_rates: a calibration needs the coincidence_width "
                         "of the trace it was taken from")
    fields: dict[str, float] = {}
    clipped: list[str] = []
    chi2, dof = 0.0, 0
    for channel, lowest, names, columns in _CHANNELS:
        sel = (table.occupancy_s > 0) & (table.n >= lowest)
        levels = int(sel.sum())
        if levels < len(names):
            raise DegenerateDataError(
                f"{levels} populated level(s) with N >= {lowest}; the {channel} "
                f"fit of {', '.join(names)} needs {len(names)}")
        n = table.n[sel].astype(float)
        coef, cov, chi2_channel = _wls(np.column_stack(columns(n)),
                                       table.rate(channel)[sel],
                                       table.rate_err(channel)[sel])
        chi2 += chi2_channel
        dof += levels - len(names)
        for name, value, var in zip(names, coef, np.diag(cov)):
            if value < 0:
                value = 0.0
                clipped.append(name)
            fields[name] = float(value)
            fields[name + "_err"] = float(np.sqrt(var))
    return FitResult(**fields, chi2=chi2, dof=max(dof, 0), clipped=tuple(clipped))


@dataclass
class SuppressionFit:
    """Parameters of y = offset + amplitude * exp(-s0/scale)."""

    offset: float
    offset_err: float
    amplitude: float
    amplitude_err: float
    scale: float  # the saturation constant A
    scale_err: float
    chi2: float
    dof: int


def fit_repump_decay(s0: np.ndarray, y: np.ndarray,
                     sigma: np.ndarray) -> SuppressionFit:
    """Fit the shielding decay y(s0) = offset + amplitude*exp(-s0/scale),
    weighting each point by its standard error sigma."""
    # imported here so that `import fewatom` does not pay for scipy.optimize,
    # which nothing else in the package needs
    from scipy.optimize import least_squares

    s0, y, sigma = (np.asarray(a, dtype=float) for a in (s0, y, sigma))
    for name, a in (("s0", s0), ("y", y), ("sigma", sigma)):
        if a.shape != (s0.size,):
            raise ValueError(f"{name} must be a 1-D array of {s0.size} points, "
                             f"got shape {a.shape}")
    if len(s0) < 4:
        raise DegenerateDataError("need at least 4 points for the 3-parameter fit")
    for name, a in (("s0", s0), ("y", y)):
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} must be finite")
    if not np.all((0 < sigma) & (sigma < np.inf)):
        raise ValueError("sigma must be positive and finite")

    # seed from the high-s0 tail (offset) and a log-linear slope
    order = np.argsort(s0)
    tail = y[order][-max(len(y) // 4, 1):]
    c0 = float(np.mean(tail))
    amp0 = max(float(np.max(y) - c0), 1e-300)
    pos = y - c0 > amp0 * 1e-3
    if pos.sum() >= 2:
        slope = np.polyfit(s0[pos], np.log(y[pos] - c0), 1)[0]
        a0 = -1.0 / slope if slope < 0 else float(np.ptp(s0))
    else:
        a0 = float(np.ptp(s0))
    a0 = max(a0, 1e-6)

    def resid(p):
        return (p[0] + p[1] * np.exp(-s0 / p[2]) - y) / sigma

    res = least_squares(resid, x0=[max(c0, 0.0), amp0, a0],
                        bounds=([0.0, 0.0, 1e-9], [np.inf, np.inf, np.inf]),
                        method="trf")
    if not res.success:
        raise ConvergenceError(f"suppression fit failed: {res.message}")
    chi2 = float(2.0 * res.cost)
    dof = len(y) - 3
    jtj = res.jac.T @ res.jac
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError("singular curvature at the fit optimum") from exc
    if dof > 0:
        cov = cov * max(chi2 / dof, 1.0)
    err = np.sqrt(np.diag(cov))
    return SuppressionFit(offset=float(res.x[0]), offset_err=float(err[0]),
                          amplitude=float(res.x[1]), amplitude_err=float(err[1]),
                          scale=float(res.x[2]), scale_err=float(err[2]),
                          chi2=chi2, dof=dof)


def infer_temperature(scale: float) -> float:
    """Invert A = 1 + (T/T_D)^2/2 to the sample temperature in kelvin."""
    if not 1.0 < scale < np.inf:
        raise ValueError(f"saturation constant {scale} must exceed 1 and be finite")
    return DOPPLER_TEMP * np.sqrt(2.0 * (scale - 1.0))


def extrapolate_beta_hcc(fit: SuppressionFit, volume_cm3: float,
                         r0_m: float | None = None,
                         dr0_m: float = 2e-6) -> tuple[float, float]:
    """Unshielded two-atom coefficient amplitude*V with volume-error propagation.

    The effective volume scales as r0^3, so a trap-size uncertainty dr0
    contributes a relative volume error of 3*dr0/r0.
    """
    if not 0 < volume_cm3 < np.inf:
        raise ValueError("volume_cm3 must be positive and finite")
    beta = fit.amplitude * volume_cm3
    var = (fit.amplitude_err * volume_cm3) ** 2
    if r0_m is not None:
        if not 0 < r0_m < np.inf:
            raise ValueError("r0_m must be positive and finite")
        if not 0 <= dr0_m < np.inf:
            raise ValueError("dr0_m must be finite and non-negative")
        var += (fit.amplitude * volume_cm3 * 3.0 * dr0_m / r0_m) ** 2
    return float(beta), float(np.sqrt(var))

