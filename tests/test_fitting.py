import collections
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewatom.detect import Calibration, detect
from fewatom.fitting import (PAIR_FUSE_BINS, PAIR_SWALLOW_BINS,
                             DegenerateDataError, EventRateTable, FitResult,
                             SuppressionFit, _wls, correct_coincidences,
                             extrapolate_beta_hcc, fit_rates, fit_repump_decay,
                             infer_temperature, tabulate)
from fewatom.channels import scaling_constant
from fewatom.markov import (KIND_LOAD, KIND_LOSS1, KIND_LOSS2, EventLog,
                            RateModel, master_stationary, simulate)
from fewatom.trace import FluorescenceTrace, binned_mean_counts
from test_storage import _event_logs

FIG2 = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
_CAL = Calibration(per_atom_rate=10_000.0, bg_rate=500.0,
                   per_atom_err=50.0, bg_err=20.0, n_levels=10)


def _log(times, kinds, n0, duration):
    return EventLog(times=np.asarray(times, dtype=float),
                    kinds=np.asarray(kinds, dtype=np.int8),
                    n0=n0, duration=duration, seed=0)


def test_tabulate_hand_case():
    log = _log([1.0, 3.0, 5.0, 8.0],
               [KIND_LOAD, KIND_LOSS1, KIND_LOAD, KIND_LOSS2],
               n0=1, duration=10.0)
    tab = tabulate(log)
    occ = dict(zip(tab.n.tolist(), tab.occupancy_s.tolist()))
    assert occ[0] == pytest.approx(2.0)   # [8, 10]
    assert occ[1] == pytest.approx(3.0)   # [0, 1] + [3, 5]
    assert occ[2] == pytest.approx(5.0)   # [1, 3] + [5, 8]
    i1 = tab.n.tolist().index(1)
    i2 = tab.n.tolist().index(2)
    assert tab.n_load[i1] == 2
    assert tab.n_loss1[i2] == 1
    assert tab.n_loss2[i2] == 1


def test_rate_and_error_columns():
    log = _log([1.0, 3.0], [KIND_LOAD, KIND_LOSS1], n0=1, duration=10.0)
    tab = tabulate(log)
    i1 = tab.n.tolist().index(1)
    assert tab.rate("load")[i1] == pytest.approx(
        tab.n_load[i1] / tab.occupancy_s[i1])
    # at least one count of uncertainty even for empty cells
    assert tab.rate_err("loss2")[i1] == pytest.approx(1.0 / tab.occupancy_s[i1])


def test_fit_rates_exact_log():
    log = simulate(FIG2, duration=40_000.0, seed=42)
    fit = fit_rates(tabulate(log))
    assert fit.load_rate == pytest.approx(FIG2.load_rate, rel=0.05)
    assert fit.bg_rate == pytest.approx(FIG2.bg_rate, rel=0.15)
    assert fit.b1 == pytest.approx(FIG2.b1, rel=0.35)
    assert fit.b2_event == pytest.approx(FIG2.b2, rel=0.10)
    # pulls stay reasonable
    assert abs(fit.load_rate - FIG2.load_rate) < 4 * fit.load_rate_err
    assert abs(fit.bg_rate - FIG2.bg_rate) < 4 * fit.bg_rate_err
    assert abs(fit.b1 - FIG2.b1) < 4 * fit.b1_err
    assert abs(fit.b2_event - FIG2.b2) < 4 * fit.b2_event_err
    assert not fit.clipped
    assert fit.dof > 0


def test_fit_result_derived_quantities():
    log = simulate(FIG2, duration=20_000.0, seed=1)
    fit = fit_rates(tabulate(log))
    assert fit.bg_lifetime == pytest.approx(1.0 / fit.bg_rate, rel=1e-12)
    assert fit.beta2_over_v == pytest.approx(2.0 * fit.b2_event, rel=1e-12)
    assert fit.beta_total_over_v == pytest.approx(fit.b1 + 2.0 * fit.b2_event,
                                                  rel=1e-12)


def _dense_table():
    # well-populated cells so the non-negativity clip never engages
    n = np.arange(7)
    occ = np.array([4.0e3, 8.0e3, 9.0e3, 6.0e3, 3.0e3, 1.2e3, 4.0e2])
    load = np.array([560.0, 1100.0, 1260.0, 840.0, 420.0, 170.0, 50.0])
    loss1 = np.array([0.0, 160.0, 400.0, 450.0, 350.0, 200.0, 90.0])
    loss2 = np.array([0.0, 0.0, 110.0, 140.0, 110.0, 60.0, 25.0])
    return EventRateTable(n=n, occupancy_s=occ, n_load=load,
                          n_loss1=loss1, n_loss2=loss2)


def test_correct_coincidences_balance():
    # the pile-up transfers reshuffle reads between channels but never create
    # or destroy net atom loss
    tab = _dense_table()
    before = (tab.n_loss1 + 2.0 * tab.n_loss2 - tab.n_load).sum()
    out = correct_coincidences(tab, 0.1, _CAL)
    after = (out.n_loss1 + 2.0 * out.n_loss2 - out.n_load).sum()
    assert after == pytest.approx(before, rel=1e-9)
    np.testing.assert_array_equal(out.n, tab.n)
    np.testing.assert_array_equal(out.occupancy_s, tab.occupancy_s)


def test_correct_coincidences_fuse_magnitude():
    # only the fuse and swallow transfers touch loss2 (cancel and the noise
    # bump move loads and loss1); check it against the closed-form rates
    tab = _dense_table()
    w = 0.1
    out = correct_coincidences(tab, w, _CAL)
    r1 = tab.n_loss1 / tab.occupancy_s
    r2 = tab.n_loss2 / tab.occupancy_s
    load_rate = tab.n_load.sum() / tab.occupancy_s.sum()
    fuse = np.zeros_like(r1)
    fuse[1:] = r1[1:] * r1[:-1] * PAIR_FUSE_BINS * w * tab.occupancy_s[1:]
    swallow = r2 * load_rate * PAIR_SWALLOW_BINS * w * tab.occupancy_s
    np.testing.assert_allclose(out.n_loss2, tab.n_loss2 - fuse + swallow,
                               rtol=1e-12)


# -- the pile-up constants against the detector: two events at N = 3 on
# noise-free counts (the rounded exact means, 1e4 Hz per atom, 500 Hz
# background, w = 0.1 s), read by detect with the true calibration, at 60
# gaps over 3 bins times 10 phases (midpoints); a read's acceptance in bins
# is its share of the cells times 3

_PAIR_GAPS, _PAIR_PHASES, _PAIR_SPAN = 60, 10, 3.0


@functools.cache
def _pair_reads(pair: str) -> dict[str, int]:
    """How many (gap, phase) cells detect reads as each kind sequence, for
    the true events `pair` (A a load, B a loss1, C a loss2) from N = 3."""
    w, rate, bg = 0.1, 1e4, 500.0
    cal = Calibration(per_atom_rate=rate, bg_rate=bg, per_atom_err=0.0,
                      bg_err=0.0, n_levels=2)
    reads = collections.Counter()
    for j in range(_PAIR_GAPS):
        gap = (j + 0.5) * _PAIR_SPAN / _PAIR_GAPS
        for p in range(_PAIR_PHASES):
            t0 = (8 + (p + 0.5) / _PAIR_PHASES) * w
            log = _log([t0, t0 + gap * w], ["ABC".index(c) for c in pair],
                       n0=3, duration=20 * w)
            counts = np.round(binned_mean_counts(log, rate, bg, w)).astype(np.int64)
            got, _ = detect(FluorescenceTrace(bin_width=w, counts=counts,
                                              per_atom_rate=rate, bg_rate=bg,
                                              seed=0), cal)
            reads["".join("ABC"[k] for k in got.kinds)] += 1
    return dict(reads)


def _acceptance_bins(pair: str, read: str) -> float:
    return _pair_reads(pair).get(read, 0) * _PAIR_SPAN / (_PAIR_GAPS * _PAIR_PHASES)


def test_pair_reads_of_detect():
    # today's read table; BAC, ABB and BBA are spurious reads no transfer models
    assert _pair_reads("BB") == {"C": 270, "BB": 300, "BAC": 30}
    assert _pair_reads("AC") == {"B": 130, "AC": 440, "ABB": 30}
    assert _pair_reads("CA") == {"B": 132, "CA": 432, "BBA": 36}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3: the hand-set pile-up "
                   "constants exceed what detect misreads (1.35 and 1.31 bins)")
def test_pair_constants_match_detect():
    fuse = _acceptance_bins("BB", "C")
    swallow = _acceptance_bins("AC", "B") + _acceptance_bins("CA", "B")
    assert fuse == pytest.approx(PAIR_FUSE_BINS, rel=0.05)
    assert swallow == pytest.approx(PAIR_SWALLOW_BINS, rel=0.05)


def test_correct_coincidences_direction():
    # fusing restores one-atom pairs out of the pair-loss channel, so the
    # corrected table must move counts from loss2 into loss1
    log = simulate(RateModel(0.5, 0.05, 0.0, 0.0), duration=20_000.0, seed=4)
    tab = tabulate(log)
    out = correct_coincidences(tab, 0.1, _CAL)
    assert out.n_loss2.sum() <= tab.n_loss2.sum()
    assert out.n_loss1.sum() >= tab.n_loss1.sum()


def test_correct_coincidences_validation():
    log = simulate(FIG2, duration=1000.0, seed=2)
    tab = tabulate(log)
    with pytest.raises(ValueError):
        correct_coincidences(tab, 0.0, _CAL)
    bad_cal = Calibration(per_atom_rate=0.0, bg_rate=500.0,
                          per_atom_err=1.0, bg_err=1.0, n_levels=3)
    with pytest.raises(ValueError):
        correct_coincidences(tab, 0.1, bad_cal)


def test_correct_coincidences_never_negative():
    log = simulate(FIG2, duration=5000.0, seed=6)
    tab = tabulate(log)
    out = correct_coincidences(tab, 0.1, _CAL)
    assert out.n_loss1.min() >= 0.0
    assert out.n_loss2.min() >= 0.0
    assert out.n_load.min() >= 0.0


def test_fit_repump_decay_recovers_curve():
    rng = np.random.default_rng(12)
    s0 = np.array([2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0, 32.0, 48.0])
    offset, amp, scale = 0.010, 0.020, 4.2
    y_true = offset + amp * np.exp(-s0 / scale)
    sigma = np.full_like(s0, 4e-4)
    y = y_true + rng.normal(0.0, sigma)
    fit = fit_repump_decay(s0, y, sigma)
    assert fit.offset == pytest.approx(offset, abs=4 * fit.offset_err)
    assert fit.amplitude == pytest.approx(amp, abs=4 * fit.amplitude_err)
    assert fit.scale == pytest.approx(scale, abs=4 * fit.scale_err)
    assert fit.dof == len(s0) - 3


def test_fit_repump_decay_needs_points():
    s0 = np.array([2.0, 4.0, 8.0])
    y = np.exp(-s0 / 4.0)
    with pytest.raises(DegenerateDataError):
        fit_repump_decay(s0, y, np.full_like(y, 0.01))


_S0_SCAN = np.array([2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0, 32.0, 48.0])


@pytest.mark.parametrize("s0, y, sigma, message", [
    # a length-1 sigma was broadcast over the nine points
    (_S0_SCAN, np.exp(-_S0_SCAN / 4.2), np.array([0.01]),
     r"sigma must be a 1-D array of 9 points, got shape \(1,\)"),
    # a 5-point y raised IndexError
    (_S0_SCAN, np.exp(-_S0_SCAN[:5] / 4.2), np.full(9, 0.01),
     r"y must be a 1-D array of 9 points, got shape \(5,\)"),
    (_S0_SCAN.reshape(3, 3), np.exp(-_S0_SCAN / 4.2), np.full(9, 0.01),
     r"s0 must be a 1-D array of 9 points, got shape \(3, 3\)"),
    (_S0_SCAN, np.exp(-_S0_SCAN / 4.2).reshape(9, 1), np.full(9, 0.01),
     r"y must be a 1-D array of 9 points, got shape \(9, 1\)"),
    (_S0_SCAN, np.exp(-_S0_SCAN / 4.2), 0.01,
     r"sigma must be a 1-D array of 9 points, got shape \(\)"),
    # a nan in y raised scipy's "Initial guess is outside of provided bounds"
    (_S0_SCAN, np.where(_S0_SCAN == 4.0, np.nan, np.exp(-_S0_SCAN / 4.2)),
     np.full(9, 0.01), "y must be finite"),
    (_S0_SCAN, np.where(_S0_SCAN == 4.0, np.inf, np.exp(-_S0_SCAN / 4.2)),
     np.full(9, 0.01), "y must be finite"),
    # a nan or infinite s0 raised numpy's LinAlgError from the seed's polyfit
    (np.where(_S0_SCAN == 4.0, np.nan, _S0_SCAN), np.exp(-_S0_SCAN / 4.2),
     np.full(9, 0.01), "s0 must be finite"),
    (np.where(_S0_SCAN == 4.0, np.inf, _S0_SCAN), np.exp(-_S0_SCAN / 4.2),
     np.full(9, 0.01), "s0 must be finite"),
    (np.where(_S0_SCAN == 4.0, -np.inf, _S0_SCAN), np.exp(-_S0_SCAN / 4.2),
     np.full(9, 0.01), "s0 must be finite"),
    (_S0_SCAN, np.exp(-_S0_SCAN / 4.2), np.where(_S0_SCAN == 4.0, np.nan, 0.01),
     "sigma must be positive and finite"),
    (_S0_SCAN, np.exp(-_S0_SCAN / 4.2), np.where(_S0_SCAN == 4.0, np.inf, 0.01),
     "sigma must be positive and finite"),
    (_S0_SCAN, np.exp(-_S0_SCAN / 4.2), np.where(_S0_SCAN == 4.0, 0.0, 0.01),
     "sigma must be positive and finite"),
], ids=["sigma-length-1", "y-length-5", "s0-2d", "y-2d", "sigma-scalar",
        "y-nan", "y-inf", "s0-nan", "s0-inf", "s0-minus-inf", "sigma-nan",
        "sigma-inf", "sigma-zero"])
def test_fit_repump_decay_checks_arrays(s0, y, sigma, message):
    with pytest.raises(ValueError, match=message):
        fit_repump_decay(s0, y, sigma)


def test_infer_temperature_quartet():
    # decay constants from the three calibrated operating points
    assert infer_temperature(4.2) == pytest.approx(315.672e-6, rel=1e-4)
    assert infer_temperature(9.2) == pytest.approx(505.322e-6, rel=1e-4)
    assert infer_temperature(16.9) == pytest.approx(703.655e-6, rel=1e-4)
    # inverse of the decay-constant model
    for t in (125e-6, 316e-6, 705e-6):
        assert infer_temperature(scaling_constant(t)) == pytest.approx(t, rel=1e-10)
    for bad in (0.5, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="must exceed 1 and be finite"):
            infer_temperature(bad)


def test_extrapolate_beta_hcc_error_budget():
    fit = SuppressionFit(offset=0.01, offset_err=0.001,
                         amplitude=0.020, amplitude_err=0.001,
                         scale=4.2, scale_err=0.3, chi2=5.0, dof=6)
    v = 2.0e-9
    beta, err = extrapolate_beta_hcc(fit, v)
    assert beta == pytest.approx(0.020 * v, rel=1e-12)
    assert err == pytest.approx(0.001 * v, rel=1e-12)
    # a 2 um cloud-radius uncertainty at r0 = 10 um triples to 60% of volume
    beta2, err2 = extrapolate_beta_hcc(fit, v, r0_m=10e-6, dr0_m=2e-6)
    assert beta2 == beta
    expect = np.hypot(0.001 * v, 0.020 * v * 3.0 * 2.0 / 10.0)
    assert err2 == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, message", [
    ("volume_cm3", "volume_cm3 must be positive and finite"),
    ("r0_m", "r0_m must be positive and finite"),
    ("dr0_m", "dr0_m must be finite and non-negative")])
def test_extrapolate_beta_hcc_refuses_non_finite_geometry(name, message, bad):
    # a nan volume returned (nan, nan), and a nan r0 a nan error
    fit = SuppressionFit(offset=0.01, offset_err=0.001, amplitude=0.020,
                         amplitude_err=0.001, scale=4.2, scale_err=0.3,
                         chi2=5.0, dof=6)
    args = {"volume_cm3": 2.0e-9, "r0_m": 10e-6, "dr0_m": 2e-6, name: bad}
    with pytest.raises(ValueError, match=message):
        extrapolate_beta_hcc(fit, **args)



# --- reference implementations -------------------------------------------
# The np.add.at tabulation, the pile-up correction with its own copy of the
# bump threshold, and the three hand-written channel fits (with the weighted
# mean for the load rate) that the bincount tabulation, detect.shot_noise
# and the loop over fitting._CHANNELS replaced. Tables must match bitwise;
# fitted floats to 1e-12 relative, since the load rate is now a one-column
# weighted least-squares fit instead of a weighted mean.

def _tabulate_reference(log):
    t_break, levels = log.staircase()
    dwell = np.diff(np.append(t_break, log.duration))
    n_max = int(levels.max())
    occ = np.zeros(n_max + 1)
    np.add.at(occ, levels, dwell)
    loads = np.zeros(n_max + 1)
    loss1 = np.zeros(n_max + 1)
    loss2 = np.zeros(n_max + 1)
    for kind, acc in ((KIND_LOAD, loads), (KIND_LOSS1, loss1), (KIND_LOSS2, loss2)):
        sel = log.n_before[log.kinds == kind]
        np.add.at(acc, sel, 1.0)
    return EventRateTable(n=np.arange(n_max + 1), occupancy_s=occ,
                          n_load=loads, n_loss1=loss1, n_loss2=loss2)


def _correct_coincidences_reference(table, bin_width, calibration):
    from fewatom.fitting import BUMP_FP_PER_BIN, BUMP_NSIGMA
    occ = table.occupancy_s
    total = float(occ.sum())
    load_rate = float(table.n_load.sum()) / total if total > 0 else 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        r1 = np.where(occ > 0, table.n_loss1 / occ, 0.0)
        r2 = np.where(occ > 0, table.n_loss2 / occ, 0.0)
    fuse = np.zeros_like(occ)
    fuse[1:] = r1[1:] * r1[:-1] * PAIR_FUSE_BINS * bin_width * occ[1:]
    fuse = np.minimum(fuse, table.n_loss2)
    swallow = r2 * load_rate * PAIR_SWALLOW_BINS * bin_width * occ
    loss1 = table.n_loss1 + fuse - swallow
    loss1[:-1] += fuse[1:]
    loads = table.n_load + swallow
    loss2 = table.n_loss2 - fuse + swallow
    s_w = calibration.per_atom_rate * bin_width
    o_w = calibration.bg_rate * bin_width
    lvl = np.maximum(table.n.astype(float), 0.0)
    sig = np.sqrt(np.maximum(o_w + s_w * lvl, 1.0)) / s_w
    theta = np.minimum(BUMP_NSIGMA * sig, 0.5)
    k_half = (theta + 0.5 * theta**2) * bin_width * load_rate
    f_up = occ * k_half * np.append(r1[1:], 0.0)
    f_dn = occ * k_half * r1
    loads += f_up
    loads[:-1] += f_dn[1:]
    loss1 += f_dn
    loss1[1:] += f_up[:-1]
    fp = BUMP_FP_PER_BIN * occ / bin_width
    loads[:-1] -= fp[:-1]
    loss1[1:] -= fp[:-1]
    return EventRateTable(n=table.n.copy(), occupancy_s=occ.copy(),
                          n_load=np.maximum(loads, 0.0),
                          n_loss1=np.maximum(loss1, 0.0),
                          n_loss2=np.maximum(loss2, 0.0))


def _weighted_mean_reference(values, errors):
    w = 1.0 / errors**2
    mean = float(np.sum(w * values) / np.sum(w))
    return mean, float(1.0 / np.sqrt(np.sum(w)))


def _fit_rates_reference(table, coincidence_width=None, calibration=None):
    if calibration is not None:
        table = correct_coincidences(table, coincidence_width, calibration)
    pop = table.occupancy_s > 0
    n = table.n

    sel = pop
    if sel.sum() < 1:
        raise DegenerateDataError("no populated occupancy levels")
    r = table.rate("load")[sel]
    e = table.rate_err("load")[sel]
    wmean, werr = _weighted_mean_reference(r, e)
    chi2 = float(np.sum(((r - wmean) / e) ** 2))
    dof = int(sel.sum()) - 1

    sel1 = pop & (n >= 1)
    if sel1.sum() < 2:
        raise DegenerateDataError("too few levels with N >= 1")
    x1 = n[sel1].astype(float)
    design1 = np.column_stack([x1, x1 * (x1 - 1.0)])
    coef1, cov1, chi2_1 = _wls(design1, table.rate("loss1")[sel1],
                               table.rate_err("loss1")[sel1])
    chi2 += chi2_1
    dof += int(sel1.sum()) - 2

    sel2 = pop & (n >= 2)
    if sel2.sum() < 1:
        raise DegenerateDataError("no populated levels with N >= 2 for pair loss")
    x2 = n[sel2].astype(float)
    design2 = (x2 * (x2 - 1.0))[:, None]
    coef2, cov2, chi2_2 = _wls(design2, table.rate("loss2")[sel2],
                               table.rate_err("loss2")[sel2])
    chi2 += chi2_2
    dof += int(sel2.sum()) - 1

    clipped = []
    bg, b1 = float(coef1[0]), float(coef1[1])
    b2 = float(coef2[0])
    if bg < 0:
        bg = 0.0
        clipped.append("bg_rate")
    if b1 < 0:
        b1 = 0.0
        clipped.append("b1")
    if b2 < 0:
        b2 = 0.0
        clipped.append("b2_event")
    return FitResult(
        load_rate=float(wmean), load_rate_err=float(werr),
        bg_rate=bg, bg_rate_err=float(np.sqrt(cov1[0, 0])),
        b1=b1, b1_err=float(np.sqrt(cov1[1, 1])),
        b2_event=b2, b2_event_err=float(np.sqrt(cov2[0, 0])),
        chi2=chi2, dof=max(dof, 0), clipped=tuple(clipped))


@settings(max_examples=200, deadline=None)
@given(_event_logs())
def test_tabulate_matches_reference(log):
    got, want = tabulate(log), _tabulate_reference(log)
    for name in ("n", "occupancy_s", "n_load", "n_loss1", "n_loss2"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


def _clipping_tables():
    """Populated tables whose loss1 rates bend down (b1 < 0) or rise as
    0.06 N(N-1) - 0.03 N, with none at N = 1 (bg < 0)."""
    occ = np.array([4.0e3, 8.0e3, 9.0e3, 6.0e3, 3.0e3, 1.2e3, 4.0e2])
    load = np.array([560.0, 1100.0, 1260.0, 840.0, 420.0, 170.0, 50.0])
    loss2 = np.array([0.0, 0.0, 110.0, 140.0, 110.0, 60.0, 25.0])
    for loss1 in ([0.0, 400.0, 828.0, 756.0, 456.0, 204.0, 72.0],
                  [0.0, 0.0, 540.0, 1620.0, 1800.0, 1260.0, 648.0]):
        yield EventRateTable(n=np.arange(7), occupancy_s=occ, n_load=load,
                             n_loss1=np.array(loss1), n_loss2=loss2)


def _reference_tables():
    for seed in range(4):
        yield tabulate(simulate(FIG2, duration=20_000.0, seed=seed))
    yield tabulate(simulate(RateModel(0.5, 0.05, 0.0, 0.0), duration=5000.0,
                            seed=4))
    yield _dense_table()
    yield from _clipping_tables()


# rates whose bump threshold, regrouped, moves the corrected dense table
_CAL_ODD = Calibration(per_atom_rate=7000.0, bg_rate=321.0,
                       per_atom_err=50.0, bg_err=20.0, n_levels=10)


@pytest.mark.parametrize("cal", [_CAL, _CAL_ODD],
                         ids=["calibration", "odd_calibration"])
def test_correct_coincidences_matches_reference(cal):
    for table in _reference_tables():
        got = correct_coincidences(table, 0.1, cal)
        want = _correct_coincidences_reference(table, 0.1, cal)
        for name in ("n", "occupancy_s", "n_load", "n_loss1", "n_loss2"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("width, cal", [(None, None), (0.1, _CAL)],
                         ids=["exact", "bin_width_and_calibration"])
def test_fit_rates_matches_reference(width, cal):
    clipped = set()
    for table in _reference_tables():
        got = fit_rates(table, width, cal)
        want = _fit_rates_reference(table, width, cal)
        assert got.clipped == want.clipped
        assert got.dof == want.dof
        for name in ("load_rate", "load_rate_err", "bg_rate", "bg_rate_err", "b1",
                     "b1_err", "b2_event", "b2_event_err", "chi2"):
            assert getattr(got, name) == pytest.approx(getattr(want, name),
                                                       rel=1e-12, abs=0), name
        clipped.update(got.clipped)
    assert clipped >= {"bg_rate", "b1"}


@pytest.mark.parametrize("given, missing", [
    ({"calibration": _CAL}, "coincidence_width"),
    ({"coincidence_width": 0.1}, "calibration")], ids=["calibration", "width"])
def test_fit_rates_refuses_calibration_without_width(given, missing):
    # a detected log's table needs both: a calibration alone was once
    # dropped without a word, and a width alone applied only the fuse and
    # swallow transfers, for a detector that skipped its bump pass
    table = next(_reference_tables())
    with pytest.raises(ValueError, match=f"^fit_rates: {missing} missing; "):
        fit_rates(table, **given)


def test_fit_rates_degenerate_tables():
    # each channel needs as many populated levels from its lowest N as it
    # fits coefficients; with two levels from N = 1 on, one is at N >= 2
    for populated, needed in (([], "N >= 0"), ([0], "N >= 1"), ([0, 1], "N >= 1"),
                              ([0, 1, 3], None)):
        table = EventRateTable(
            n=np.arange(4), occupancy_s=np.where(np.isin(np.arange(4), populated),
                                                 10.0, 0.0),
            n_load=np.ones(4), n_loss1=np.ones(4), n_loss2=np.ones(4))
        if needed is None:
            assert fit_rates(table).dof == 2
        else:
            with pytest.raises(DegenerateDataError, match=needed):
                fit_rates(table)


_PAIR_COEFF = st.one_of(st.just(0.0), st.floats(1e-4, 0.05))


@settings(max_examples=200, deadline=None)
@given(load=st.floats(0.01, 1.0), bg=st.floats(1e-3, 0.1), b1=_PAIR_COEFF,
       b2=_PAIR_COEFF)
def test_fit_rates_recovers_expectation_table(load, bg, b1, b2):
    # occupancy p*T and counts rate*occupancy: the fit must give the model back
    model = RateModel(load_rate=load, bg_rate=bg, b1=b1, b2=b2)
    occ = master_stationary(model) * 1e6
    n = np.arange(len(occ))
    rate_load, rate_loss1, rate_loss2 = model.channel_rates(n)
    table = EventRateTable(n=n, occupancy_s=occ, n_load=rate_load * occ,
                           n_loss1=rate_loss1 * occ, n_loss2=rate_loss2 * occ)
    fit = fit_rates(table)
    for name, true in (("load_rate", load), ("bg_rate", bg), ("b1", b1),
                       ("b2_event", b2)):
        got = getattr(fit, name)
        if name in fit.clipped:
            assert true == 0.0 and got == 0.0
        elif true == 0.0:
            # b1 shares its fit with bg_rate; b2_event = 0 fits exactly
            assert 0.0 <= got <= 1e-9 * bg
        else:
            assert abs(got / true - 1.0) <= 1e-9
