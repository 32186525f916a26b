"""End-to-end acceptance checks.

Each test prints a single PASS/FAIL verdict line with the measured numbers so
the suite output doubles as a scorecard. Tolerances are fixed, not tuned:
frozen seeds were picked near the median of a seed ensemble, not cherry-picked
for the best pulls, so a ~1 sigma regression anywhere in the chain shows up.
"""

import time
from dataclasses import replace
from functools import cache

import numpy as np
import pytest
from scipy import stats

from fewatom.channels import (ChannelSet, ShieldingParams, effective_betas,
                              outcome_probabilities, scaling_constant,
                              suppression_ratio)
from fewatom.constants import CM3_PER_M3
from fewatom.detect import calibrate, detect
from fewatom.fitting import (extrapolate_beta_hcc, fit_rates, fit_repump_decay,
                             infer_temperature, tabulate)
from fewatom.markov import (KIND_LOSS1, KIND_LOSS2, RateModel,
                            master_stationary, simulate)
from fewatom.trap import TrapConfig, effective_volume
from fewatom.trace import synthesize

pytestmark = pytest.mark.acceptance

FIG2 = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)


def _verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


def _occupancy_pmf(log, n_states: int) -> np.ndarray:
    t, n = log.staircase()
    dwell = np.diff(np.append(t, log.duration))
    size = max(n_states, int(n.max()) + 1)
    occ = np.bincount(n.astype(int), weights=dwell, minlength=size)
    return occ / occ.sum()


def test_01_poisson_stationary():
    # b1 = b2 = 0 reduces the chain to M/M/inf with mean R/bg = 2.6
    model = RateModel(load_rate=2.6 / 60.0, bg_rate=1.0 / 60.0, b1=0.0, b2=0.0)
    t0 = time.perf_counter()
    log = simulate(model, duration=1.2e7, seed=101)
    elapsed = time.perf_counter() - t0
    p_hat = _occupancy_pmf(log, 1)
    ref = stats.poisson.pmf(np.arange(len(p_hat)), 2.6)
    tv = 0.5 * (np.abs(p_hat - ref).sum() + (1.0 - ref.sum()))
    ok = tv < 0.01 and len(log) >= 1_000_000 and elapsed < 30.0
    _verdict("accept-01 poisson-stationary", ok,
             f"TV={tv:.4f} (<0.01), events={len(log)}, {elapsed:.1f} s (<30)")


def test_02_master_equation_equivalence():
    model = RateModel(load_rate=0.08, bg_rate=1.0 / 60.0, b1=0.002, b2=0.004)
    p = master_stationary(model)
    log = simulate(model, duration=7.5e6, seed=202)
    p_hat = _occupancy_pmf(log, len(p))
    ref = np.zeros(len(p_hat))
    ref[:len(p)] = p
    tv = 0.5 * np.abs(p_hat - ref).sum()
    ok = tv < 0.02 and len(log) >= 1_000_000
    _verdict("accept-02 mc-vs-master", ok,
             f"TV={tv:.4f} (<0.02), events={len(log)}")


def test_03_closed_loop_recovery():
    log = simulate(FIG2, duration=1e5, seed=3)
    trace = synthesize(log, per_atom_rate=10_000.0, bg_rate=500.0,
                       bin_width=0.1, seed=103)
    cal = calibrate(trace)
    detected, _ = detect(trace, cal)
    table = tabulate(detected)
    fit = fit_rates(table, coincidence_width=0.1, calibration=cal)

    tau_hat = fit.bg_lifetime
    tau_err = fit.bg_lifetime_err
    recovered = [
        ("R", fit.load_rate, fit.load_rate_err, FIG2.load_rate),
        ("tau", tau_hat, tau_err, 1.0 / FIG2.bg_rate),
        ("beta1/V", fit.b1, fit.b1_err, FIG2.b1),
        ("beta2/V", fit.beta2_over_v, fit.beta2_over_v_err, 2.0 * FIG2.b2),
    ]
    parts, ok = [], True
    for name, val, err, true in recovered:
        pull = (val - true) / err
        rel = val / true - 1.0
        ok &= abs(pull) < 3.0 and abs(rel) < 0.10
        parts.append(f"{name} {rel:+.1%}/{pull:+.1f}sig")

    # pair-loss rates must scale as N(N-1) alone: refit with an extra linear
    # term and require it to be consistent with zero
    from fewatom.fitting import correct_coincidences
    corr = correct_coincidences(table, 0.1, cal)
    sel = (corr.n >= 2) & (corr.occupancy_s > 0)
    y = corr.rate("loss2")[sel]
    e = corr.rate_err("loss2")[sel]
    n = corr.n[sel].astype(float)
    design = np.column_stack([n, n * (n - 1.0)]) / e[:, None]
    coef, *_ = np.linalg.lstsq(design, y / e, rcond=None)
    cov = np.linalg.inv(design.T @ design)
    lin_pull = coef[0] / np.sqrt(cov[0, 0])
    ok &= abs(lin_pull) < 3.0
    parts.append(f"loss2-linear {lin_pull:+.1f}sig")
    _verdict("accept-03 closed-loop", ok,
             ", ".join(parts) + " (|rel|<10%, |pull|<3)")


def test_04_coincident_misread_bound():
    # pure one-atom physics at a low event rate: every detected pair loss is
    # a coincidence artifact
    model = RateModel(load_rate=0.02, bg_rate=1.0 / 60.0, b1=0.0015, b2=0.0)
    log = simulate(model, duration=6e5, seed=11)
    rate = len(log) / log.duration
    trace = synthesize(log, seed=111)
    detected, _ = detect(trace, calibrate(trace))
    n_loss1 = int((detected.kinds == KIND_LOSS1).sum())
    n_loss2 = int((detected.kinds == KIND_LOSS2).sum())
    frac = n_loss2 / (n_loss1 + n_loss2)
    ok = rate <= 0.05 and frac < 0.01
    _verdict("accept-04 misread-bound", ok,
             f"event rate {rate:.3f}/s, loss2 share {frac:.2%} (<1%)")


def test_05_shielding_scaling_law():
    s0 = np.linspace(2.0, 50.0, 25)
    parts, ok = [], True
    for t in (125e-6, 316e-6, 705e-6):
        t0 = time.perf_counter()
        p_hcc = suppression_ratio(s0, t)
        slope, _ = np.polyfit(s0, np.log(p_hcc), 1)
        a_fit = -1.0 / slope
        elapsed = time.perf_counter() - t0
        a_model = scaling_constant(t)
        ok &= abs(a_fit / a_model - 1.0) < 0.20 and elapsed < 10.0
        parts.append(f"{t*1e6:.0f}uK A={a_fit:.2f} vs {a_model:.2f}")
    _verdict("accept-05 shielding-law", ok, ", ".join(parts) + " (within 20%)")


def test_07_temperature_inversion():
    targets = [(4.2, 316e-6), (9.2, 506e-6), (16.9, 705e-6)]
    temps = [infer_temperature(a) for a, _ in targets]
    ok = all(abs(t / t_ref - 1.0) < 0.05 for t, (_, t_ref) in zip(temps, targets))
    ok &= temps[0] < temps[1] < temps[2]
    detail = ", ".join(f"A={a:g}->{t*1e6:.0f}uK"
                       for (a, _), t in zip(targets, temps))
    _verdict("accept-07 temperature-inversion", ok,
             detail + " (each within 5%, increasing)")


def test_08_beta_hcc_pipeline():
    beta_hcc_true = 4.1e-11
    trap = TrapConfig(temperature=316e-6, r0=10e-6, depth_min=0.045,
                      intensity=420.0, load_rate=0.14, bg_lifetime=60.0)
    cs = ChannelSet(beta_hcc=beta_hcc_true)
    shielding = ShieldingParams()
    volume = effective_volume(trap.r0) * CM3_PER_M3

    s0_grid = np.array([2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 20.0, 32.0, 48.0])
    y, sigma = [], []
    for k, s0 in enumerate(s0_grid):
        point = replace(trap, repump_sat=float(s0))
        e1, e2 = effective_betas(point, cs, shielding, seed=7070 + k)
        model = RateModel(load_rate=trap.load_rate,
                          bg_rate=1.0 / trap.bg_lifetime,
                          b1=e1 / volume, b2=e2 / (2.0 * volume))
        log = simulate(model, duration=1e5, seed=300 + k)
        trace = synthesize(log, seed=400 + k)
        cal = calibrate(trace)
        detected, _ = detect(trace, cal)
        fit = fit_rates(tabulate(detected), coincidence_width=0.1,
                        calibration=cal)
        y.append(fit.beta2_over_v)
        sigma.append(fit.beta2_over_v_err)

    sup = fit_repump_decay(s0_grid, np.array(y), np.array(sigma))
    beta, err = extrapolate_beta_hcc(sup, volume, r0_m=trap.r0, dr0_m=2e-6)
    pull = (beta - beta_hcc_true) / err

    eff_s4 = sup.amplitude * volume * np.exp(-4.0 / sup.scale)
    ratio = max(eff_s4 / 2.0e-11, 2.0e-11 / eff_s4)
    ok = abs(pull) < 3.0 and 4.0 <= sup.scale <= 6.0 and ratio < 1.5
    _verdict("accept-08 beta-hcc-scan", ok,
             f"beta={beta:.2e}+-{err:.1e} ({pull:+.1f}sig of {beta_hcc_true:.1e}), "
             f"A={sup.scale:.2f} in [4,6], s0=4 HCC {eff_s4:.2e} "
             f"ratio {ratio:.2f} (<1.5)")


def test_09_outcome_classifier():
    rng = np.random.default_rng(424242)
    deep = TrapConfig()
    shallow = TrapConfig(depth_min=0.045)
    cs = ChannelSet()
    _, _, p2_fcc = outcome_probabilities("fcc", deep, cs, rng,
                                         n_samples=1_000_000)
    _, _, p2_hcc = outcome_probabilities("hcc", shallow, cs, rng,
                                         n_samples=1_000_000)
    e1, e2 = effective_betas(deep, cs)
    frac = e1 / (e1 + e2)
    ok = p2_fcc == 1.0 and p2_hcc == 1.0 and 0.05 <= frac <= 0.20
    _verdict("accept-09 outcome-classifier", ok,
             f"P2(fcc)={p2_fcc:.6f}, P2(hcc, 45 mK)={p2_hcc:.6f} (=1), "
             f"one-atom share {frac:.1%} in [5%,20%]")


_TRUTH = {"load_rate": FIG2.load_rate, "bg_rate": FIG2.bg_rate,
          "b1": FIG2.b1, "b2_event": FIG2.b2}


def _pulls(fit) -> list[float]:
    """Pulls of load, bg, b1 and b2_event against the fig2 rates."""
    return [(getattr(fit, name) - true) / getattr(fit, name + "_err")
            for name, true in _TRUTH.items()]


def _detected_fit(log, k: int, per_atom_rate: float = 10_000.0,
                  bin_width: float = 0.1):
    """The fit of replica k's log read back from its trace (synthesize seed
    5000 + k, 500 Hz background) with its own calibration."""
    trace = synthesize(log, per_atom_rate=per_atom_rate, bg_rate=500.0,
                       bin_width=bin_width, seed=5000 + k)
    cal = calibrate(trace)
    detected, _ = detect(trace, cal)
    return fit_rates(tabulate(detected), coincidence_width=bin_width,
                     calibration=cal)


@cache
def _replica_pulls() -> dict[str, np.ndarray]:
    """Pulls, one row per fig2 replica of 1e5 s (1e6 bins of 0.1 s, simulate
    seeds 1000-1099, synthesize seeds 5000-5099): 'exact' fitted from the
    simulated log, 'detected' from the log read back from its trace."""
    pulls = {"exact": [], "detected": []}
    for k in range(100):
        log = simulate(FIG2, duration=1e5, seed=1000 + k)
        pulls["exact"].append(_pulls(fit_rates(tabulate(log))))
        pulls["detected"].append(_pulls(_detected_fit(log, k)))
    return {half: np.array(rows) for half, rows in pulls.items()}


def _coverage(half: str) -> None:
    # unbiased with honest errors: each mean pull within 3 s.e. of 0 over
    # 100 replicas, each pull sd near 1
    pulls = _replica_pulls()[half]
    mean, sd = pulls.mean(axis=0), pulls.std(axis=0, ddof=1)
    ok = bool(np.all(np.abs(mean) <= 0.3) and np.all((sd >= 0.8) & (sd <= 1.25)))
    _verdict(f"accept-11 replica-coverage-{half}", ok, ", ".join(
        f"{name} {m:+.2f}/{s:.2f}" for name, m, s
        in zip(("load", "bg", "b1", "b2_event"), mean, sd))
        + " (mean/sd of 100 pulls: |mean|<=0.3, sd in [0.8,1.25])")


def test_11_replica_coverage_exact():
    _coverage("exact")


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: the detected chain "
                   "reads bg high and b1 and b2_event low")
def test_11_replica_coverage_detected():
    _coverage("detected")


def test_12_dim_and_short_bin_reads():
    # the first 20 replicas' logs read again at 4 000 Hz per atom (SNR
    # 7.5-8.1) and with 0.05 s bins (SNR 8.4-9.1), each paired with its
    # read at 1e4 Hz and 0.1 s bins (SNR near 12): the mean pull shift of
    # every coefficient within 0.5 sigma. A median filter on one-bin
    # excursions below SNR 9 shifted load by -3.8 sigma at 4 000 Hz.
    reference = _replica_pulls()["detected"][:20]
    readings = {"4000Hz": (4_000.0, 0.1), "0.05s": (10_000.0, 0.05)}
    pulls = {label: [] for label in readings}
    for k in range(20):
        log = simulate(FIG2, duration=1e5, seed=1000 + k)
        for label, (rate, width) in readings.items():
            pulls[label].append(_pulls(_detected_fit(log, k, rate, width)))
    shifts = {label: (np.array(rows) - reference).mean(axis=0)
              for label, rows in pulls.items()}
    ok = all(bool(np.all(np.abs(shift) <= 0.5)) for shift in shifts.values())
    _verdict("accept-12 one-detection-path", ok, "; ".join(
        f"{label}: " + ", ".join(f"{name} {m:+.2f}" for name, m
                                 in zip(("load", "bg", "b1", "b2_event"), shift))
        for label, shift in shifts.items())
        + " (mean pull shift of 20 replicas: |shift|<=0.5)")
