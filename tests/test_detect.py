import importlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from fewatom.detect import (BUMP_NSIGMA, Calibration,
                            CalibrationError, DetectionQualityError,
                            _bump_pairs, _bumps, _comb_peaks,
                            _events_from_levels, _hist_percentile, _levels,
                            _linfit, _merge_down_down, _read_levels,
                            _steps, calibrate, detect)
from fewatom.markov import (KIND_LOAD, KIND_LOSS1, KIND_LOSS2, EventLog,
                            RateModel, simulate)
from fewatom.trace import (BLOCK_BINS, MAX_COUNT, FluorescenceTrace,
                           binned_mean_counts, synthesize)

# the module, not the function the package exports under the same name
detect_module = importlib.import_module("fewatom.detect")

# Hand-built calibration for the constructed micro-traces below. The comb
# calibration is exercised separately on a long trace; tiny traces with two or
# three occupied levels can alias its spacing estimate.
CAL = Calibration(per_atom_rate=10_000.0, bg_rate=500.0,
                  per_atom_err=50.0, bg_err=20.0, n_levels=8)


def _log(times, kinds, n0, duration):
    return EventLog(times=np.asarray(times, dtype=float),
                    kinds=np.asarray(kinds, dtype=np.int8),
                    n0=n0, duration=duration, seed=0)


def test_calibrate_long_trace():
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    log = simulate(model, duration=20_000.0, seed=42)
    tr = synthesize(log, seed=142)
    cal = calibrate(tr)
    assert cal.per_atom_rate == pytest.approx(10_000.0, rel=0.02)
    assert cal.bg_rate == pytest.approx(500.0, rel=0.2)
    assert cal.per_atom_err < 0.01 * cal.per_atom_rate
    assert cal.n_levels >= 6


@pytest.mark.parametrize("per_atom_rate, bg_rate", [(2_000.0, 100.0),
                                                    (50_000.0, 500.0)])
def test_calibrate_finds_empty_trap_level_near_zero_counts(per_atom_rate, bg_rate):
    # the smoothed N = 0 level touches count 0: 10 counts up with a smoothing
    # width of 12 counts at 2 kHz, 50 counts up with a width of 61 at 50 kHz
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    tr = synthesize(simulate(model, duration=20_000.0, seed=42),
                    per_atom_rate=per_atom_rate, bg_rate=bg_rate, seed=142)
    cal = calibrate(tr)
    assert cal.per_atom_rate == pytest.approx(per_atom_rate, rel=0.01)
    assert cal.bg_rate == pytest.approx(bg_rate, abs=0.01 * per_atom_rate)


def test_calibrate_finds_empty_trap_level_at_30ms_bins():
    # the fig2 replica of accept-11's seeds 1000 and 5000 in 0.03 s bins:
    # the smoothing's padding lifts the histogram's left end to about the
    # N = 0 peak near count 15, so a prominence measured against that end
    # dropped the peak and read bg_rate 9 307 Hz for 500 Hz
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    tr = synthesize(simulate(model, duration=1e5, seed=1000), per_atom_rate=1e4,
                    bg_rate=500.0, bin_width=0.03, seed=5000)
    assert calibrate(tr).bg_rate == pytest.approx(500.0, rel=0.1)


def test_calibrate_flat_trace_fails():
    # a single occupied level gives no comb spacing
    log = _log([], [], n0=1, duration=100.0)
    tr = synthesize(log, seed=2)
    with pytest.raises(CalibrationError):
        calibrate(tr)


def test_detect_roundtrip_counts():
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    log = simulate(model, duration=20_000.0, seed=42)
    tr = synthesize(log, seed=142)
    cal = calibrate(tr)
    det, rep = detect(tr, cal)
    det.validate()
    assert rep.snr > 9.0
    assert rep.n_bins == len(tr)
    assert len(det) == pytest.approx(len(log), rel=0.05)
    # per-kind counts survive within a few percent
    for kind in (KIND_LOAD, KIND_LOSS1, KIND_LOSS2):
        true_k = int((log.kinds == kind).sum())
        det_k = int((det.kinds == kind).sum())
        assert det_k == pytest.approx(true_k, rel=0.08, abs=8)


def test_detect_low_snr_rejected():
    log = _log([50.0], [KIND_LOAD], n0=1, duration=100.0)
    tr = synthesize(log, per_atom_rate=200.0, bg_rate=100.0, seed=3)
    cal = Calibration(per_atom_rate=200.0, bg_rate=100.0,
                      per_atom_err=5.0, bg_err=3.0, n_levels=4)
    with pytest.raises(DetectionQualityError, match="below minimum 7.00"):
        detect(tr, cal)


def test_detect_rejects_empty_trace():
    tr = FluorescenceTrace(bin_width=0.1, counts=np.zeros(0, dtype=np.int64),
                           per_atom_rate=10_000.0, bg_rate=500.0, seed=0)
    with pytest.raises(ValueError, match="empty trace"):
        detect(tr, CAL)


def test_negative_count_names_its_first_bin():
    # refused when the trace is made, so no stage ever reads such a count
    counts = np.array([500] * 10 + [1500] * 10 + [2500] * 10, dtype=np.int64)
    counts[[12, 25]] = [-3, -1]
    with pytest.raises(ValueError, match=r"^bin 12: negative count -3$"):
        FluorescenceTrace(bin_width=0.1, counts=counts, per_atom_rate=10_000.0,
                          bg_rate=500.0, seed=0)


@pytest.mark.parametrize("huge", [MAX_COUNT + 1, 2 ** 62])
def test_huge_count_names_its_first_bin(huge):
    # refused before any table with one entry per count value is built
    counts = np.array([500] * 10 + [1500] * 10 + [2500] * 10, dtype=np.int64)
    counts[[12, 25]] = [huge, -1]
    with pytest.raises(ValueError, match=rf"^bin 12: count {huge} above {MAX_COUNT},"):
        FluorescenceTrace(bin_width=0.1, counts=counts, per_atom_rate=10_000.0,
                          bg_rate=500.0, seed=0)


def test_calibrate_then_detect_histograms_the_counts_once():
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    tr = synthesize(simulate(model, duration=2000.0, seed=4), seed=104)
    with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount:
        detect(tr, calibrate(tr))
    # every bin passes through np.bincount once
    assert sum(len(c.args[0]) for c in bincount.call_args_list
               if np.shares_memory(c.args[0], tr.counts)) == len(tr)


def test_same_bin_losses_read_as_pair_loss():
    # two one-atom losses 20 ms apart land in one 100 ms bin
    log = _log([5.04, 5.06, 12.0], [KIND_LOSS1, KIND_LOSS1, KIND_LOAD],
               n0=2, duration=20.0)
    tr = synthesize(log, seed=5)
    det, rep = detect(tr, CAL)
    assert det.kinds.tolist() == [KIND_LOSS2, KIND_LOAD]
    assert det.n_before.tolist() == [2, 0]


def test_adjacent_bin_losses_merge():
    # the N, N-1, N-2 single-bin pattern collapses to one pair loss
    log = _log([5.09, 5.21, 12.0], [KIND_LOSS1, KIND_LOSS1, KIND_LOAD],
               n0=2, duration=20.0)
    tr = synthesize(log, seed=1)
    det, rep = detect(tr, CAL)
    assert rep.merged_bins == 1
    assert det.kinds.tolist() == [KIND_LOSS2, KIND_LOAD]


def test_separated_losses_stay_distinct():
    # same pair, 6.6 bins apart: no fusing
    log = _log([5.02, 5.68, 12.0], [KIND_LOSS1, KIND_LOSS1, KIND_LOAD],
               n0=2, duration=20.0)
    tr = synthesize(log, seed=6)
    det, rep = detect(tr, CAL)
    assert det.kinds.tolist() == [KIND_LOSS1, KIND_LOSS1, KIND_LOAD]
    assert rep.merged_bins == 0


def test_bump_pair_recovery():
    # a sub-rounding residual (0.45 atoms for one bin) is read back as a
    # quick load/loss pair instead of being dropped
    log = _log([30.0], [KIND_LOAD], n0=1, duration=60.0)
    tr = synthesize(log, seed=1)
    counts = tr.counts.copy()
    counts[150] += 450
    tr_b = FluorescenceTrace(bin_width=0.1, counts=counts,
                             per_atom_rate=10_000.0, bg_rate=500.0, seed=1)
    det, rep = detect(tr_b, CAL)
    assert rep.pair_bumps == 1
    assert det.kinds.tolist() == [KIND_LOAD, KIND_LOSS1, KIND_LOAD]
    # the recovered pair nets to zero atoms inside its bin
    assert 15.0 <= det.times[0] < det.times[1] <= 15.1


def test_one_bin_excursion_kept_at_moderate_snr():
    # below SNR 9 a one-bin excursion to the next level was median-suppressed;
    # it reads as the quick load and loss it is, as at any SNR
    cal = Calibration(per_atom_rate=1500.0, bg_rate=100.0,
                      per_atom_err=10.0, bg_err=5.0, n_levels=6)
    log = _log([20.0, 45.0, 45.1], [KIND_LOAD, KIND_LOAD, KIND_LOSS1],
               n0=1, duration=60.0)
    tr = synthesize(log, per_atom_rate=1500.0, bg_rate=100.0, seed=1)
    det, rep = detect(tr, cal)
    assert 7.0 <= rep.snr < 9.0
    assert rep.spike_bins == 0
    assert det.kinds.tolist() == [KIND_LOAD, KIND_LOAD, KIND_LOSS1]
    np.testing.assert_allclose(det.times, [20.0, 45.0, 45.1])


@pytest.mark.parametrize("block", [1, 4, BLOCK_BINS])
def test_levels_round_to_the_comb_and_stop_at_zero(block):
    with mock.patch.object(detect_module, "BLOCK_BINS", block):
        levels = _levels(np.array([0, 440, 460, 500, 1049, 1051]), 500.0, 100.0)
    assert levels.dtype == np.int8
    assert levels.tolist() == [0, 0, 0, 0, 5, 6]


def _same_float(got, want):
    return np.float64(got).tobytes() == np.float64(want).tobytes()


# (sample, q): odd and even lengths, order statistics k and k+1 that differ
# below and above half-way, one value, the ends
_PERCENTILE_CASES = [
    ([3, 1, 2], 50.0), ([4, 1, 3, 2], 50.0), ([0, 7], 50.0), ([0, 10], 99.5),
    ([0, 1, 5], 20.0), ([0, 1, 5], 30.0), ([2, 9, 9, 4, 0], 99.5),
    ([6], 99.5), ([0, 3, 8], 0.0), ([0, 3, 8], 100.0),
]


@pytest.mark.parametrize("sample, q", _PERCENTILE_CASES)
def test_hist_percentile_cases(sample, q):
    x = np.array(sample)
    got = _hist_percentile(np.cumsum(np.bincount(x)), q)
    assert _same_float(got, np.percentile(x, q))
    if q == 50.0:
        assert _same_float(got, np.median(x))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.integers(0, 60), min_size=1, max_size=300),
       st.one_of(st.sampled_from([50.0, 99.5]), st.floats(0.0, 100.0)))
def test_hist_percentile_matches_numpy(sample, q):
    x = np.array(sample, dtype=np.int64)
    got = _hist_percentile(np.cumsum(np.bincount(x)), q)
    assert _same_float(got, np.percentile(x, q))
    assert _same_float(_hist_percentile(np.cumsum(np.bincount(x)), 50.0),
                       np.median(x))


@pytest.mark.parametrize("per_atom_rate, bg_rate", [(10_000.0, 500.0),
                                                    (5_000.0, 500.0)])
def test_detect_in_small_blocks(per_atom_rate, bg_rate):
    # every per-bin pass (levels, merges, re-votes, event bounds, bumps)
    # reads the same with 7-bin blocks, at SNR 7.4 and 12
    model = RateModel(load_rate=0.3, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    tr = synthesize(simulate(model, duration=2000.0, seed=4),
                    per_atom_rate=per_atom_rate, bg_rate=bg_rate, seed=104)
    cal = Calibration(per_atom_rate=per_atom_rate, bg_rate=bg_rate,
                      per_atom_err=1.0, bg_err=1.0, n_levels=8)
    want, want_rep = detect(tr, cal)
    with mock.patch.object(detect_module, "BLOCK_BINS", 7):
        got, got_rep = detect(tr, cal)
    assert got_rep == want_rep
    assert want_rep.merged_bins > 0 and want_rep.pair_bumps > 0
    _assert_same_events((got.times, got.kinds, got.n_before),
                        (want.times, want.kinds, want.n_before))


def test_detect_report_rates():
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    log = simulate(model, duration=10_000.0, seed=8)
    tr = synthesize(log, seed=108)
    cal = calibrate(tr)
    det, rep = detect(tr, cal)
    assert rep.event_rate == pytest.approx(len(det) / tr.duration, rel=1e-9)
    # the chance that a bin holding one event holds another
    assert rep.coincidence_probability == 1.0 - np.exp(-rep.event_rate * tr.bin_width)
    assert 0.0 < rep.coincidence_probability < 0.1


# the second rate pair's SNR rounds differently if its division is regrouped
@pytest.mark.parametrize("per_atom_rate, bg_rate", [(10_000.0, 500.0),
                                                    (10_000.0, 321.0)])
def test_detect_snr_bitwise(per_atom_rate, bg_rate):
    # spacing over the shot noise at the 99.5th-percentile level, taken as
    # at least one atom, bit for bit
    model = RateModel(load_rate=0.3, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    tr = synthesize(simulate(model, duration=2000.0, seed=9),
                    per_atom_rate=per_atom_rate, bg_rate=bg_rate, seed=109)
    cal = Calibration(per_atom_rate=per_atom_rate, bg_rate=bg_rate,
                      per_atom_err=1.0, bg_err=1.0, n_levels=8)
    _, rep = detect(tr, cal)
    offset, spacing = bg_rate * tr.bin_width, per_atom_rate * tr.bin_width
    levels = np.clip(np.round((tr.counts - offset) / spacing), 0, None)
    n_typ = max(float(np.percentile(levels, 99.5)), 1.0)
    assert rep.snr == spacing / np.sqrt(max(offset + spacing * n_typ, 1.0))


# --- reference implementations -------------------------------------------
# The per-bin loops (merge, event builder, bump pass) and the lstsq
# regression that detect.py replaced with whole-array code. The vectorized versions must reproduce them exactly
# (levels and events) or to 1e-12 relative (regression floats).

def _merge_reference(n_hat, counts, offset, spacing):
    n_hat = n_hat.copy()
    merged = 0
    nu = (counts - offset) / spacing
    for i in range(1, len(n_hat) - 1):
        if n_hat[i] - n_hat[i - 1] == -1 and n_hat[i + 1] - n_hat[i] == -1:
            upper = n_hat[i - 1]
            n_hat[i] = upper if nu[i] >= upper - 1.0 else n_hat[i + 1]
            merged += 1
    return n_hat, merged


def _events_reference(n_hat, bin_width):
    times, kinds = [], []
    deltas = np.diff(n_hat)
    for i in np.nonzero(deltas)[0]:
        d = int(deltas[i])
        t = float((i + 1) * bin_width)
        if d == 1:
            times.append(t); kinds.append(KIND_LOAD)
        elif d == -1:
            times.append(t); kinds.append(KIND_LOSS1)
        elif d == -2:
            times.append(t); kinds.append(KIND_LOSS2)
        elif d == 2:
            times += [t - bin_width / 2, t]; kinds += [KIND_LOAD, KIND_LOAD]
        elif d > 0:
            for j in range(d):
                times.append(t - bin_width + (j + 1) * bin_width / d)
                kinds.append(KIND_LOAD)
        else:
            k2, k1 = divmod(-d, 2)
            steps = [KIND_LOSS2] * k2 + [KIND_LOSS1] * k1
            for j, kind in enumerate(steps):
                times.append(t - bin_width + (j + 1) * bin_width / len(steps))
                kinds.append(kind)
    return np.asarray(times, dtype=np.float64), np.asarray(kinds, dtype=np.int8)


def _bump_reference(counts, n_hat, offset, spacing, bin_width,
                    thresh=BUMP_NSIGMA):
    times, kinds = [], []
    if len(n_hat) < 3:
        return times, kinds, 0
    resid = (counts - offset) / spacing - n_hat
    sig = np.sqrt(np.maximum(offset + spacing * np.maximum(n_hat, 0), 1.0)) / spacing
    strong = np.zeros(len(n_hat), dtype=bool)
    strong[1:-1] = (n_hat[1:-1] == n_hat[:-2]) & (n_hat[1:-1] == n_hat[2:])
    strong &= np.abs(resid) > thresh * sig
    strong &= ~((n_hat == 0) & (resid < 0))
    idx = np.nonzero(strong)[0]
    n_pairs = 0
    j = 0
    w = bin_width
    while j < len(idx):
        i = idx[j]
        k = j
        while (k + 1 < len(idx) and idx[k + 1] == idx[k] + 1
               and (resid[idx[k + 1]] > 0) == (resid[i] > 0)):
            k += 1
        last = idx[k]
        if i == last:
            t1, t2 = i * w + w / 3.0, i * w + 2.0 * w / 3.0
        else:
            t1, t2 = i * w + w / 2.0, last * w + w / 2.0
        times += [t1, t2]
        kinds += [KIND_LOAD, KIND_LOSS1] if resid[i] > 0 else [KIND_LOSS1, KIND_LOAD]
        n_pairs += 1
        j = k + 1
    return times, kinds, n_pairs


def _linfit_reference(x, y):
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    dof = max(len(x) - 2, 1)
    resid = y - design @ coef
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(design.T @ design)
    return coef, cov


@st.composite
def _level_sequences(draw):
    """Per-bin levels with one-bin down chains of 3+ steps, dN = +2 and
    |dN| > 2 jumps at random places, ending on a down-down candidate in the
    last interior bin; plus counts whose mean lands on either side of the
    merge vote."""
    chain = [-1] * draw(st.integers(3, 6))
    jump = [draw(st.sampled_from([-7, -5, -4, -3, 3, 4, 6]))]
    pieces = draw(st.permutations([chain, [2], jump, [-1, 2, -1], [-2, -1, -1]]))
    filler = st.lists(st.sampled_from([0, 0, 0, 1, -1, 2, -2]), max_size=6)
    steps = draw(filler)
    for piece in pieces:
        steps += piece + draw(filler)
    steps += [-1, -1]
    path = np.concatenate([[0], np.cumsum(steps)])
    n_hat = (path - path.min() + draw(st.integers(0, 3))).astype(np.int64)
    offset = draw(st.sampled_from([0.0, 37.5, 500.0]))
    spacing = draw(st.sampled_from([100.0, 1000.0]))
    frac = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=len(n_hat),
                                  max_size=len(n_hat))))
    counts = np.round(offset + spacing * (n_hat + frac)).astype(np.int64)
    return n_hat, counts, offset, spacing


def _assert_same_events(got, want):
    for a, b in zip(got, want):
        assert a.dtype == b.dtype
        assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(_level_sequences(), st.sampled_from([0.1, 0.05, 0.03]),
       st.sampled_from([1, 2, 3, 5, BLOCK_BINS]),
       st.sampled_from([np.int8, np.int64]))
def test_merge_and_events_match_reference(case, bin_width, block, dtype):
    # the references run on int64 levels, the code on compact ones too
    n_hat, counts, offset, spacing = case
    want_levels, want_merged = _merge_reference(n_hat, counts, offset, spacing)
    got_levels = n_hat.astype(dtype)
    with mock.patch.object(detect_module, "BLOCK_BINS", block):
        steps = _steps(got_levels)
        d = got_levels[steps + 1].astype(np.int64) - got_levels[steps]
        jumps = steps[np.abs(d) > 2]
        merged = _merge_down_down(got_levels, steps[d == -1], counts, offset,
                                  spacing)
        # detect() takes the re-vote set from the steps before the merge:
        # the merge neither adds nor removes a |dN| > 2 boundary
        after = np.diff(got_levels.astype(np.int64))
        np.testing.assert_array_equal(jumps, np.flatnonzero(np.abs(after) > 2))
        got_events = [_events_from_levels(levels, _steps(levels), bin_width)
                      for levels in (n_hat.astype(dtype), got_levels)]
    np.testing.assert_array_equal(got_levels, want_levels)
    assert len(merged) == want_merged
    for levels, got in zip((n_hat, want_levels), got_events):
        _assert_same_events(got, _events_reference(levels, bin_width))


def _detect_reference(counts, offset, spacing, bin_width):
    """detect() on int64 levels, from the reference loops: merge, re-vote,
    boundary events and bump pairs."""
    n_hat = np.maximum(np.round((counts - offset) / spacing), 0).astype(np.int64)
    n_hat, _ = _merge_reference(n_hat, counts, offset, spacing)
    for i in np.flatnonzero(np.abs(np.diff(n_hat)) > 2):
        n_hat[i + 1] = int(np.median(n_hat[max(i - 1, 0):i + 3]))
    times, kinds = _events_reference(n_hat, bin_width)
    pair_times, pair_kinds, _ = _bump_reference(counts, n_hat, offset, spacing,
                                                bin_width)
    times = np.concatenate([times, np.asarray(pair_times, dtype=np.float64)])
    order = np.argsort(times, kind="stable")
    kinds = np.concatenate([kinds, np.asarray(pair_kinds, dtype=np.int8)])
    return times[order], kinds[order], int(n_hat[0])


@pytest.mark.parametrize("top, dtype", [(127, np.int8), (128, np.int16)])
def test_detect_at_the_top_of_the_level_type(top, dtype):
    # jumps between 0 and the top level (a step of -top is the widest the
    # level type must hold, and 1 - step leaves it; the re-vote keeps the
    # one out of bin 0), down-down dwells and bumps just below the top, read
    # as from int64 levels
    levels = ([top] + [0] * 5 + [top] * 6 + [top - 1, top - 3] + [top - 4] * 5
              + [top - 5, top - 6, top - 7] + [top - 8] * 4 + [0] * 4 + [top] * 3
              + [2] * 5 + [top - 2] * 5)
    n_hat = np.array(levels, dtype=np.int64)
    frac = np.zeros(len(levels))
    frac[[15, 16, 27]] = [0.3, -0.3, 0.4]  # bumps
    frac[[19, 21]] = [0.2, -0.2]  # dwells parked up, then down
    # the top level's counts stay within MAX_COUNT, and a 0.3-atom bump
    # near it still clears BUMP_NSIGMA (0.28 atoms)
    bin_width, offset, spacing = 0.1, 50.0, 32_000.0
    counts = np.round(offset + spacing * (n_hat + frac)).astype(np.int64)
    assert counts.max() <= MAX_COUNT
    assert _levels(counts, offset, spacing).dtype == dtype
    tr = FluorescenceTrace(bin_width=bin_width, counts=counts,
                           per_atom_rate=spacing / bin_width,
                           bg_rate=offset / bin_width, seed=0)
    cal = Calibration(per_atom_rate=spacing / bin_width, bg_rate=offset / bin_width,
                      per_atom_err=0.0, bg_err=0.0, n_levels=top + 1)
    got, rep = detect(tr, cal)
    assert rep.merged_bins >= 2 and rep.pair_bumps >= 2 and rep.ambiguous_bins >= 2
    times, kinds, n0 = _detect_reference(counts, offset, spacing, bin_width)
    _assert_same_events((got.times, got.kinds), (times, kinds))
    assert got.n0 == n0


def test_detect_with_the_calibration_of_a_dimmer_trace():
    # the count-to-level table spans the counts of the trace detected, not
    # those of the trace the calibration was taken from
    dim = synthesize(simulate(RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0,
                                        b1=0.004, b2=0.006), duration=5000.0, seed=5),
                     seed=105)
    bright = synthesize(simulate(RateModel(load_rate=0.5, bg_rate=1.0 / 60.0,
                                           b1=0.004, b2=0.006), duration=5000.0, seed=6),
                        seed=106)
    cal = calibrate(dim)
    # at least three levels above the dimmer trace's top count
    assert bright.counts.max() > dim.counts.max() + 3 * cal.per_bin(bright.bin_width)[1]
    got, rep = detect(bright, cal)
    assert rep.pair_bumps > 0
    offset, spacing = cal.per_bin(bright.bin_width)
    times, kinds, n0 = _detect_reference(bright.counts, offset, spacing,
                                         bright.bin_width)
    _assert_same_events((got.times, got.kinds), (times, kinds))
    assert got.n0 == n0
    levels = np.clip(np.round((bright.counts - offset) / spacing), 0, None)
    n_typ = max(float(np.percentile(levels, 99.5)), 1.0)
    assert rep.snr == spacing / np.sqrt(max(offset + spacing * n_typ, 1.0))


def _detect_constructed(counts, offset, spacing, bin_width=0.1):
    """detect() and its reference on counts read with the calibration of
    offset and spacing: (log, report, reference (times, kinds, n0))."""
    tr = FluorescenceTrace(bin_width=bin_width, counts=counts,
                           per_atom_rate=spacing / bin_width,
                           bg_rate=offset / bin_width, seed=0)
    cal = Calibration(per_atom_rate=spacing / bin_width, bg_rate=offset / bin_width,
                      per_atom_err=0.0, bg_err=0.0, n_levels=2)
    with mock.patch.object(detect_module, "MIN_SNR", 0.0):
        log, rep = detect(tr, cal)
    offset, spacing = cal.per_bin(bin_width)
    return log, rep, _detect_reference(counts, offset, spacing, bin_width)


def _assert_detects_as_reference(counts, offset, spacing, bin_width=0.1):
    log, rep, (times, kinds, n0) = _detect_constructed(counts, offset, spacing,
                                                       bin_width)
    _assert_same_events((log.times, log.kinds), (times, kinds))
    assert log.n0 == n0
    return rep


# (levels, residuals in atoms): a bin rewritten by a merge or a re-vote
# inside or beside a bump, at spacing 1e5 counts per atom
_REWRITE_CASES = {
    # the dwell at bin 4 is parked up, which leaves bin 3 flat with its bump
    "bump_beside_merged_up": ([2] * 4 + [1] + [0] * 4, {3: 0.3, 4: 0.3}),
    # parked down: bin 5 is flat, with a downward bump
    "bump_beside_merged_down": ([2] * 4 + [1] + [0] * 5, {4: -0.3, 5: 0.3, 6: 0.3}),
    # the re-vote sets bin 4 to level 2, four atoms below its count: a bump
    # whose count value is quiet at its own level
    "revoted_bin_is_a_bump": ([2] * 4 + [6] + [2] * 4, {}),
    # the same next to a bump of the same sign, read as one run of two
    "revoted_bin_beside_a_bump": ([2] * 4 + [6] + [2] * 4, {3: 0.3}),
    # and of the opposite sign, two pairs
    "revoted_bin_beside_a_down_bump": ([2] * 4 + [6] + [2] * 4, {5: -0.3}),
    # a re-vote that leaves its bin quiet, beside a bump
    "revoted_quiet_beside_a_bump": ([3] * 4 + [0] + [3] * 4, {3: 0.3}),
}


@pytest.mark.parametrize("block", [1, 2, 3, 5, BLOCK_BINS])
@pytest.mark.parametrize("case", _REWRITE_CASES.values(), ids=_REWRITE_CASES)
def test_detect_rewritten_bins_beside_bumps_match_reference(case, block):
    levels, resid = case
    n_hat = np.array(levels, dtype=np.int64)
    frac = np.array([resid.get(i, 0.0) for i in range(len(levels))])
    counts = np.round(500.0 + 100_000.0 * (n_hat + frac)).astype(np.int64)
    with mock.patch.object(detect_module, "BLOCK_BINS", block):
        rep = _assert_detects_as_reference(counts, 500.0, 100_000.0)
    assert rep.merged_bins + rep.ambiguous_bins >= 1
    assert rep.pair_bumps >= 1


@settings(max_examples=200, deadline=None)
@given(_level_sequences(), st.sampled_from([100.0, 100_000.0]),
       st.sampled_from([1, 2, 3, 5, BLOCK_BINS]))
def test_detect_matches_reference(case, spacing, block):
    # bumps, one-bin excursions, merges and re-votes side by side and across
    # block edges; spacing 100 reads below MIN_SNR (lifted here), 1e5 far
    # above it
    n_hat, _, offset, _ = case
    frac = np.linspace(-0.45, 0.45, len(n_hat))[::-1]
    counts = np.maximum(np.round(offset + spacing * (n_hat + frac)), 0).astype(np.int64)
    with mock.patch.object(detect_module, "BLOCK_BINS", block):
        rep = _assert_detects_as_reference(counts, offset, spacing)
    assert (rep.snr < detect_module.MIN_SNR) == (spacing == 100.0)


def test_detect_at_moderate_snr_matches_reference():
    # a fig2 log read between MIN_SNR and SNR 9, where the bump threshold
    # lies beyond half a level at the typical occupancy
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    tr = synthesize(simulate(model, duration=5000.0, seed=11), per_atom_rate=4000.0,
                    bg_rate=500.0, seed=111)
    log, rep, (times, kinds, n0) = _detect_constructed(tr.counts, 50.0, 400.0)
    assert detect_module.MIN_SNR <= rep.snr < 9.0
    assert rep.merged_bins > 0 and rep.pair_bumps > 0
    _assert_same_events((log.times, log.kinds), (times, kinds))
    assert log.n0 == n0


def test_events_from_empty_and_flat_levels():
    for levels in ([], [3], [2, 2, 2]):
        levels = np.array(levels, dtype=np.int64)
        got = _events_from_levels(levels, _steps(levels), 0.1)
        _assert_same_events(got, _events_reference(levels, 0.1))


@st.composite
def _spaced_logs(draw):
    """An event log with each event at least 3 bins from the next and from
    either end of its 0.1 s bins, and the trace's bin count. Two events 2
    bins apart can already fuse into one read."""
    n = n0 = draw(st.integers(0, 6))
    bins = [draw(st.integers(3, 8))]
    times, kinds = [], []
    for _ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from([k for k, ok in ((KIND_LOAD, n < 10),
                                                     (KIND_LOSS1, n >= 1),
                                                     (KIND_LOSS2, n >= 2)) if ok]))
        times.append((bins[-1] + draw(st.floats(0.0, 1.0, exclude_max=True))) * 0.1)
        kinds.append(kind)
        n += {KIND_LOAD: 1, KIND_LOSS1: -1, KIND_LOSS2: -2}[kind]
        bins.append(bins[-1] + draw(st.integers(3, 8)))
    n_bins = bins[-1] + 1
    return _log(times, kinds, n0, n_bins * 0.1), n_bins


@settings(max_examples=300, deadline=None)
@given(_spaced_logs(), st.sampled_from([1e4, 1e5]))
def test_detect_exact_for_spaced_events_at_high_snr(case, per_atom_rate):
    # noise-free counts, read with the calibration they were made with
    log, n_bins = case
    counts = np.round(binned_mean_counts(log, per_atom_rate, 500.0, 0.1))
    tr = FluorescenceTrace(bin_width=0.1, counts=counts.astype(np.int64),
                           per_atom_rate=per_atom_rate, bg_rate=500.0, seed=0)
    assert len(tr) == n_bins
    cal = Calibration(per_atom_rate=per_atom_rate, bg_rate=500.0,
                      per_atom_err=0.0, bg_err=0.0, n_levels=2)
    got, _ = detect(tr, cal)
    assert got.n0 == log.n0
    assert got.kinds.tolist() == log.kinds.tolist()
    assert got.n_before.tolist() == log.n_before.tolist()
    assert np.all(np.abs(got.times - log.times) <= 0.1 + 1e-12)


# Calibration grid: rate models x (per-atom rate, background rate) x seeds.
_MODELS = [
    RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006),
    RateModel(load_rate=0.8, bg_rate=1.0 / 30.0, b1=0.01, b2=0.02),
    RateModel(load_rate=0.03, bg_rate=1.0 / 20.0, b2=0.05),
]
_RATES = [(10_000.0, 500.0), (3_000.0, 800.0), (800.0, 60.0)]


def _grid_traces(model, rates):
    for seed in range(6):
        log = simulate(model, duration=3000.0, seed=seed)
        yield synthesize(log, per_atom_rate=rates[0], bg_rate=rates[1],
                         seed=1000 + seed)


def _scipy_peaks(hist, sigma):
    """scipy's gaussian_filter1d, then find_peaks with height and distance
    and peak_prominences, as find_peaks runs them, with _comb_peaks' rules
    at count 0: a maximum there is a peak, and every prominence is measured
    on the histogram mirrored there."""
    from scipy.ndimage import gaussian_filter1d
    from scipy.signal import find_peaks, peak_prominences

    smooth = gaussian_filter1d(hist.astype(float), sigma)
    min_height = smooth.max() * 0.005
    # a sample below all others in front turns a maximum at 0 into one
    # find_peaks takes (at its middle, were it a plateau, not at 0)
    peaks, _ = find_peaks(np.r_[smooth.min() - 1.0, smooth], height=min_height,
                          distance=max(2, int(2.0 * sigma)))
    peaks -= 1
    prominence = peak_prominences(np.r_[smooth[::-1], smooth], peaks + len(smooth))[0]
    return peaks[prominence >= min_height]


@pytest.mark.parametrize("rates", _RATES)
@pytest.mark.parametrize("model", _MODELS)
def test_comb_peaks_match_scipy(model, rates):
    for tr in _grid_traces(model, rates):
        hist = np.bincount(tr.counts)
        sigma = max(1.0, np.sqrt(max(float(np.median(tr.counts)), 1.0)) / 2.0)
        np.testing.assert_array_equal(_comb_peaks(hist, sigma),
                                      _scipy_peaks(hist, sigma))


@pytest.mark.parametrize("seed", range(4))
def test_comb_peaks_match_scipy_on_rough_histograms(seed):
    # a comb of period 2*sigma leaves maxima exactly the minimum distance
    # apart, and a flat top wider than the kernel leaves a plateau
    for period, sigma in ((2, 1.0), (3, 1.5), (4, 2.0), (4, 2.6)):
        hist = np.random.default_rng(seed).poisson(20.0, size=300)
        hist[100:130] = 400
        hist[200:260:period] = 400
        np.testing.assert_array_equal(_comb_peaks(hist, sigma),
                                      _scipy_peaks(hist, sigma))


@pytest.mark.parametrize("rates", _RATES)
@pytest.mark.parametrize("model", _MODELS)
def test_linfit_matches_lstsq(model, rates):
    for tr in _grid_traces(model, rates):
        peaks = _comb_peaks(np.bincount(tr.counts), max(
            1.0, np.sqrt(max(float(np.median(tr.counts)), 1.0)) / 2.0))
        if len(peaks) < 2:
            continue
        spacing = float(np.median(np.diff(peaks)))
        n_hat = np.clip(np.round((tr.counts - float(peaks[0])) / spacing), 0,
                        None).astype(np.int64)
        if len(np.unique(n_hat)) < 2:
            continue
        coef, cov = _linfit(np.bincount(n_hat),
                            np.bincount(n_hat, weights=tr.counts).astype(np.int64),
                            int(tr.counts @ tr.counts))
        want_coef, want_cov = _linfit_reference(n_hat.astype(float),
                                                tr.counts.astype(float))
        np.testing.assert_allclose(coef, want_coef, rtol=1e-12, atol=0)
        np.testing.assert_allclose(cov, want_cov, rtol=1e-12, atol=0)


def _assert_same_bumps(counts, n_hat, offset, spacing, bin_width,
                       rewritten=None):
    """_bump_pairs against the loop it replaced, after detect's conversion
    of the loop's lists; returns the number of pairs. rewritten holds at
    least the bins whose level n_hat is not their count's; by default
    exactly those."""
    times, kinds, n_pairs = _bump_reference(counts, n_hat, offset, spacing,
                                            bin_width)
    # the candidates as detect() takes them: the bins whose count value is
    # a bump at its own level, and those whose level is not their count's
    value = np.arange(counts.max(initial=0) + 1)
    table = _levels(value, offset, spacing)
    _, bump_bins = _read_levels(counts, table, _bumps(value, table, offset, spacing)[1])
    if rewritten is None:
        rewritten = np.flatnonzero(n_hat != table[counts])
    want = (np.asarray(times, dtype=np.float64), np.asarray(kinds, dtype=np.int8))
    for candidates in (np.union1d(bump_bins, rewritten), np.arange(len(counts))):
        got = _bump_pairs(counts, n_hat, candidates, offset, spacing, bin_width)
        _assert_same_events(got, want)
    assert len(got[0]) // 2 == n_pairs
    return n_pairs


@st.composite
def _bump_traces(draw):
    """Flat stretches at levels 0-4 (0 to 48 bins in all) and counts whose
    residual per bin is quiet or a bump of either sign, mostly strong."""
    stretches = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(1, 8)),
                              max_size=6))
    n_hat = np.repeat([lvl for lvl, _ in stretches],
                      [k for _, k in stretches]).astype(np.int64)
    offset = draw(st.sampled_from([0.0, 37.5, 500.0]))
    spacing = draw(st.sampled_from([1000.0, 10000.0]))
    frac = draw(st.lists(st.one_of(st.floats(-0.02, 0.02), st.floats(0.1, 0.49),
                                   st.floats(-0.49, -0.1)),
                         min_size=len(n_hat), max_size=len(n_hat)))
    counts = np.maximum(np.round(offset + spacing * (n_hat + np.array(frac))),
                        0).astype(np.int64)
    return counts, n_hat, offset, spacing


@settings(max_examples=400, deadline=None)
@given(_bump_traces(), st.sampled_from([0.1, 0.05, 0.03]),
       st.sampled_from([1, 2, 3, 5, BLOCK_BINS]))
def test_bump_pairs_match_reference(case, bin_width, block):
    with mock.patch.object(detect_module, "BLOCK_BINS", block):
        _assert_same_bumps(*case, bin_width)


@settings(max_examples=300, deadline=None)
@given(_bump_traces(), st.data(), st.sampled_from([1, 2, 3, 5, BLOCK_BINS]))
def test_bump_pairs_with_rewritten_levels_match_reference(case, data, block):
    # each bin's level is its count's, then random bins get any level the
    # table holds (some their own again), as the rewrites of detect leave them
    counts, _, offset, spacing = case
    n_hat = _levels(counts, offset, spacing)
    top = int(n_hat.max(initial=0))
    rewritten = np.array(data.draw(st.lists(st.integers(0, max(len(n_hat) - 1, 0)),
                                            max_size=len(n_hat) // 2, unique=True)),
                         dtype=np.int64)
    n_hat[rewritten] = data.draw(st.lists(st.integers(0, top), min_size=len(rewritten),
                                          max_size=len(rewritten)))
    with mock.patch.object(detect_module, "BLOCK_BINS", block):
        _assert_same_bumps(counts, n_hat, offset, spacing, 0.1, rewritten)


# no shrinking: each failing example holds a few block-sized arrays alive
@settings(max_examples=30, deadline=None, report_multiple_bugs=False,
          phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(_bump_traces(), st.sampled_from([0.3, -0.3]), st.integers(2, 3),
       st.sampled_from([0.1, 0.05]))
def test_bump_pairs_match_reference_across_block_edge(case, bump, run,
                                                     bin_width):
    # a quiet level-2 stretch with a strong run of 2-3 bins from bin
    # BLOCK_BINS - 1, so the run straddles the first block edge, then the
    # drawn trace
    counts, n_hat, offset, spacing = case
    lead = np.full(BLOCK_BINS + run, 2, dtype=np.int64)
    frac = np.zeros(len(lead))
    frac[BLOCK_BINS - 1:BLOCK_BINS - 1 + run] = bump
    lead_counts = np.round(offset + spacing * (lead + frac)).astype(np.int64)
    assert _assert_same_bumps(np.concatenate([lead_counts, counts]),
                              np.concatenate([lead, n_hat]),
                              offset, spacing, bin_width) >= 1


# (levels, residuals in atoms, pairs read): runs of 1-3 strong bins, two
# of opposite sign side by side, downward bumps at level 0, strong bins at
# either end, traces of 0-2 bins, no bumps
_BUMP_CASES = [
    ([2] * 7, {3: 0.3}, 1),
    ([2] * 7, {2: 0.3, 3: 0.25}, 1),
    ([2] * 7, {2: -0.3, 3: -0.25, 4: -0.35}, 1),
    ([2] * 7, {2: 0.3, 4: 0.3}, 2),
    ([2] * 7, {3: 0.3, 4: -0.3}, 2),
    ([1] * 4 + [2] * 4, {1: -0.3, 2: 0.3, 5: 0.3, 6: 0.3}, 3),
    ([0] * 7, {2: -0.3, 3: -0.3, 5: 0.3}, 1),
    ([0] * 7, {3: 0.3, 4: -0.3}, 1),
    ([3] * 7, {0: 0.3, 6: -0.3}, 0),
    ([3] * 7, {0: 0.3, 1: 0.3, 5: -0.3, 6: -0.3}, 2),
    ([], {}, 0),
    ([2], {0: 0.3}, 0),
    ([2, 2], {0: 0.3, 1: -0.3}, 0),
    ([1, 1, 2, 2, 3, 3], {}, 0),
]


@pytest.mark.parametrize("levels, resid, pairs", _BUMP_CASES, ids=[
    "one_bin", "two_bins", "three_bins", "two_runs", "opposite_signs",
    "signs_and_step", "down_at_0", "up_then_down_at_0", "ends", "ends_runs",
    "length_0", "length_1", "length_2", "no_bumps"])
def test_bump_pairs_cases(levels, resid, pairs):
    n_hat = np.array(levels, dtype=np.int64)
    frac = np.array([resid.get(i, 0.0) for i in range(len(levels))])
    counts = np.round(500.0 + 10_000.0 * (n_hat + frac)).astype(np.int64)
    assert _assert_same_bumps(counts, n_hat, 500.0, 10_000.0, 0.1) == pairs


def test_detect_holds_one_byte_per_bin():
    # a fig2 trace of 2**21 bins: beside the counts it reads, detection
    # keeps the one-byte level sequence, one block's temporaries and
    # per-event arrays
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    tr = synthesize(simulate(model, duration=2 ** 21 * 0.1, seed=3), seed=103)
    cal = calibrate(tr)
    tracemalloc.start()
    try:
        log, _ = detect(tr, cal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(log) > 10_000
    assert peak < 0.5 * tr.counts.nbytes
