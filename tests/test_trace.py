import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fewatom import trace
from fewatom.markov import KIND_LOAD, KIND_LOSS1, EventLog, RateModel, simulate
from fewatom.trace import (BLOCK_BINS, MAX_COUNT, FluorescenceTrace,
                           binned_mean_counts, synthesize)


def _log(times, kinds, n0, duration):
    return EventLog(times=np.asarray(times, dtype=float),
                    kinds=np.asarray(kinds, dtype=np.int8),
                    n0=n0, duration=duration, seed=0)


def test_binned_mean_counts_exact():
    # one atom from t=0, a second from t=0.25; bin width 0.1
    log = _log([0.25], [KIND_LOAD], n0=1, duration=0.5)
    mu = binned_mean_counts(log, per_atom_rate=1000.0, bg_rate=100.0, bin_width=0.1)
    w, s, bg = 0.1, 1000.0, 100.0
    np.testing.assert_allclose(mu[0], bg * w + s * w)
    np.testing.assert_allclose(mu[1], bg * w + s * w)
    # bin [0.2, 0.3): one atom for half the bin, two for the other half
    np.testing.assert_allclose(mu[2], bg * w + s * w * 1.5)
    np.testing.assert_allclose(mu[3], bg * w + 2 * s * w)
    assert len(mu) == 5


def test_binned_mean_counts_empty_trap():
    log = _log([], [], n0=0, duration=1.0)
    mu = binned_mean_counts(log, per_atom_rate=1000.0, bg_rate=50.0, bin_width=0.1)
    np.testing.assert_allclose(mu, 5.0)


def test_synthesize_poisson_statistics():
    log = _log([], [], n0=2, duration=2000.0)
    tr = synthesize(log, per_atom_rate=10_000.0, bg_rate=500.0, bin_width=0.1,
                    seed=4)
    mu = 0.1 * (500.0 + 2 * 10_000.0)
    m = tr.counts.mean()
    v = tr.counts.var()
    n = len(tr)
    assert n == 20_000
    assert m == pytest.approx(mu, abs=4 * np.sqrt(mu / n))
    # Fano factor of a Poisson stream is 1
    assert v / m == pytest.approx(1.0, abs=0.05)


def test_synthesize_reproducible():
    model = RateModel(load_rate=0.14, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    log = simulate(model, duration=500.0, seed=9)
    a = synthesize(log, seed=33)
    b = synthesize(log, seed=33)
    c = synthesize(log, seed=34)
    np.testing.assert_array_equal(a.counts, b.counts)
    assert not np.array_equal(a.counts, c.counts)


def test_trace_metadata():
    log = _log([], [], n0=1, duration=12.34)
    tr = synthesize(log, per_atom_rate=2000.0, bg_rate=100.0, bin_width=0.1, seed=1)
    assert tr.bin_width == 0.1
    assert tr.per_atom_rate == 2000.0
    assert tr.bg_rate == 100.0
    # ragged tail is dropped: whole bins only
    assert len(tr) == 123
    assert tr.duration == pytest.approx(len(tr) * 0.1)
    assert tr.counts.dtype.kind in "iu"


def test_trace_counts_are_read_only():
    # the count histogram is cached, so the counts it was taken from stay
    counts = np.array([3, 1, 3, 0], dtype=np.int64)
    tr = FluorescenceTrace(bin_width=0.1, counts=counts, per_atom_rate=1.0,
                           bg_rate=1.0, seed=0)
    assert tr.count_hist.tolist() == [1, 1, 0, 2]
    with pytest.raises(ValueError, match="read-only"):
        tr.counts[0] = 1
    with pytest.raises(AttributeError):
        tr.counts = counts[::-1]


@pytest.mark.parametrize("block", [1, 3, BLOCK_BINS])
def test_count_hist_in_blocks(block):
    counts = np.random.default_rng(1).poisson(40.0, 100)
    tr = FluorescenceTrace(bin_width=0.1, counts=counts, per_atom_rate=1.0,
                           bg_rate=1.0, seed=0)
    with mock.patch.object(trace, "BLOCK_BINS", block):
        hist = tr.count_hist
    assert hist.dtype == np.int64
    np.testing.assert_array_equal(hist, np.bincount(counts))


@pytest.mark.parametrize("counts", [
    np.zeros((2, 3), dtype=np.int64), np.array(5), np.array([1.0, 2.0]),
    np.array([True, False]), np.array([1, 2], dtype=np.uint64), ["1", "2"]],
    ids=["2-D", "0-D", "float", "bool", "uint64", "str"])
def test_trace_refuses_counts_that_are_not_1d_integers(counts):
    # the histogram's np.bincount needs one axis of integers that cast to
    # intp safely, which uint64 does not
    with pytest.raises(ValueError,
                       match=r"^counts must be 1-D int64 or narrower, got \d-D \S+$"):
        FluorescenceTrace(bin_width=0.1, counts=counts, per_atom_rate=1.0,
                          bg_rate=1.0, seed=0)


def test_trace_takes_narrow_counts():
    tr = FluorescenceTrace(bin_width=0.1, counts=np.array([3, 1, 3], dtype=np.uint16),
                           per_atom_rate=1.0, bg_rate=1.0, seed=0)
    assert tr.count_hist.tolist() == [0, 1, 0, 2]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.1])
def test_trace_refuses_a_bin_width_that_is_not_positive_and_finite(bad):
    # a trace of -0.1 s bins once calibrated to negative rates and detected
    # events at negative times; 0 and nan raised from deep in detect
    with pytest.raises(ValueError,
                       match=f"^bin_width must be positive and finite, got {bad}$"):
        FluorescenceTrace(bin_width=bad, counts=np.array([3, 1, 3]),
                          per_atom_rate=1.0, bg_rate=0.0, seed=0)


def test_count_hist_takes_counts_up_to_the_limit():
    tr = FluorescenceTrace(bin_width=0.1, counts=np.array([0, MAX_COUNT]),
                           per_atom_rate=1.0, bg_rate=1.0, seed=0)
    assert len(tr.count_hist) == MAX_COUNT + 1
    assert tr.count_hist.sum() == 2


def test_synthesize_validation():
    log = _log([], [], n0=1, duration=10.0)
    with pytest.raises(ValueError):
        synthesize(log, per_atom_rate=-1.0)
    with pytest.raises(ValueError):
        synthesize(log, bin_width=0.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("name, rule", [
    ("bin_width", "positive and finite"), ("per_atom_rate", "positive and finite"),
    ("bg_rate", "finite and non-negative")])
@pytest.mark.parametrize("stage", [synthesize, binned_mean_counts])
def test_synthesis_refuses_non_finite_arguments(stage, name, rule, bad):
    # nan raised numpy's "lam value too large" or "cannot convert float NaN
    # to integer", and an infinite per_atom_rate a RuntimeWarning
    log = _log([5.0], [KIND_LOAD], n0=1, duration=10.0)
    args = {"per_atom_rate": 10_000.0, "bg_rate": 500.0, "bin_width": 0.1, name: bad}
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got {bad}$"):
        stage(log, **args)


@pytest.mark.parametrize("args, message", [
    ({"bg_rate": 1e300}, r"bin_width \* \(bg_rate \+ per_atom_rate \* 2 atoms\) = "
     r"1e\+299 counts, above MAX_COUNT = 4194304, the highest a count histogram covers"),
    ({"per_atom_rate": 1e308}, r"bin_width \* \(bg_rate \+ per_atom_rate \* 2 atoms\) "
     r"= inf counts, above MAX_COUNT = 4194304, the highest a count histogram covers"),
    ({"bin_width": 1e-300}, r"log duration / bin_width = 1e\+306 bins, above "
     r"MAX_BINS = 1073741824, the most a trace may have"),
    ({"bin_width": 2e6}, r"log duration / bin_width = 0\.5 bins, below 1, "
     r"the fewest a trace may have")])
def test_synthesize_refuses_an_oversized_trace_by_argument(args, message):
    # numpy once refused these as 'lam value too large' and 'Maximum allowed
    # dimension exceeded', naming no argument, the first after allocating
    # the counts of all 1e7 bins; both bounds are checked before that
    log = _log([5.0], [KIND_LOAD], n0=1, duration=1e6)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"^{message}$"):
            synthesize(log, **args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_synthesize_refuses_a_log_just_short_of_one_bin():
    # bins < 1 is the one comparison, as in the CLI: a log 1e-10 s short of
    # one 0.1 s bin was snapped to one whole bin, which the CLI refused
    log = _log([], [], n0=1, duration=0.1 - 1e-10)
    with pytest.raises(ValueError, match=r"^log duration / bin_width = 1 bins, below 1, "
                       "the fewest a trace may have$"):
        synthesize(log, bin_width=0.1)


# --- blocked synthesis against the whole-array code it replaced -----------

def _binned_mean_reference(log, per_atom_rate, bg_rate, bin_width):
    n_bins = int(round(log.duration / bin_width))
    if n_bins < 1 or abs(n_bins * bin_width - log.duration) > 1e-9 * max(1.0, log.duration):
        n_bins = int(np.floor(log.duration / bin_width + 1e-12))
    t_break, levels = log.staircase()
    t_break = np.append(t_break, log.duration)
    cum = np.concatenate([[0.0], np.cumsum(levels * np.diff(t_break))])
    edges = np.arange(n_bins + 1) * bin_width
    idx = np.searchsorted(t_break, edges, side="right") - 1
    idx = np.clip(idx, 0, len(levels) - 1)
    cum_at_edges = cum[idx] + (edges - t_break[idx]) * levels[idx]
    nbar = np.diff(cum_at_edges) / bin_width
    return bin_width * (bg_rate + per_atom_rate * nbar)


def _assert_synthesis_matches_reference(log, bin_width, seed=5):
    means = _binned_mean_reference(log, 10_000.0, 500.0, bin_width)
    got = binned_mean_counts(log, 10_000.0, 500.0, bin_width)
    assert got.dtype == means.dtype and got.tobytes() == means.tobytes()
    want = np.random.default_rng(np.random.PCG64(seed)).poisson(means).astype(np.int64)
    counts = synthesize(log, bin_width=bin_width, seed=seed).counts
    assert counts.dtype == np.int64 and counts.tobytes() == want.tobytes()


def _walk(times, rng, n0):
    """A load/loss1 log at the given times that never goes below zero atoms."""
    kinds, n = [], n0
    for _ in times:
        kinds.append(KIND_LOAD if n == 0 or rng.random() < 0.5 else KIND_LOSS1)
        n += 1 if kinds[-1] == KIND_LOAD else -1
    return kinds


@pytest.mark.parametrize("n_bins", [1, BLOCK_BINS - 1, BLOCK_BINS, BLOCK_BINS + 1,
                                    2 * BLOCK_BINS + 1])
def test_synthesis_blocks_match_whole_array(n_bins):
    # random events plus events exactly on bin edges and on block edges
    w = 0.1
    rng = np.random.default_rng(n_bins)
    on_edges = [k * w for k in (1, 7, BLOCK_BINS - 1, BLOCK_BINS, BLOCK_BINS + 1,
                                2 * BLOCK_BINS, n_bins) if k <= n_bins]
    times = np.unique(np.concatenate([rng.uniform(0.0, n_bins * w, 300), on_edges]))
    times = times[times > 0]
    log = _log(times, _walk(times, rng, 1), n0=1, duration=n_bins * w)
    _assert_synthesis_matches_reference(log, w)


@pytest.mark.parametrize("n0", [0, 3])
def test_synthesis_blocks_of_an_empty_log(n0):
    _assert_synthesis_matches_reference(
        _log([], [], n0=n0, duration=(BLOCK_BINS + 1) * 0.1), 0.1)


def test_synthesis_blocks_with_a_ragged_final_bin():
    w = 0.1
    times = np.array([BLOCK_BINS * w, (BLOCK_BINS + 0.25) * w])
    log = _log(times, [KIND_LOAD, KIND_LOSS1], n0=0, duration=(BLOCK_BINS + 0.5) * w)
    assert len(binned_mean_counts(log, 10_000.0, 500.0, w)) == BLOCK_BINS
    _assert_synthesis_matches_reference(log, w)


@pytest.mark.parametrize("block", [4, BLOCK_BINS])
def test_synthesis_with_an_empty_block_and_a_crowded_bin(block):
    # three blocks: events on bin edges in the first, none in the second,
    # and in the third 41 events in one bin, two of them on its edges
    w = 0.1
    n_bins = 3 * block
    k = 2 * block + 1  # the crowded bin
    crowded = np.concatenate([[k * w], np.linspace(k * w, (k + 1) * w, 41)[1:-1],
                              [(k + 1) * w]])
    times = np.unique(np.concatenate([[w, 2 * w, 3 * w], crowded]))
    log = _log(times, _walk(times, np.random.default_rng(7), 2), n0=2,
               duration=n_bins * w)
    with mock.patch.object(trace, "BLOCK_BINS", block):
        _assert_synthesis_matches_reference(log, w)


@st.composite
def _small_logs(draw):
    """Logs of 1-40 bins, ragged or not, whose events sit on bin edges or
    anywhere inside; and a block size that puts block edges among them."""
    w = draw(st.sampled_from([0.1, 0.05, 0.25]))
    n_bins = draw(st.integers(1, 40))
    duration = (n_bins + draw(st.sampled_from([0.0, 0.0, 0.5]))) * w
    edge = st.integers(1, n_bins).map(lambda k: k * w)
    inside = st.floats(0.0, duration, exclude_min=True)
    times = np.unique(draw(st.lists(st.one_of(edge, inside), max_size=30)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n0 = draw(st.integers(0, 2))
    log = _log(times, _walk(times, rng, n0), n0=n0, duration=duration)
    return log, w, draw(st.sampled_from([1, 2, 3, 7, BLOCK_BINS]))


@settings(max_examples=300, deadline=None)
@given(_small_logs(), st.integers(0, 2**32 - 1))
def test_synthesis_blocks_match_whole_array_on_small_logs(case, seed):
    log, w, block = case
    with mock.patch.object(trace, "BLOCK_BINS", block):
        _assert_synthesis_matches_reference(log, w, seed)


def test_synthesize_holds_the_counts_and_one_block():
    # a fig2 trace of 2**21 bins: besides its counts, synthesis keeps one
    # block's temporaries and the event log's staircase
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    log = simulate(model, duration=2 ** 21 * 0.1, seed=3)
    tracemalloc.start()
    try:
        tr = synthesize(log, seed=103)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tr) == 2 ** 21
    assert peak < 1.5 * tr.counts.nbytes
