import numpy as np
import pytest

from fewatom.markov import KIND_LOAD, KIND_LOSS1, EventLog, RateModel, simulate
from fewatom.trace import FluorescenceTrace, binned_mean_counts, synthesize


def _log(times, kinds, n0, duration):
    times = np.asarray(times, dtype=float)
    kinds = np.asarray(kinds, dtype=np.int8)
    n_before, n = [], n0
    for k in kinds:
        n_before.append(n)
        n += 1 if k == KIND_LOAD else -1
    return EventLog(times=times, kinds=kinds,
                    n_before=np.asarray(n_before, dtype=np.int16),
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


def test_synthesize_validation():
    log = _log([], [], n0=1, duration=10.0)
    with pytest.raises(ValueError):
        synthesize(log, per_atom_rate=-1.0)
    with pytest.raises(ValueError):
        synthesize(log, bin_width=0.0)
