import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from fewatom import markov
from fewatom.config import load_config
from fewatom.markov import (KIND_LOAD, KIND_LOSS1, KIND_LOSS2, EventLog,
                            RateModel, TruncationError, _generator_matrix,
                            expected_event_rates, master_stationary, simulate,
                            stationary_moments)


def test_kind_codes_distinct():
    assert {KIND_LOAD, KIND_LOSS1, KIND_LOSS2} == {0, 1, 2}


def test_rate_model_validation():
    with pytest.raises(ValueError):
        RateModel(load_rate=-0.1, bg_rate=0.01, b1=0.0, b2=0.0)
    with pytest.raises(ValueError):
        RateModel(load_rate=0.1, bg_rate=0.01, b1=-1e-3, b2=0.0)


def test_channel_rates():
    model = RateModel(load_rate=0.1, bg_rate=0.02, b1=0.003, b2=0.004)
    load, loss1, loss2 = model.channel_rates(3)
    assert load == pytest.approx(0.1)
    assert loss1 == pytest.approx(3 * 0.02 + 0.003 * 3 * 2)
    assert loss2 == pytest.approx(0.004 * 3 * 2)
    # pair channels vanish below two atoms
    assert model.channel_rates(1)[2] == 0.0
    assert model.channel_rates(0)[1] == 0.0


def test_master_stationary_poisson_limit():
    # without pair losses the chain is an M/M/inf queue: Poisson(R/bg)
    model = RateModel(load_rate=2.6 / 60.0, bg_rate=1.0 / 60.0, b1=0.0, b2=0.0)
    p = master_stationary(model)
    k = np.arange(len(p))
    ref = stats.poisson.pmf(k, 2.6)
    assert 0.5 * np.abs(p - ref).sum() < 1e-8
    mean, pairs = stationary_moments(p)
    assert mean == pytest.approx(2.6, rel=1e-6)
    assert pairs == pytest.approx(2.6 ** 2, rel=1e-6)  # E[N(N-1)] = lambda^2


def test_master_stationary_pair_losses_narrow():
    base = RateModel(load_rate=0.08, bg_rate=1.0 / 60.0, b1=0.0, b2=0.0)
    with_pairs = RateModel(load_rate=0.08, bg_rate=1.0 / 60.0, b1=0.002, b2=0.004)
    m0, q0 = stationary_moments(master_stationary(base))
    m1, q1 = stationary_moments(master_stationary(with_pairs))
    # pair losses shrink the mean and squeeze the distribution below Poisson
    assert m1 < m0
    assert q1 / m1 ** 2 < q0 / m0 ** 2


def test_master_stationary_truncation_guard(monkeypatch):
    # Poisson(50) keeps far more than 1e-12 at N = 64, the only truncation
    # the lowered cap allows
    monkeypatch.setattr(markov, "_MASTER_NMAX_CAP", 64)
    model = RateModel(load_rate=50.0, bg_rate=1.0, b1=0.0, b2=0.0)
    with pytest.raises(TruncationError) as err:
        master_stationary(model)
    assert err.value.n_max == 64


def test_simulate_reproducible():
    model = RateModel(load_rate=0.14, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    a = simulate(model, duration=2000.0, seed=11)
    b = simulate(model, duration=2000.0, seed=11)
    c = simulate(model, duration=2000.0, seed=12)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.kinds, b.kinds)
    assert len(c) != len(a) or not np.array_equal(a.times, c.times)


def test_simulate_log_consistency():
    model = RateModel(load_rate=0.14, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    log = simulate(model, n0=2, duration=5000.0, seed=3)
    log.validate()
    assert log.n0 == 2
    assert log.duration == 5000.0
    assert np.all(np.diff(log.times) >= 0)
    assert log.times[0] >= 0.0 and log.times[-1] <= log.duration
    # occupancy never goes negative and steps match the event kinds
    delta = np.where(log.kinds == KIND_LOAD, 1,
                     np.where(log.kinds == KIND_LOSS1, -1, -2))
    n_after = log.n_before + delta
    assert n_after.min() >= 0
    np.testing.assert_array_equal(log.n_after, n_after)
    np.testing.assert_array_equal(log.n_before[1:], n_after[:-1])


def test_staircase_matches_events():
    model = RateModel(load_rate=0.2, bg_rate=0.02, b1=0.001, b2=0.002)
    log = simulate(model, duration=1000.0, seed=7)
    t_edges, n_vals = log.staircase()
    # breakpoints at t=0 and each event; the level holds to the next breakpoint
    assert t_edges[0] == 0.0
    assert len(t_edges) == len(n_vals) == len(log) + 1
    assert n_vals[0] == log.n0
    np.testing.assert_array_equal(t_edges[1:], log.times)
    np.testing.assert_array_equal(n_vals[1:], log.n_after)
    assert np.all(np.diff(t_edges) > 0)


def test_validate_rejects_billing_mismatch():
    log = EventLog(times=np.array([1.0, 2.0]),
                   kinds=np.array([KIND_LOAD, KIND_LOSS1], dtype=np.int8),
                   n_before=np.array([0, 5], dtype=np.int16),
                   n0=0, duration=10.0, seed=0)
    with pytest.raises(ValueError):
        log.validate()


def test_expected_event_rates_totals():
    model = RateModel(load_rate=0.08, bg_rate=1.0 / 60.0, b1=0.002, b2=0.004)
    p = master_stationary(model)
    rates = expected_event_rates(p, model)
    mean, pairs = stationary_moments(p)
    total_load = float((rates.probability * rates.load).sum())
    total_loss1 = float((rates.probability * rates.loss1).sum())
    total_loss2 = float((rates.probability * rates.loss2).sum())
    assert total_load == pytest.approx(model.load_rate, rel=1e-12)
    assert total_loss1 == pytest.approx(model.bg_rate * mean + model.b1 * pairs,
                                        rel=1e-9)
    assert total_loss2 == pytest.approx(model.b2 * pairs, rel=1e-9)
    # stationarity: atoms in equals atoms out
    assert total_load == pytest.approx(total_loss1 + 2.0 * total_loss2, rel=1e-6)


def test_simulate_matches_master_short():
    model = RateModel(load_rate=0.08, bg_rate=1.0 / 60.0, b1=0.002, b2=0.004)
    p = master_stationary(model)
    log = simulate(model, duration=3e5, seed=21)
    t_edges, n_vals = log.staircase()
    dwell = np.diff(t_edges)
    occ = np.bincount(n_vals[:-1].astype(int), weights=dwell,
                      minlength=len(p))
    p_hat = occ[:len(p)] / occ.sum()
    assert 0.5 * np.abs(p_hat - p).sum() < 0.02


def _generator_matrix_loop(model, n_max):
    """The per-state loop _generator_matrix replaced; kept as its reference."""
    q = np.zeros((n_max + 1, n_max + 1))
    for n in range(n_max + 1):
        load, loss1, loss2 = model.channel_rates(n)
        if n < n_max:
            q[n, n + 1] = load
        if n >= 1:
            q[n, n - 1] = loss1
        if n >= 2:
            q[n, n - 2] = loss2
        q[n, n] = -q[n].sum()
    return q


def _reference_models():
    models = [
        RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006),  # fig2
        RateModel(load_rate=0.08, bg_rate=1.0 / 60.0, b1=0.002, b2=0.004),  # accept-02
    ]
    models += [load_config(preset=p).rate_model() for p in ("fig4a", "fig4b", "fig4c")]
    rng = np.random.default_rng(20)
    for _ in range(200):
        load, bg, b1, b2 = rng.uniform(0.0, 1.0, 4) * [1.0, 0.1, 0.02, 0.02]
        models.append(RateModel(load_rate=load, bg_rate=bg, b1=b1, b2=b2))
    return models


def test_generator_matrix_matches_loop():
    for model in _reference_models():
        for n_max in (64, 128, 256):
            q = _generator_matrix(model, n_max)
            ref = _generator_matrix_loop(model, n_max)
            assert q.tobytes() == ref.tobytes()


_RATES = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(load=st.floats(0.0, 5.0), bg=_RATES, b1=_RATES, b2=_RATES,
       n0=st.integers(0, 30), duration=st.floats(1e-3, 500.0),
       seed=st.integers(0, 2**32 - 1))
def test_simulate_always_validates(load, bg, b1, b2, n0, duration, seed):
    model = RateModel(load_rate=load, bg_rate=bg, b1=b1, b2=b2)
    log = simulate(model, n0=n0, duration=duration, seed=seed)
    log.validate()
    assert log.n0 == n0 and log.duration == duration and log.seed == seed


def test_simulate_subnormal_rate_is_quiet():
    # the first waiting time overflows to inf: no event, and no warning
    model = RateModel(load_rate=5e-324, bg_rate=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        log = simulate(model, n0=0, duration=10.0, seed=1)
    log.validate()
    assert len(log) == 0 and log.n0 == 0 and log.duration == 10.0
    assert log.times.dtype == np.float64 and log.kinds.dtype == np.int8
