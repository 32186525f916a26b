import math
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import fewatom
from fewatom import markov
from fewatom.config import load_config
from fewatom.markov import (KIND_LOAD, KIND_LOSS1, KIND_LOSS2, EventLog,
                            RateModel, TruncationError, master_stationary,
                            simulate, stationary_moments)


def test_kind_codes_distinct():
    assert {KIND_LOAD, KIND_LOSS1, KIND_LOSS2} == {0, 1, 2}


@pytest.mark.parametrize("field", ["load_rate", "bg_rate", "b1", "b2"])
@pytest.mark.parametrize("value", [-1e-3, math.nan, math.inf])
def test_rate_model_validation(field, value):
    # simulate's loop never ends on a nan or infinite total rate
    rates = {"load_rate": 0.1, "bg_rate": 0.01, "b1": 0.0, "b2": 0.0, field: value}
    with pytest.raises(ValueError, match=f"{field} must be finite and non-negative"):
        RateModel(**rates)


@pytest.mark.parametrize("duration", [math.nan, math.inf, 0.0, -1.0])
def test_simulate_rejects_duration(duration):
    # all rates 0: the loop would end at once, so only the check can raise
    with pytest.raises(ValueError, match="duration must be positive and finite"):
        simulate(RateModel(0.0, 0.0, 0.0, 0.0), duration=duration, seed=1)


def test_simulate_takes_only_integer_n0():
    # a float n0 once gave atom numbers 2.5, 0.5, -0.5 and a log that its
    # CSV reader refuses
    model = RateModel(0.1, 0.02, 0.003, 0.004)
    with pytest.raises(TypeError):
        simulate(model, n0=2.5, duration=100.0, seed=1)
    log = simulate(model, n0=np.int64(2), duration=100.0, seed=1)
    assert type(log.n0) is int and log.n0 == 2
    log.validate()


@pytest.mark.parametrize("n0", [-1, 2**63])
def test_simulate_refuses_n0_outside_int64(n0):
    # 2**63 overflowed the log's int64 atom numbers with an OverflowError
    with pytest.raises(ValueError, match=rf"^n0 must be in \[0, 2\*\*63\), got {n0}$"):
        simulate(RateModel(0.1, 0.0), n0=n0, duration=1.0, seed=1)


def _cap_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (768 * 2**20, 768 * 2**20))


@pytest.mark.parametrize("args", [
    "RateModel(load_rate=1e300, bg_rate=0.01), duration=10.0",
    "RateModel(0.1, 0.01), duration=1e300",
    "RateModel(0.1, 0.01), n0=10**12, duration=10.0"],
    ids=["load_rate", "duration", "n0"])
def test_simulate_refuses_a_run_past_max_events(args):
    # each ran until a bare MemoryError (exit 1 after about 6 s under this
    # 768 MB address-space cap); the child runs under the cap and a
    # timeout, so a run that is not refused fails the test, not the machine
    code = ("from fewatom.markov import RateModel, simulate\n"
            "try:\n"
            f"    simulate({args}, seed=1)\n"
            "except ValueError as exc:\n"
            "    print(exc)\n")
    env = {**os.environ, "PYTHONPATH": str(Path(fewatom.__file__).parents[1]),
           "OPENBLAS_NUM_THREADS": "1"}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=60,
                         preexec_fn=_cap_address_space)
    assert run.returncode == 0, run.stderr[-500:]
    assert re.fullmatch(
        r"2 \* model\.load_rate \* duration \+ n0 = \S+ events, above MAX_EVENTS = "
        rf"{markov.MAX_EVENTS}, the most a run may expect\n", run.stdout), run.stdout


def test_simulate_refuses_a_total_rate_that_overflows():
    # 1e308 * N(N-1) is inf at N = 3, and e / inf added nothing to t: the
    # log held a loss2 at t = 0.0, which its own validate() refused
    with pytest.raises(ValueError, match=r"^event rates out of N = 3 atoms sum to inf$"):
        simulate(RateModel(0.1, 0.0, 0.0, 1e308), n0=3, duration=1.0, seed=1)


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


def test_master_stationary_fig2_mean():
    # the fig2 preset's model holds 2.60 atoms on average
    mean, _ = stationary_moments(master_stationary(load_config(preset="fig2").rate_model()))
    assert f"{mean:.4f}".startswith("2.60")


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
    n_before, n_after = _atom_numbers_loop(log.n0, log.kinds)
    assert min(n_after) >= 0
    np.testing.assert_array_equal(log.n_before, n_before)
    np.testing.assert_array_equal(log.n_after, n_after)


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


def _atom_numbers_loop(n0, kinds):
    """The atom numbers (before, after) of each event, one event at a time:
    the reference for EventLog's derived n_before and n_after."""
    before, after, n = [], [], n0
    for kind in kinds:
        before.append(n)
        n += {KIND_LOAD: 1, KIND_LOSS1: -1, KIND_LOSS2: -2}[int(kind)]
        after.append(n)
    return before, after


@settings(max_examples=200, deadline=None)
@given(n0=st.integers(0, 2**40), kinds=st.lists(
    st.sampled_from([KIND_LOAD, KIND_LOSS1, KIND_LOSS2]), max_size=60))
def test_atom_numbers_follow_from_n0_and_kinds(n0, kinds):
    log = EventLog(times=np.arange(1.0, len(kinds) + 1),
                   kinds=np.array(kinds, dtype=np.int8), n0=n0,
                   duration=len(kinds) + 1.0, seed=0)
    n_before, n_after = _atom_numbers_loop(n0, kinds)
    assert log.n_before.dtype == np.int64
    assert log.n_before.tolist() == n_before
    assert log.n_after.tolist() == n_after


def _hand_log(times, kinds, n0=1, duration=10.0):
    return EventLog(times=np.array(times, dtype=float),
                    kinds=np.array(kinds, dtype=np.int8), n0=n0,
                    duration=duration, seed=0)


@pytest.mark.parametrize("times, kinds, message", [
    ([1.0, 2.0, 3.0], [KIND_LOAD, 7, KIND_LOSS1], "unknown event kind 7"),
    ([1.0, 2.0, 3.0], [KIND_LOAD, -1, KIND_LOSS1], "unknown event kind -1"),
    ([1.0, 3.0, 2.0], [KIND_LOAD] * 3, "strictly increasing from 0, got 2.0"),
    ([0.0, 1.0], [KIND_LOAD] * 2, "strictly increasing from 0, got 0.0"),
    ([1.0, 3.0, 3.0], [KIND_LOAD] * 3, "strictly increasing from 0, got 3.0"),
    ([1.0, np.nan], [KIND_LOAD] * 2, "strictly increasing from 0, got nan"),
    ([1.0, 12.0], [KIND_LOAD] * 2, r"lie in \(0, duration\], got 12.0"),
    ([1.0, 2.0, 3.0], [KIND_LOSS1, KIND_LOAD, KIND_LOSS2],
     "negative atom number in event log: 1 -> -1"),
], ids=["kind_7", "kind_-1", "decreasing", "at_0", "repeated", "nan",
        "after_duration", "negative"])
def test_validate_names_the_fault(times, kinds, message):
    log = _hand_log(times, kinds)
    with pytest.raises(ValueError, match=message):
        log.validate()


def test_validate_names_the_earliest_bad_event():
    # as the CSV reader names the earliest bad line: event 1 takes the trap
    # below zero before event 2 breaks three invariants at once
    log = _hand_log([1.0, 3.0, 2.0], [KIND_LOSS1, KIND_LOSS1, 7])
    with pytest.raises(ValueError, match=r"^event 1: negative atom number in "
                       r"event log: 0 -> -1$"):
        log.validate()


def test_faults_mask_every_bad_event():
    # an unknown kind changes no atom number, so the loss after it still
    # takes the trap below zero
    log = _hand_log([1.0, 0.5, 2.0, 11.0], [KIND_LOSS1, 5, KIND_LOSS1, KIND_LOAD])
    assert log.n_before.tolist() == [1, 0, 0, -1]
    masks = [mask.tolist() for mask, _ in log.faults()]
    assert masks == [[False, True, False, False], [False, True, False, False],
                     [False, False, False, True], [False, False, True, True]]
    with pytest.raises(ValueError, match="unknown event kind 5"):
        log.validate()
    _hand_log([1.0, 2.0], [KIND_LOAD, KIND_LOSS2], n0=1).validate()


def test_channel_rates_stationary_totals():
    model = RateModel(load_rate=0.08, bg_rate=1.0 / 60.0, b1=0.002, b2=0.004)
    p = master_stationary(model)
    load, loss1, loss2 = model.channel_rates(np.arange(len(p)))
    mean, pairs = stationary_moments(p)
    total_load = float((p * load).sum())
    total_loss1 = float((p * loss1).sum())
    total_loss2 = float((p * loss2).sum())
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
    """The generator of the chain truncated at n_max, one state at a time."""
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


def test_master_stationary_exact_tail_and_balance():
    # without pair losses the truncated chain is Poisson up to normalisation,
    # the far tail included
    p = master_stationary(RateModel(load_rate=3.0, bg_rate=1.0))
    ref = stats.poisson.pmf(np.arange(len(p)), 3.0)
    kept = ref > 1e-300
    assert kept.sum() == len(p)
    np.testing.assert_allclose(p[kept], ref[kept], rtol=1e-12, atol=0.0)
    # every state balances its own flux, however small
    for model in _reference_models():
        p = master_stationary(model)
        q = _generator_matrix_loop(model, len(p) - 1)
        flux = -p * np.diag(q)
        assert np.all(np.abs(p @ q) <= 1e-14 * flux)


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


# --- the rate table against the per-event rates it replaced -----------------

def _simulate_reference(model, n0, duration, seed):
    """simulate() with the rates recomputed at every event, as before the
    per-state rate table: (times, kinds)."""
    rng = np.random.default_rng(np.random.PCG64(seed))
    i = markov._BUF
    times, kinds = [], []
    t, n = 0.0, n0
    load, bg = float(model.load_rate), float(model.bg_rate)
    b1, b2 = float(model.b1), float(model.b2)
    while True:
        pairs = n * (n - 1)
        a1 = n * bg + b1 * pairs
        a2 = b2 * pairs
        total = load + a1 + a2
        if total == 0.0:
            break
        if i == markov._BUF:
            exp_buf = rng.standard_exponential(markov._BUF).tolist()
            uni_buf = rng.random(markov._BUF).tolist()
            i = 0
        t += exp_buf[i] / total
        if t > duration:
            break
        u = uni_buf[i] * total
        i += 1
        times.append(t)
        if u < load:
            kinds.append(KIND_LOAD)
            n += 1
        elif u < load + a1:
            kinds.append(KIND_LOSS1)
            n -= 1
        else:
            kinds.append(KIND_LOSS2)
            n -= 2
    return (np.asarray(times, dtype=np.float64), np.asarray(kinds, dtype=np.int8))


def _assert_simulate_matches_reference(model, n0, duration, seed):
    log = simulate(model, n0=n0, duration=duration, seed=seed)
    times, kinds = _simulate_reference(model, n0, duration, seed)
    assert log.times.dtype == times.dtype and log.times.tobytes() == times.tobytes()
    assert log.kinds.dtype == kinds.dtype and log.kinds.tobytes() == kinds.tobytes()
    return log


_RATES_OR_ZERO = st.one_of(st.just(0.0), st.floats(0.0, 1.0))


@settings(max_examples=300, deadline=None)
@given(load=st.one_of(st.just(0.0), st.floats(0.0, 5.0)), bg=_RATES_OR_ZERO,
       b1=_RATES_OR_ZERO, b2=_RATES_OR_ZERO, n0=st.integers(0, 500),
       duration=st.floats(1e-3, 500.0), seed=st.integers(0, 2**32 - 1))
def test_simulate_matches_reference(load, bg, b1, b2, n0, duration, seed):
    model = RateModel(load_rate=load, bg_rate=bg, b1=b1, b2=b2)
    _assert_simulate_matches_reference(model, n0, duration, seed)


@pytest.mark.parametrize("model, n0", [
    (RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006), 0),  # fig2
    (RateModel(load_rate=0.0, bg_rate=0.1, b1=0.01, b2=0.02), 40),  # dies out
    (RateModel(load_rate=0.3, bg_rate=0.05, b1=0.01, b2=0.0), 7),  # no loss2
    (RateModel(load_rate=0.0, bg_rate=0.0, b1=0.0, b2=0.3), 9),  # stops at N = 1
])
def test_simulate_matches_reference_cases(model, n0):
    log = _assert_simulate_matches_reference(model, n0, 2e4, seed=12)
    assert len(log) > 0


def test_simulate_rate_table_holds_only_visited_states():
    # from N = 10**6 at fig2 rates a few microseconds hold about a thousand
    # losses; a table with a slot per state up to n0 would hold 10**6
    # entries (8 MB as bare pointers)
    model = RateModel(load_rate=0.1403, bg_rate=1.0 / 60.0, b1=0.004, b2=0.006)
    n0, duration = 10**6, 1e-7
    simulate(model, n0=n0, duration=duration, seed=3)  # numpy's first-call caches
    tracemalloc.start()
    try:
        log = simulate(model, n0=n0, duration=duration, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 500 < len(log) < 5000
    assert peak < 2**20
    _assert_simulate_matches_reference(model, n0, duration, seed=3)
