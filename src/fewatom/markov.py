"""Continuous-time Markov chain for the trapped-atom number.

Transitions from state N:
    load            R               N -> N+1
    background      N / tau         N -> N-1
    one-atom coll.  b1 * N(N-1)     N -> N-1
    two-atom coll.  b2 * N(N-1)     N -> N-2   (one event, two atoms)

b1 and b2 are event-rate coefficients (1/s). In flux terms beta_1atom/V = b1
and beta_2atoms/V = 2*b2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Callable

import numpy as np

KIND_LOAD = 0
KIND_LOSS1 = 1
KIND_LOSS2 = 2
KIND_NAMES = ("load", "loss1", "loss2")
KIND_DELTA = (1, -1, -2)

MASTER_TAIL_MASS = 1e-12
_MASTER_NMAX_CAP = 4096

# The most events a run may expect, about 100 times the 2.4e5 of the
# longest benchmark run: simulate peaks near 70 bytes per event while it
# builds the log, so 2.5e7 of them take about 1.7 GB.
MAX_EVENTS = 25_000_000


class TruncationError(RuntimeError):
    """State-space truncation left too much probability at the boundary."""

    def __init__(self, n_max: int, boundary_mass: float):
        super().__init__(
            f"stationary solve truncated at n_max={n_max} keeps boundary mass "
            f"{boundary_mass:.3e} (limit {MASTER_TAIL_MASS:.0e})")
        self.n_max = n_max
        self.boundary_mass = boundary_mass


@dataclass
class RateModel:
    """Rates of the birth-death chain, all finite and >= 0; bg_rate = 1/tau."""

    load_rate: float  # 1/s
    bg_rate: float  # 1/s per atom
    b1: float = 0.0  # 1/s, one-atom collisional event coefficient
    b2: float = 0.0  # 1/s, two-atom collisional event coefficient

    def __post_init__(self):
        for name in ("load_rate", "bg_rate", "b1", "b2"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")

    def channel_rates(self, n: int | np.ndarray) -> tuple:
        """(load, loss1, loss2) event rates out of state n (an int or an int array)."""
        pairs = n * (n - 1)
        return (self.load_rate,
                n * self.bg_rate + self.b1 * pairs,
                self.b2 * pairs)


@dataclass
class EventLog:
    """Ordered record of number-changing events over [0, duration]. n_before
    follows from n0 and the kinds, and is derived at construction."""

    times: np.ndarray  # s, strictly increasing
    kinds: np.ndarray  # int8 codes into KIND_NAMES
    n0: int
    duration: float
    seed: int
    n_before: np.ndarray = field(init=False)

    def __post_init__(self):
        delta = self._delta()
        self.n_before = self.n0 + np.cumsum(delta) - delta

    def __len__(self) -> int:
        return len(self.times)

    def _delta(self) -> np.ndarray:
        """Each event's change of the atom number; 0 marks an unknown kind."""
        known = (self.kinds >= 0) & (self.kinds < len(KIND_DELTA))
        return np.where(known, np.take(KIND_DELTA, self.kinds, mode="clip"), 0)

    @property
    def n_after(self) -> np.ndarray:
        return self.n_before + self._delta()

    def faults(self) -> list[tuple[np.ndarray, Callable[[int], str]]]:
        """Each invariant of a log as (mask of the events that break it,
        message about event i), in the order that breaks a tie."""
        t, kinds, n_before, n_after = self.times, self.kinds, self.n_before, self.n_after
        return [
            (self._delta() == 0, lambda i: f"unknown event kind {kinds[i]}"),
            (~(np.diff(t, prepend=0.0) > 0), lambda i:
             f"event times must be strictly increasing from 0, got {t[i]}"),
            (~(t <= self.duration), lambda i:
             f"event times must lie in (0, duration], got {t[i]}"),
            ((n_before < 0) | (n_after < 0), lambda i:
             f"negative atom number in event log: {n_before[i]} -> {n_after[i]}"),
        ]

    def validate(self) -> None:
        """Raise ValueError about the earliest event that breaks an invariant."""
        raise_first(self.faults(), lambda i: f"event {i}")

    def staircase(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints t_0=0 < t_1 < ... <= duration and the level on [t_i, t_{i+1})."""
        t = np.concatenate([[0.0], self.times])
        n = np.concatenate([[self.n0], self.n_after])
        return t, n


def raise_first(faults: list, where: Callable[[int], str]) -> None:
    """Raise ValueError about the earliest element i that any fault's mask
    rejects (the earlier fault on a tie), as 'where(i): message'; faults
    as EventLog.faults lists them."""
    bad = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(faults) if mask.any()]
    if bad:
        i, k = min(bad)
        raise ValueError(f"{where(i)}: {faults[k][1](i)}")


def check_events(load_rate: float, duration: float, n0: int,
                 names: tuple = ("model.load_rate", "duration", "n0")) -> None:
    """Refuse a run whose bound 2 * load_rate * duration + n0 on the events
    it expects (each loss takes an atom that was loaded or there at the
    start) passes MAX_EVENTS; the message calls the three terms `names`."""
    events = 2.0 * load_rate * duration + n0
    if events > MAX_EVENTS:
        raise ValueError(f"2 * {names[0]} * {names[1]} + {names[2]} = {events:.3g} events, "
                         f"above MAX_EVENTS = {MAX_EVENTS}, the most a run may expect")


_BUF = 4096


def simulate(model: RateModel, n0: int = 0, *, duration: float,
             seed: int = 0) -> EventLog:
    """Exact next-event simulation of the chain; bitwise reproducible per seed.

    Each step consumes one exponential and one uniform variate from a PCG64
    stream, drawn in blocks of _BUF of each (the exponentials first) and
    walked in pairs with zip, a block at a time. The loop works in Python
    floats, which round as numpy's float64 does and overflow to inf without
    a warning when the total rate is subnormal.

    The rates out of a state come from RateModel.channel_rates once, when
    the chain first reaches it, and are kept as Python floats in a table
    keyed by the atom number: the total rate and load + loss1, the bound
    that separates a one-atom loss from a two-atom one. An event then costs
    one lookup, and the table holds only the states visited (12 in a 1e6 s
    run at the fig2 rates; from n0 at most one per event).

    Refuses, before the first draw, a run that check_events refuses, and a
    state whose total rate overflows to inf (and would add nothing to t).
    """
    if not 0 < duration < math.inf:
        raise ValueError("duration must be positive and finite")
    n0 = operator.index(n0)
    if not 0 <= n0 < 2**63:  # the int64 atom numbers of the log
        raise ValueError(f"n0 must be in [0, 2**63), got {n0}")
    check_events(model.load_rate, duration, n0)
    rng = np.random.default_rng(np.random.PCG64(seed))
    variates = chain.from_iterable(
        zip(rng.standard_exponential(_BUF).tolist(), rng.random(_BUF).tolist())
        for _ in repeat(None))

    times: list[float] = []
    kinds: list[int] = []
    add_time, add_kind = times.append, kinds.append

    t = 0.0
    n = n0
    load = float(model.load_rate)
    rates: dict[int, tuple[float, float]] = {}  # n -> (total, load + loss1)
    for e, u in variates:
        try:
            total, load_a1 = rates[n]
        except KeyError:
            r_load, a1, a2 = model.channel_rates(n)
            total, load_a1 = rates[n] = (float(r_load + a1 + a2), float(r_load + a1))
            if not total < math.inf:
                raise ValueError(f"event rates out of N = {n} atoms sum to {total}")
        if total == 0.0:
            break
        t += e / total
        if t > duration:
            break
        u *= total
        add_time(t)
        if u < load:
            add_kind(KIND_LOAD)
            n += 1
        elif u < load_a1:
            add_kind(KIND_LOSS1)
            n -= 1
        else:
            add_kind(KIND_LOSS2)
            n -= 2
    return EventLog(
        times=np.asarray(times, dtype=np.float64),
        kinds=np.asarray(kinds, dtype=np.int8),
        n0=n0, duration=duration, seed=seed)


def master_stationary(model: RateModel) -> np.ndarray:
    """Stationary occupancy of the truncated chain, from its cut equations.

    The chain steps up by one atom only, so the load across the cut between
    N and N+1 balances the losses down across it,
        R p[N] = (loss1 + loss2)(N+1) p[N+1] + loss2(N+2) p[N+2],
    solved downward from p[n_max] = 1 with no states above. Every term is
    non-negative, so the tail keeps its relative precision; a value that
    would pass 2**500 first scales those above it by a power of two (exact).
    The truncation doubles from 64 until the boundary state holds less than
    1e-12 probability, or raises TruncationError past _MASTER_NMAX_CAP.
    """
    n = 64
    if model.load_rate == 0.0:  # the point mass at N = 0, over 65 states
        return np.r_[1.0, np.zeros(n)]
    load = float(model.load_rate)
    ceiling = load * 2.0 ** 500  # inf for a load that no quotient can overflow
    while True:
        _, loss1, loss2 = model.channel_rates(np.arange(n + 3))
        down, pair = (loss1 + loss2).tolist(), loss2.tolist()
        p = [0.0] * n + [1.0, 0.0, 0.0]
        for k in range(n - 1, -1, -1):
            flux = down[k + 1] * p[k + 1] + pair[k + 2] * p[k + 2]
            if flux > ceiling:
                shift = math.frexp(flux)[1] - math.frexp(load)[1]
                p[k + 1:] = [math.ldexp(x, -shift) for x in p[k + 1:]]
                flux = math.ldexp(flux, -shift)
            p[k] = flux / load
        p = np.array(p[:-2]) / math.fsum(p)
        if p[-1] < MASTER_TAIL_MASS:
            return p
        if n >= _MASTER_NMAX_CAP:
            raise TruncationError(n, float(p[-1]))
        n *= 2


def stationary_moments(p: np.ndarray) -> tuple[float, float]:
    """(mean N, mean N(N-1)) of an occupancy vector."""
    n = np.arange(len(p))
    return float((n * p).sum()), float((n * (n - 1) * p).sum())
