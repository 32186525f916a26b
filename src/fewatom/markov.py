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

from dataclasses import dataclass, field

import numpy as np

KIND_LOAD = 0
KIND_LOSS1 = 1
KIND_LOSS2 = 2
KIND_NAMES = ("load", "loss1", "loss2")
KIND_DELTA = (1, -1, -2)

MASTER_TAIL_MASS = 1e-12
_MASTER_NMAX_CAP = 4096


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
    """Rates of the birth-death chain. All non-negative; bg_rate = 1/tau."""

    load_rate: float  # 1/s
    bg_rate: float  # 1/s per atom
    b1: float = 0.0  # 1/s, one-atom collisional event coefficient
    b2: float = 0.0  # 1/s, two-atom collisional event coefficient

    def __post_init__(self):
        for name in ("load_rate", "bg_rate", "b1", "b2"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def channel_rates(self, n: int | np.ndarray) -> tuple:
        """(load, loss1, loss2) event rates out of state n (an int or an int array)."""
        pairs = n * (n - 1)
        return (self.load_rate,
                n * self.bg_rate + self.b1 * pairs,
                self.b2 * pairs)


@dataclass
class EventLog:
    """Ordered record of number-changing events over [0, duration]."""

    times: np.ndarray  # s, strictly increasing
    kinds: np.ndarray  # int8 codes into KIND_NAMES
    n_before: np.ndarray
    n0: int
    duration: float
    seed: int

    def __len__(self) -> int:
        return len(self.times)

    @property
    def n_after(self) -> np.ndarray:
        return self.n_before + np.array(KIND_DELTA)[self.kinds]

    def validate(self) -> None:
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("event times must be strictly increasing")
        if len(self.times) and (self.times[0] <= 0 or self.times[-1] > self.duration):
            raise ValueError("event times must lie in (0, duration]")
        if np.any(self.n_after < 0) or np.any(self.n_before < 0):
            raise ValueError("negative atom number in event log")
        # each event starts where the previous one ended
        if len(self.times):
            expect = np.concatenate([[self.n0], self.n_after[:-1]])
            if np.any(self.n_before != expect):
                raise ValueError("event sequence is not self-consistent")

    def staircase(self) -> tuple[np.ndarray, np.ndarray]:
        """Breakpoints t_0=0 < t_1 < ... <= duration and the level on [t_i, t_{i+1})."""
        t = np.concatenate([[0.0], self.times])
        n = np.concatenate([[self.n0], self.n_after])
        return t, n


_BUF = 4096


def simulate(model: RateModel, n0: int = 0, duration: float = 0.0,
             seed: int = 0) -> EventLog:
    """Exact next-event simulation of the chain; bitwise reproducible per seed.

    Each step consumes one exponential and one uniform variate from a PCG64
    stream, drawn in fixed-size blocks for speed. The loop works in Python
    floats, which round as numpy's float64 does and overflow to inf without
    a warning when the total rate is subnormal.
    """
    if duration <= 0:
        raise ValueError("duration must be positive")
    if n0 < 0:
        raise ValueError("n0 must be non-negative")
    rng = np.random.default_rng(np.random.PCG64(seed))
    i = _BUF

    times: list[float] = []
    kinds: list[int] = []
    befores: list[int] = []

    t = 0.0
    n = n0
    load = float(model.load_rate)
    bg = float(model.bg_rate)
    b1 = float(model.b1)
    b2 = float(model.b2)
    while True:
        # channel_rates inline: a method call per event would slow this loop
        pairs = n * (n - 1)
        a1 = n * bg + b1 * pairs
        a2 = b2 * pairs
        total = load + a1 + a2
        if total == 0.0:
            break
        if i == _BUF:
            exp_buf = rng.standard_exponential(_BUF).tolist()
            uni_buf = rng.random(_BUF).tolist()
            i = 0
        t += exp_buf[i] / total
        if t > duration:
            break
        u = uni_buf[i] * total
        i += 1
        times.append(t)
        befores.append(n)
        if u < load:
            kinds.append(KIND_LOAD)
            n += 1
        elif u < load + a1:
            kinds.append(KIND_LOSS1)
            n -= 1
        else:
            kinds.append(KIND_LOSS2)
            n -= 2
    return EventLog(
        times=np.asarray(times, dtype=np.float64),
        kinds=np.asarray(kinds, dtype=np.int8),
        n_before=np.asarray(befores, dtype=np.int64),
        n0=n0, duration=duration, seed=seed)


def _generator_matrix(model: RateModel, n_max: int) -> np.ndarray:
    n = np.arange(n_max + 1)
    load, loss1, loss2 = model.channel_rates(n)
    q = np.zeros((n_max + 1, n_max + 1))
    q[n[:-1], n[1:]] = load
    q[n[1:], n[:-1]] = loss1[1:]
    q[n[2:], n[:-2]] = loss2[2:]
    q[n, n] = -q.sum(axis=1)
    return q


def master_stationary(model: RateModel) -> np.ndarray:
    """Stationary occupancy of the truncated chain by direct global-balance solve.

    The truncation doubles from 64 until the boundary state holds less than
    1e-12 probability, or raises TruncationError past _MASTER_NMAX_CAP.
    With load_rate 0 it is the point mass at N = 0 over 65 states.
    """
    n = 64
    if model.load_rate == 0.0:
        p = np.zeros(n + 1)
        p[0] = 1.0
        return p
    while True:
        q = _generator_matrix(model, n)
        a = q.T.copy()
        a[-1, :] = 1.0  # replace one balance row with normalization
        b = np.zeros(n + 1)
        b[-1] = 1.0
        p = np.linalg.solve(a, b)
        p = np.clip(p, 0.0, None)
        p /= p.sum()
        if p[-1] < MASTER_TAIL_MASS:
            return p
        if n >= _MASTER_NMAX_CAP:
            raise TruncationError(n, float(p[-1]))
        n *= 2


@dataclass
class ExpectedRates:
    """Per-state stationary occupancy and event rates; the fit oracle."""

    n: np.ndarray
    probability: np.ndarray
    load: np.ndarray  # events/s while in state n
    loss1: np.ndarray
    loss2: np.ndarray


def expected_event_rates(p: np.ndarray, model: RateModel) -> ExpectedRates:
    n = np.arange(len(p))
    load, loss1, loss2 = model.channel_rates(n)
    return ExpectedRates(
        n=n,
        probability=np.asarray(p, dtype=float),
        load=np.full(len(p), load),
        loss1=loss1,
        loss2=loss2)


def stationary_moments(p: np.ndarray) -> tuple[float, float]:
    """(mean N, mean N(N-1)) of an occupancy vector."""
    n = np.arange(len(p))
    return float((n * p).sum()), float((n * (n - 1) * p).sum())
