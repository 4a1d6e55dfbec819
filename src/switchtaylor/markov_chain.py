"""Finite-state continuous-time Markov chains and their jump statistics.

States are labelled 1..m0.  A path is piecewise constant and right
continuous, stored as the ordered jump times with the state entered at each
jump.  Query intervals follow the half-open convention (s, t]: a jump landing
exactly on the left endpoint belongs to the interval before it.

For a state pair i0 != k0 the number of observed i0 -> k0 transitions on
(s, t], its predictable compensator q[i0,k0] * (occupation time of i0 taken
through left limits), and their difference are exposed as
``pair_jump_count``, ``pair_jump_compensator`` and ``pair_jump_martingale``.
The difference has zero mean; the bound
P(at least N jumps on (s,t]) <= (qmax (t-s))^N, with qmax the largest exit
rate, holds whenever t - s < 1 / (2 qmax).
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np

from ._files import opened
from .errors import (
    IntervalOutOfRange,
    InvalidGenerator,
    SameStatePair,
    StateOutOfRange,
)

__all__ = [
    "GeneratorMatrix",
    "ChainPath",
    "sample_path",
    "count_jumps",
    "jump_times_in",
    "occupation_time",
    "pair_jump_count",
    "pair_jump_compensator",
    "pair_jump_martingale",
    "write_chain_csv",
]

ROW_SUM_TOL = 1e-12


@dataclass(frozen=True)
class GeneratorMatrix:
    """Validated transition-rate matrix of a finite-state chain.

    Off-diagonal entries are nonnegative jump rates, diagonal entries are
    nonpositive, and every row sums to zero within 1e-12.
    """

    q: np.ndarray

    def __post_init__(self):
        q = np.array(self.q, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1] or q.shape[0] < 1:
            raise InvalidGenerator("generator must be a square matrix")
        if not np.isfinite(q).all():
            raise InvalidGenerator("generator entries must be finite")
        off = q.copy()
        np.fill_diagonal(off, 0.0)
        if (off < 0.0).any():
            raise InvalidGenerator("off-diagonal rates must be nonnegative")
        if (np.diag(q) > 0.0).any():
            raise InvalidGenerator("diagonal entries must be nonpositive")
        rowsum = np.abs(q.sum(axis=1))
        if (rowsum > ROW_SUM_TOL).any():
            raise InvalidGenerator(
                "row sums must vanish within %g; worst %g" % (ROW_SUM_TOL, rowsum.max())
            )
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    @property
    def m0(self) -> int:
        """Number of states."""
        return self.q.shape[0]

    @property
    def qmax(self) -> float:
        """Largest exit rate, max over states of -q[i,i]."""
        return float(np.max(-np.diag(self.q)))

    def rate(self, i0: int, k0: int) -> float:
        """Entry q[i0, k0] with 1-based state labels."""
        _check_state(self.m0, i0)
        _check_state(self.m0, k0)
        return float(self.q[i0 - 1, k0 - 1])


@dataclass(frozen=True)
class ChainPath:
    """One sampled trajectory on [t0, t_end].

    jump_times is strictly increasing inside (t0, t_end]; states_after[i] is
    the state entered at jump_times[i].
    """

    t0: float
    t_end: float
    initial_state: int
    jump_times: np.ndarray = field(default_factory=lambda: np.empty(0))
    states_after: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        times = np.array(self.jump_times, dtype=float)
        labels = np.asarray(self.states_after)
        states = np.array(labels, dtype=np.int64)
        if not -np.inf < self.t0 < self.t_end < np.inf:
            raise IntervalOutOfRange("need finite t0 < t_end")
        if times.shape != states.shape or times.ndim != 1:
            raise StateOutOfRange("one entered state per jump time")
        if times.size:
            if (np.diff(times) <= 0).any():
                raise IntervalOutOfRange("jump times must be strictly increasing")
            if times[0] <= self.t0 or times[-1] > self.t_end:
                raise IntervalOutOfRange("jump times must lie inside (t0, t_end]")
        if (
            not isinstance(self.initial_state, numbers.Integral)
            or (labels.size and labels.dtype.kind not in "iu")
            or self.initial_state < 1
            or (states < 1).any()
        ):
            raise StateOutOfRange(
                "states are integer labels from 1, got %r and %r"
                % (self.initial_state, labels)
            )
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "states_after", states)

    @property
    def jump_count(self) -> int:
        return int(self.jump_times.size)

    def state_at(self, t: float) -> int:
        """Right-continuous state at time t."""
        self._check_time(t)
        k = int(np.searchsorted(self.jump_times, t, side="right"))
        return self.initial_state if k == 0 else int(self.states_after[k - 1])

    def state_before(self, t: float) -> int:
        """Left limit of the state at time t."""
        self._check_time(t)
        k = int(np.searchsorted(self.jump_times, t, side="left"))
        return self.initial_state if k == 0 else int(self.states_after[k - 1])

    def states_at(self, times) -> np.ndarray:
        """Vectorized right-continuous states at an array of times."""
        times = np.asarray(times, dtype=float)
        if times.size and not (times.min() >= self.t0 and times.max() <= self.t_end):
            raise IntervalOutOfRange("query outside the sampled span")
        k = np.searchsorted(self.jump_times, times, side="right")
        all_states = np.concatenate(([self.initial_state], self.states_after))
        return all_states[k]

    def _check_time(self, t: float):
        if not (self.t0 <= t <= self.t_end):
            raise IntervalOutOfRange(
                "time %r outside the sampled span [%r, %r]" % (t, self.t0, self.t_end)
            )


def sample_path(
    generator: GeneratorMatrix,
    initial_state: int,
    t0: float,
    t_end: float,
    rng: np.random.Generator,
) -> ChainPath:
    """Draw one chain path via exponential holding times.

    At each visit to state i the holding time is exponential with rate
    -q[i,i]; the next state is chosen with probabilities proportional to the
    off-diagonal rates of row i.  States with zero exit rate are absorbing.

    Args:
      generator: validated rate matrix.
      initial_state: label in 1..m0 of the state at t0.
      t0, t_end: sampled span, t0 < t_end.
      rng: numpy Generator; the draw consumes it sequentially.

    Returns:
      ChainPath on [t0, t_end].
    """
    _check_state(generator.m0, initial_state)
    if not -np.inf < t0 < t_end < np.inf:
        # a NaN or infinite end would never stop the holding-time loop
        raise IntervalOutOfRange("need finite t0 < t_end")
    q = generator.q
    times = []
    states = []
    t = t0
    state = initial_state
    while True:
        exit_rate = -q[state - 1, state - 1]
        if exit_rate <= 0.0:
            break
        t = t + rng.exponential(1.0 / exit_rate)
        if t > t_end:
            break
        rates = q[state - 1].copy()
        rates[state - 1] = 0.0
        cdf = np.cumsum(rates)
        u = rng.random() * cdf[-1]
        state = int(np.searchsorted(cdf, u, side="right")) + 1
        times.append(t)
        states.append(state)
    return ChainPath(t0, t_end, initial_state, np.array(times), np.array(states, dtype=np.int64))


def _check_state(m0: int, state: int):
    if not isinstance(state, numbers.Integral) or not 1 <= state <= m0:
        raise StateOutOfRange("state %r outside 1..%d" % (state, m0))


def _check_interval(path: ChainPath, s: float, t: float):
    if not (path.t0 <= s < t <= path.t_end):
        raise IntervalOutOfRange(
            "need %r <= s < t <= %r, got (s, t) = (%r, %r)" % (path.t0, path.t_end, s, t)
        )


def count_jumps(path: ChainPath, s: float, t: float) -> int:
    """Number of jumps on the half-open interval (s, t]."""
    _check_interval(path, s, t)
    lo = np.searchsorted(path.jump_times, s, side="right")
    hi = np.searchsorted(path.jump_times, t, side="right")
    return int(hi - lo)


def jump_times_in(path: ChainPath, s: float, t: float) -> np.ndarray:
    """Jump times on (s, t], in increasing order."""
    _check_interval(path, s, t)
    lo = np.searchsorted(path.jump_times, s, side="right")
    hi = np.searchsorted(path.jump_times, t, side="right")
    return path.jump_times[lo:hi].copy()


def occupation_time(path: ChainPath, state: int, s: float, t: float) -> float:
    """Lebesgue measure of {u in (s, t] : left limit of the state at u is i0}."""
    _check_interval(path, s, t)
    if state < 1:
        raise StateOutOfRange("states are labelled from 1")
    cuts = [s]
    cuts.extend(path.jump_times[(path.jump_times > s) & (path.jump_times < t)])
    cuts.append(t)
    total = 0.0
    for left, right in zip(cuts, cuts[1:]):
        # on (left, right] the left limits equal the state entered at `left`
        if path.state_at(left) == state:
            total += right - left
    return total


def pair_jump_count(path: ChainPath, i0: int, k0: int, s: float, t: float) -> int:
    """Number of i0 -> k0 transitions on (s, t]; the pair must be distinct."""
    if i0 == k0:
        raise SameStatePair("transition counting needs two distinct states")
    _check_interval(path, s, t)
    lo = np.searchsorted(path.jump_times, s, side="right")
    hi = np.searchsorted(path.jump_times, t, side="right")
    before = np.concatenate(([path.initial_state], path.states_after))[lo:hi]
    after = path.states_after[lo:hi]
    return int(np.count_nonzero((before == i0) & (after == k0)))


def pair_jump_compensator(
    generator: GeneratorMatrix, path: ChainPath, i0: int, k0: int, s: float, t: float
) -> float:
    """Predictable compensator of the pair count: rate times occupation time."""
    if i0 == k0:
        raise SameStatePair("transition counting needs two distinct states")
    return generator.rate(i0, k0) * occupation_time(path, i0, s, t)


def pair_jump_martingale(
    generator: GeneratorMatrix, path: ChainPath, i0: int, k0: int, s: float, t: float
) -> float:
    """Count minus compensator; identically zero for i0 == k0 by convention."""
    if i0 == k0:
        return 0.0
    return pair_jump_count(path, i0, k0, s, t) - pair_jump_compensator(
        generator, path, i0, k0, s, t
    )


def write_chain_csv(path: ChainPath, file) -> None:
    """Write a path as CSV rows (time, state), starting with the initial state.

    ``file`` may be a filesystem path or a writable text file object.
    """
    with opened(file, "w") as out:
        out.write("time,state\n")
        out.write("%.17g,%d\n" % (path.t0, path.initial_state))
        for tau, state in zip(path.jump_times, path.states_after):
            out.write("%.17g,%d\n" % (tau, state))
