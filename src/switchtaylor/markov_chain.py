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

A ``GeneratorMatrix`` builds its move tables once, from q: per state the
mean holding time and the running sum of the off-diagonal rates, the CDF
that ``sample_path`` searches for the next state.  They are derived from q
and take no part in ``repr`` or ``==``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from . import _values
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


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Validated transition-rate matrix of a finite-state chain.

    Off-diagonal entries are nonnegative jump rates, diagonal entries are
    nonpositive, and every row sums to zero within 1e-12.  Two generators
    are equal when their q are, and hash by q's bytes.
    """

    q: np.ndarray
    # per state: 1 / -q[i,i], None if absorbing, and the next-state CDF
    _moves: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = _values.floats(self.q, "generator", InvalidGenerator).copy()
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
        exits = -np.diag(q)
        moves = tuple(
            (1.0 / rate if rate > 0.0 else None, tuple(np.cumsum(row).tolist()))
            for rate, row in zip(exits.tolist(), off)
        )
        object.__setattr__(self, "_moves", moves)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return np.array_equal(self.q, other.q)

    def __hash__(self):
        # + 0.0 turns -0.0, which == counts as equal to 0.0, into 0.0
        return hash((self.q + 0.0).tobytes())

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
        _values.label(i0, "state", StateOutOfRange, self.m0)
        _values.label(k0, "state", StateOutOfRange, self.m0)
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
        t0, t_end = _values.number(self.t0), _values.number(self.t_end)
        if not -np.inf < t0 < t_end < np.inf:
            raise IntervalOutOfRange("need finite t0 < t_end")
        # copies, since the path freezes them
        times = _values.times(self.jump_times, "jump times", IntervalOutOfRange, 0).copy()
        states = _values.labels(self.states_after, "states", StateOutOfRange).astype(np.int64)
        if times.shape != states.shape:
            raise StateOutOfRange("one entered state per jump time")
        if times.size and (times[0] <= t0 or times[-1] > t_end):
            raise IntervalOutOfRange("jump times must lie inside (t0, t_end]")
        _values.label(self.initial_state, "initial state", StateOutOfRange)
        times.setflags(write=False)
        states.setflags(write=False)
        object.__setattr__(self, "t0", t0)
        object.__setattr__(self, "t_end", t_end)
        object.__setattr__(self, "jump_times", times)
        object.__setattr__(self, "states_after", states)

    @property
    def jump_count(self) -> int:
        return int(self.jump_times.size)

    def state_at(self, t: float) -> int:
        """Right-continuous state at time t."""
        return self._state(t, "right")

    def state_before(self, t: float) -> int:
        """Left limit of the state at time t."""
        return self._state(t, "left")

    def states_at(self, times) -> np.ndarray:
        """Vectorized right-continuous states at an array of times."""
        times = _values.floats(times, "query times", IntervalOutOfRange)
        if times.size and not (times.min() >= self.t0 and times.max() <= self.t_end):
            raise IntervalOutOfRange("query outside the sampled span")
        k = np.searchsorted(self.jump_times, times, side="right")
        all_states = np.concatenate(([self.initial_state], self.states_after))
        return all_states[k]

    def _state(self, t: float, side: str) -> int:
        u = _values.number(t)
        if not (self.t0 <= u <= self.t_end):
            raise IntervalOutOfRange(
                "time %r outside the sampled span [%r, %r]" % (t, self.t0, self.t_end)
            )
        k = int(np.searchsorted(self.jump_times, u, side=side))
        return self.initial_state if k == 0 else int(self.states_after[k - 1])


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
    _values.label(initial_state, "state", StateOutOfRange, generator.m0)
    t0, t_end = _values.number(t0), _values.number(t_end)
    if not -np.inf < t0 < t_end < np.inf:
        # a NaN or infinite end would never stop the holding-time loop
        raise IntervalOutOfRange("need finite t0 < t_end")
    moves = generator._moves
    times = []
    states = []
    t = t0
    state = initial_state
    while True:
        scale, cdf = moves[state - 1]
        if scale is None:
            break
        t = t + rng.exponential(scale)
        if t > t_end:
            break
        state = bisect_right(cdf, rng.random() * cdf[-1]) + 1
        times.append(t)
        states.append(state)
    return ChainPath(t0, t_end, initial_state, np.array(times), np.array(states, dtype=np.int64))


def _jumps_in(path: ChainPath, s: float, t: float) -> slice:
    # the positions in path.jump_times of the jumps on (s, t]
    span = _values.number(s), _values.number(t)
    if not (path.t0 <= span[0] < span[1] <= path.t_end):
        raise IntervalOutOfRange(
            "need %r <= s < t <= %r, got (s, t) = (%r, %r)" % (path.t0, path.t_end, s, t)
        )
    lo, hi = np.searchsorted(path.jump_times, span, side="right")
    return slice(int(lo), int(hi))


def count_jumps(path: ChainPath, s: float, t: float) -> int:
    """Number of jumps on the half-open interval (s, t]."""
    span = _jumps_in(path, s, t)
    return span.stop - span.start


def jump_times_in(path: ChainPath, s: float, t: float) -> np.ndarray:
    """Jump times on (s, t], in increasing order."""
    return path.jump_times[_jumps_in(path, s, t)].copy()


def occupation_time(path: ChainPath, state: int, s: float, t: float) -> float:
    """Lebesgue measure of {u in (s, t] : left limit of the state at u is i0}."""
    inner = path.jump_times[_jumps_in(path, s, t)]
    _values.label(state, "state", StateOutOfRange)
    cuts = [s, *inner[inner < t], t]
    total = 0.0
    # on (left, right] the left limits equal the state entered at `left`
    for left, right, entered in zip(cuts, cuts[1:], path.states_at(cuts[:-1])):
        if entered == state:
            total += right - left
    return total


def pair_jump_count(path: ChainPath, i0: int, k0: int, s: float, t: float) -> int:
    """Number of i0 -> k0 transitions on (s, t]; the pair must be distinct."""
    _values.label(i0, "state", StateOutOfRange)
    _values.label(k0, "state", StateOutOfRange)
    if i0 == k0:
        raise SameStatePair("transition counting needs two distinct states")
    span = _jumps_in(path, s, t)
    before = np.concatenate(([path.initial_state], path.states_after))[span]
    after = path.states_after[span]
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
    _values.label(i0, "state", StateOutOfRange, generator.m0)
    _values.label(k0, "state", StateOutOfRange, generator.m0)
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
