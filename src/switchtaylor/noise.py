"""Wiener increments and their running time integrals on a grid.

A noise path stores, per grid interval of length delta and per dimension, the
Wiener increment dW and the integral dZ of the Wiener excursion over the
interval,

    dW ~ N(0, delta),    dZ = integral of (W(u) - W(interval start)) du.

The pair is jointly Gaussian with Var(dZ) = delta^3 / 3 and
Cov(dW, dZ) = delta^2 / 2, which the sampler realizes in closed form from two
independent standard normals G1, G2:

    dW = sqrt(delta) G1,
    dZ = delta^(3/2) (G1 / 2 + G2 / (2 sqrt(3))).

Chain jump times are merged into the grid *before* any Gaussian draw (the
chain is independent of the Wiener process, so conditioning on the jump times
is legitimate), which makes every jump time a grid point and removes any need
for bridge corrections later.  Sampling order is fixed: one draw of shape
(intervals, dimensions, 2) filled in C order.

Increments over coarser spans are exact sums of the stored fine data;
``increment_w`` and ``time_integral_w`` compose them through precomputed
prefix sums, so the nesting identities hold to floating-point accumulation
accuracy (about 1e-12 over thousands of intervals) with no discretization
error.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import IntervalOutOfRange, InvalidGrid, NotAGridTime, TruncatedNoiseFile
from .markov_chain import ChainPath

__all__ = [
    "GridSpec",
    "NoisePath",
    "sample_increments",
    "build_noise",
    "dump_noise",
    "load_noise",
]

_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid of ``n`` intervals on [t0, t_end].

    Coarser grids are strided slices of ``finest_times()``, so shared points
    are equal bitwise, not merely approximately.
    """

    t0: float
    t_end: float
    n: int

    def __post_init__(self):
        if not (np.isfinite(self.t0) and np.isfinite(self.t_end) and self.t0 < self.t_end):
            raise InvalidGrid("need finite t0 < t_end")
        if int(self.n) != self.n or self.n < 1:
            raise InvalidGrid("the interval count must be a positive integer")
        object.__setattr__(self, "n", int(self.n))

    def finest_times(self) -> np.ndarray:
        span = self.t_end - self.t0
        times = self.t0 + span * np.arange(self.n + 1) / self.n
        times[-1] = self.t_end
        return times


def sample_increments(deltas, m: int, rng: np.random.Generator):
    """Draw (dW, dZ) for a vector of interval lengths.

    Args:
      deltas: positive interval lengths, shape (n,).
      m: number of Wiener dimensions.
      rng: numpy Generator.

    Returns:
      (dw, dz) arrays of shape (n, m).
    """
    deltas = np.asarray(deltas, dtype=float)
    if deltas.ndim != 1 or (deltas <= 0).any():
        raise InvalidGrid("interval lengths must be positive")
    if m < 1:
        raise InvalidGrid("need at least one Wiener dimension")
    g = rng.standard_normal((deltas.size, m, 2))
    root = np.sqrt(deltas)
    dw = root[:, None] * g[:, :, 0]
    dz = (deltas * root)[:, None] * (0.5 * g[:, :, 0] + (0.5 / _SQRT3) * g[:, :, 1])
    return dw, dz


class NoisePath:
    """Sampled increments on a merged grid, with prefix sums for aggregation.

    Attributes:
      times: grid times, shape (n+1,), strictly increasing.
      dw, dz: per-interval increments, shape (n, m).
    """

    def __init__(self, times: np.ndarray, dw: np.ndarray, dz: np.ndarray):
        times = np.asarray(times, dtype=float)
        dw = np.asarray(dw, dtype=float)
        dz = np.asarray(dz, dtype=float)
        if times.ndim != 1 or times.size < 2 or (np.diff(times) <= 0).any():
            raise InvalidGrid("grid times must be strictly increasing")
        if dw.shape != dz.shape or dw.ndim != 2 or dw.shape[0] != times.size - 1:
            raise InvalidGrid("increment arrays must be (intervals, dimensions)")
        self.times = times
        self.dw = dw
        self.dz = dz
        n, m = dw.shape
        zero = np.zeros((1, m))
        # W(t) - W(t0) at grid points
        self._w = np.concatenate([zero, np.cumsum(dw, axis=0)])
        self._zsum = np.concatenate([zero, np.cumsum(dz, axis=0)])
        deltas = np.diff(times)
        self._wdt = np.concatenate([zero, np.cumsum(self._w[:-1] * deltas[:, None], axis=0)])

    @property
    def m(self) -> int:
        return self.dw.shape[1]

    @property
    def t0(self) -> float:
        return float(self.times[0])

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def grid_index(self, t: float) -> int:
        """Index of t in the grid; raises NotAGridTime when absent."""
        i = int(np.searchsorted(self.times, t))
        if i == self.times.size or self.times[i] != t:
            raise NotAGridTime("%r is not a grid time of this path" % (t,))
        return i

    def w_at(self, t: float, j: int | None = None):
        """W(t) - W(t0) at a grid time; one dimension when j is given (1-based)."""
        w = self._w[self.grid_index(t)]
        return w if j is None else float(w[j - 1])

    def increment_w(self, s: float, t: float, j: int | None = None):
        """W(t) - W(s) over grid times s <= t."""
        lo, hi = self._span(s, t)
        out = self._w[hi] - self._w[lo]
        return out if j is None else float(out[j - 1])

    def time_integral_w(self, s: float, t: float, j: int | None = None):
        """Integral over (s, t) of W(u) - W(s) du, for grid times s <= t.

        Composes exactly across splits: the value over (s, t) equals the value
        over (s, u) plus the value over (u, t) plus (W(u) - W(s)) (t - u).
        """
        lo, hi = self._span(s, t)
        out = (
            self._zsum[hi]
            - self._zsum[lo]
            + self._wdt[hi]
            - self._wdt[lo]
            - self._w[lo] * (self.times[hi] - self.times[lo])
        )
        return out if j is None else float(out[j - 1])

    def _span(self, s: float, t: float):
        lo = self.grid_index(s)
        hi = self.grid_index(t)
        if hi < lo:
            raise IntervalOutOfRange("need s <= t, got (%r, %r)" % (s, t))
        return lo, hi

    def grid_indices(self, times) -> np.ndarray:
        """Vectorized grid_index; every entry must be a grid time."""
        times = np.asarray(times, dtype=float).reshape(-1)
        idx = np.searchsorted(self.times, times)
        clipped = np.minimum(idx, self.times.size - 1)
        bad = (idx == self.times.size) | (self.times[clipped] != times)
        if bad.any():
            raise NotAGridTime(
                "%r is not a grid time of this path" % (times[bad][0],)
            )
        return idx

    def w_many(self, times) -> np.ndarray:
        """W(t) - W(t0) for an array of grid times; shape (len(times), m)."""
        return self._w[self.grid_indices(times)]

    def step_aggregates(self, edges):
        """Per-window increments over consecutive grid-time edges.

        Given n + 1 nondecreasing grid times, returns (dw, dz) of shape
        (n, m) where dw[i] spans (edges[i], edges[i+1]) and dz[i] is the
        matching time integral of W(u) - W(edges[i]).
        """
        idx = self.grid_indices(edges)
        if np.any(np.diff(idx) < 0):
            raise IntervalOutOfRange("edges must be nondecreasing")
        lo, hi = idx[:-1], idx[1:]
        dw = self._w[hi] - self._w[lo]
        dz = (
            self._zsum[hi]
            - self._zsum[lo]
            + self._wdt[hi]
            - self._wdt[lo]
            - self._w[lo] * (self.times[hi] - self.times[lo])[:, None]
        )
        return dw, dz


def build_noise(
    grid: GridSpec,
    chain: ChainPath | None,
    m: int,
    rng: np.random.Generator,
) -> NoisePath:
    """Sample a noise path on a grid merged with chain jump times.

    Args:
      grid: the uniform grid that carries the samples.
      chain: path whose jump times are inserted as grid points, or None.
      m: number of Wiener dimensions.
      rng: numpy Generator.

    Returns:
      NoisePath whose grid contains every time of ``grid`` and every jump
      time, so jump times can be queried exactly.
    """
    times = grid.finest_times()
    if chain is not None:
        if chain.t0 > grid.t0 or chain.t_end < grid.t_end:
            raise InvalidGrid("chain span does not cover the grid")
        jumps = chain.jump_times
        jumps = jumps[(jumps > grid.t0) & (jumps < grid.t_end)]
        if jumps.size:
            times = np.union1d(times, jumps)
    dw, dz = sample_increments(np.diff(times), m, rng)
    return NoisePath(times, dw, dz)


_HEADER = struct.Struct("<QQ")


def dump_noise(path: NoisePath, file) -> None:
    """Write a path as little-endian doubles.

    Layout: two uint64 (grid time count, dimensions), the grid times, then
    dW and dZ row major.
    """
    close = False
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        file = open(file, "wb")
        close = True
    try:
        file.write(_HEADER.pack(path.times.size, path.m))
        file.write(np.ascontiguousarray(path.times, dtype="<f8").tobytes())
        file.write(np.ascontiguousarray(path.dw, dtype="<f8").tobytes())
        file.write(np.ascontiguousarray(path.dz, dtype="<f8").tobytes())
    finally:
        if close:
            file.close()


def load_noise(file) -> NoisePath:
    """Read a path written by dump_noise."""
    close = False
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        file = open(file, "rb")
        close = True
    try:
        n_times, m = _HEADER.unpack(_read_exactly(file, _HEADER.size, "header"))
        if n_times < 2:
            raise InvalidGrid(
                "noise file declares %d grid times, a path needs at least 2" % n_times
            )
        times = np.frombuffer(_read_exactly(file, 8 * n_times, "grid times"), dtype="<f8")
        n = n_times - 1
        dw = np.frombuffer(_read_exactly(file, 8 * n * m, "dW"), dtype="<f8").reshape(n, m)
        dz = np.frombuffer(_read_exactly(file, 8 * n * m, "dZ"), dtype="<f8").reshape(n, m)
    finally:
        if close:
            file.close()
    return NoisePath(times.copy(), dw.copy(), dz.copy())


def _read_exactly(file, size: int, part: str) -> bytes:
    data = file.read(size)
    if len(data) != size:
        raise TruncatedNoiseFile(
            "noise file ends inside the %s: expected %d bytes, got %d" % (part, size, len(data))
        )
    return data
