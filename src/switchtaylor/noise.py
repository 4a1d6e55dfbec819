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
for bridge corrections later.  The merge inserts each jump time that is not
already a grid time in front of the first grid time above it, which sorts
the few jumps in without sorting the grid.  Sampling order is fixed: one
draw of shape (intervals, dimensions, 2) filled in C order.

Increments over coarser spans are exact sums of the stored fine data,
composed through precomputed prefix sums, so the nesting identities hold to
floating-point accumulation accuracy (about 1e-12 over thousands of
intervals) with no discretization error.  ``window_aggregates`` holds the
one formula for dW and dZ over a window; it takes prefix sums with leading
batch axes, so a caller that gathered them for many paths with
``NoisePath.prefix_sums`` aggregates the whole batch at once.
``NoisePath.step_aggregates`` is its view on one path, and
``NoisePath.w_many`` reads W itself at grid times.  Array inputs are read
through the rules of ``_values``: grid times, increments and interval
lengths that are not numbers raise ``InvalidGrid``, query times
``NotAGridTime``.  The benchmark's per-layer tracer
(``perfbench/layers.py``) wraps ``step_aggregates`` by name, so that name
stays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _values
from .errors import IntervalOutOfRange, InvalidGrid, NonFiniteInput, NotAGridTime
from .markov_chain import ChainPath

__all__ = [
    "GridSpec",
    "NoisePath",
    "window_aggregates",
    "sample_increments",
    "build_noise",
]

_SQRT3 = np.sqrt(3.0)


@dataclass(frozen=True)
class GridSpec:
    """A uniform grid of ``n`` intervals on [t0, t_end].

    Coarser grids are strided slices of ``finest_times()``, so shared points
    are equal bitwise, not merely approximately.  The times are built once,
    read-only, and take no part in ``repr`` or ``==``.  ``n`` is an int from
    1 to 2**53, not a float; one too large for memory raises ``InvalidGrid``.
    """

    t0: float
    t_end: float
    n: int
    _times: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for end in ("t0", "t_end"):
            value = getattr(self, end)
            if not np.isfinite(_values.number(value)):
                raise InvalidGrid("%s must be a finite real number, got %r" % (end, value))
            object.__setattr__(self, end, _values.number(value))
        if not self.t0 < self.t_end:
            raise InvalidGrid("need t0 < t_end, got %r and %r" % (self.t0, self.t_end))
        n = _values.count(self.n, "the interval count", InvalidGrid)
        object.__setattr__(self, "n", n)
        try:
            times = self.t0 + (self.t_end - self.t0) * np.arange(n + 1) / n
        except MemoryError:
            raise InvalidGrid("the interval count %d does not fit in memory" % n) from None
        times[-1] = self.t_end
        times.setflags(write=False)
        object.__setattr__(self, "_times", times)

    def finest_times(self) -> np.ndarray:
        """The n + 1 grid times, one read-only array shared by every call."""
        return self._times


def sample_increments(deltas, m: int, rng: np.random.Generator):
    """Draw (dW, dZ) for a vector of interval lengths.

    Args:
      deltas: positive interval lengths, shape (n,).
      m: number of Wiener dimensions.
      rng: numpy Generator.

    Returns:
      (dw, dz) arrays of shape (n, m).
    """
    deltas = _values.floats(deltas, "interval lengths", InvalidGrid)
    if deltas.ndim != 1 or not ((deltas > 0) & (deltas < np.inf)).all():
        raise InvalidGrid("interval lengths must be positive and finite")
    _values.count(m, "the count of Wiener dimensions", InvalidGrid)
    g = rng.standard_normal((deltas.size, m, 2))
    root = np.sqrt(deltas)
    dw = root[:, None] * g[:, :, 0]
    dz = (deltas * root)[:, None] * (0.5 * g[:, :, 0] + (0.5 / _SQRT3) * g[:, :, 1])
    return dw, dz


class NoisePath:
    """Sampled increments on a merged grid, with prefix sums for aggregation.

    Attributes:
      times: grid times, shape (n+1,), finite and strictly increasing.
      dw, dz: per-interval increments, shape (n, m), finite.
    """

    def __init__(self, times: np.ndarray, dw: np.ndarray, dz: np.ndarray):
        times = _values.times(times, "grid times", InvalidGrid)
        dw = _values.floats(dw, "dW", InvalidGrid)
        dz = _values.floats(dz, "dZ", InvalidGrid)
        if dw.shape != dz.shape or dw.ndim != 2 or dw.shape[0] != times.size - 1:
            raise InvalidGrid("increment arrays must be (intervals, dimensions)")
        if dw.shape[1] < 1:
            raise InvalidGrid("a noise path needs at least one Wiener dimension")
        if not (np.isfinite(dw).all() and np.isfinite(dz).all()):
            raise NonFiniteInput("noise increments dW and dZ must be finite")
        self.times = times
        self.dw = dw
        self.dz = dz
        n, m = dw.shape
        # W(t) - W(t0), running sum of dZ, running integral of W dt: one block
        sums = np.zeros((3, n + 1, m))
        np.add.accumulate(dw, axis=0, out=sums[0, 1:])
        np.add.accumulate(dz, axis=0, out=sums[1, 1:])
        deltas = times[1:] - times[:-1]
        np.add.accumulate(sums[0, :-1] * deltas[:, None], axis=0, out=sums[2, 1:])
        self._w, self._zsum, self._wdt = sums

    @property
    def m(self) -> int:
        return self.dw.shape[1]

    def grid_indices(self, times) -> np.ndarray:
        """Grid indices of an array of times; every entry must be a grid time."""
        times = _values.floats(times, "query times", NotAGridTime).reshape(-1)
        # a time past the end clips to the last grid time; NaN sorts last
        idx = self.times.searchsorted(times)
        bad = self.times.take(idx, mode="clip") != times
        if bad.any():
            raise NotAGridTime(
                "%r is not a grid time of this path" % (times[bad][0],)
            )
        return idx

    def w_many(self, times) -> np.ndarray:
        """W(t) - W(t0) for an array of grid times; shape (len(times), m)."""
        return self._w[self.grid_indices(times)]

    def prefix_sums(self, times):
        """(W, running sum of dZ, running integral of W dt) at an array of
        grid times, each (len(times), m): the inputs of ``window_aggregates``."""
        idx = self.grid_indices(times)
        return self._w[idx], self._zsum[idx], self._wdt[idx]

    def step_aggregates(self, edges):
        """Per-window increments over consecutive grid-time edges.

        Given n + 1 nondecreasing grid times, returns (dw, dz) of shape
        (n, m) where dw[i] spans (edges[i], edges[i+1]) and dz[i] is the
        matching time integral of W(u) - W(edges[i]).
        """
        idx = self.grid_indices(edges)
        if np.any(np.diff(idx) < 0):
            raise IntervalOutOfRange("edges must be nondecreasing")
        return window_aggregates(self._w, self._zsum, self._wdt, self.times, idx[:-1], idx[1:])


def window_aggregates(w, zsum, wdt, times, lo, hi, out=None):
    """(dW, dZ) over windows from prefix sums on a grid: the one formula.

    ``w``, ``zsum`` and ``wdt`` hold W - W(t0), the running sum of dZ and
    the running integral of W dt at the grid ``times``, along their
    second-last axis; leading axes are batch axes and the last one holds
    the m dimensions.  ``lo`` and ``hi`` index the window edges along the
    grid axis (integer arrays or slices of equal length).  ``out`` is an
    optional (dw, dz) pair of arrays the results are written into.

    The term order is fixed, so equal inputs give equal bits whatever the
    batch layout:  dz = ((zsum_hi - zsum_lo) + wdt_hi - wdt_lo) - w_lo dt.
    """
    dw_out, dz_out = (None, None) if out is None else out
    w_lo = w[..., lo, :]
    # w_lo dt is staged in the dw buffer before dw itself, so a batch of
    # windows needs no temporary of the output's size
    dw = np.multiply(w_lo, (times[hi] - times[lo])[:, None], out=dw_out)
    dz = np.subtract(zsum[..., hi, :], zsum[..., lo, :], out=dz_out)
    dz += wdt[..., hi, :]
    dz -= wdt[..., lo, :]
    dz -= dw
    np.subtract(w[..., hi, :], w_lo, out=dw)
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
            at = np.searchsorted(times, jumps)
            off = times[at] != jumps
            times = np.insert(times, at[off], jumps[off])
    dw, dz = sample_increments(times[1:] - times[:-1], m, rng)
    return NoisePath(times, dw, dz)

