"""Built-in test models with analytic derivatives.

Four fixtures, each a ready ModelSpec:

- ``linear2``: scalar geometric dynamics, two regimes with different drift
  and volatility rates: the d = 1 diagonal linear set.  The workhorse for
  convergence studies.
- ``diagonal3``: two-dimensional diagonal linear dynamics under a three-state
  chain.  Diagonal noise keeps both exchange identities exact.
- ``additive``: scalar mean reversion with regime-dependent constant noise.
  First-order noise terms vanish, so one-step methods coincide.
- ``noncommutative``: scalar state driven by two Wiener dimensions with
  columns x^2 and x.  Violates the exchange identities; used to test that
  higher-order schemes refuse it.

All coefficient sets are plain picklable dataclasses.  The rate-table sets
read their tables through ``_values.floats`` (``InvalidCoefficients``).
Each implements the one ``jet`` method of ``CoefficientSet`` and gathers
each rate table once per call; their ``m0`` is the table row count, so
``CoefficientSet._check`` refuses a label outside 1..m0 before any gather.
The diagonal linear set builds its per-regime jet tables (sigma per unit
state, Db and D sigma) once at construction, so its ``jet`` makes one gather
per table and scales sigma by the state.  Each per-regime table has a row 0
on top only so that a 1-based label indexes its row directly, with no label
shift per call; it is NaN, and no checked label reads it.  Zero Hessians are
read-only blocks built once per shape.  One stacked table read through
views was measured slower: at batch width 512 its strided views cost more
than the separate gathers.  The diagonal linear set also has ``exact``:
with diagonal noise and rates frozen between switches, each coordinate is a
geometric Brownian motion, so the strong solution on a grid that holds every
switch time is x0 exp(sum of (a - c^2 / 2) dt + c dW) over its intervals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import _values
from .errors import (
    DimensionMismatch,
    InvalidCoefficients,
    InvalidGrid,
    UnknownFixture,
)
from .markov_chain import GeneratorMatrix
from .model import CoefficientSet, ModelSpec

__all__ = [
    "DiagonalLinearCoefficients",
    "MeanRevertingCoefficients",
    "PolynomialColumnsCoefficients",
    "fixture",
    "fixture_names",
]


def _labelled(table):
    # a per-regime table (m0, ...) with a NaN row 0 on top, the 1-based offset
    # that lets a checked label index its regime's row directly
    return np.concatenate([np.full((1,) + table.shape[1:], np.nan), table])


@lru_cache(maxsize=8)
def _flat(B, d, m):
    # second derivatives of coefficients that are affine in the state: zero,
    # read-only and contiguous (count_nonzero over a broadcast zero is twice
    # as slow at batch width 512), so one block per shape serves every call
    out = np.zeros((B, d, d, d)), np.zeros((B, d, m, d, d))
    for part in out:
        part.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class DiagonalLinearCoefficients(CoefficientSet):
    """d = m, drift A[i,k] x^k per coordinate, diffusion diag(C[i,k] x^k).

    Compares and hashes by identity; nothing compares coefficient sets by value.
    """

    a: np.ndarray
    c: np.ndarray
    d: int = field(init=False)
    m: int = field(init=False)
    # per-regime jet tables, built once and labelled: a (d,), diag(c) (d, d),
    # which jet scales by x column-wise into sigma, Db = diag(a) (d, d),
    # D sigma (d, d, d) with [k, k, k] = c_k, and c (d,) for exact
    _tables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a = _values.floats(self.a, "drift rates a", InvalidCoefficients)
        c = _values.floats(self.c, "diffusion rates c", InvalidCoefficients)
        if a.ndim != 2 or a.shape != c.shape:
            raise DimensionMismatch(
                "rate tables must share shape (m0, d), got %s and %s" % (a.shape, c.shape)
            )
        m0, d = a.shape
        idx = np.arange(d)
        sig = np.zeros((m0, d, d))
        sig[:, idx, idx] = c
        db = np.zeros((m0, d, d))
        db[:, idx, idx] = a
        dsig = np.zeros((m0, d, d, d))
        dsig[:, idx, idx, idx] = c
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "m", d)
        object.__setattr__(self, "m0", m0)
        tables = tuple(_labelled(t) for t in (a, sig, db, dsig, c))
        object.__setattr__(self, "_tables", tables)

    def jet(self, X, regimes, order):
        self._check(X, regimes, order)
        a, sig, db, dsig, _ = self._tables
        a, sig = a.take(regimes, 0), sig.take(regimes, 0)
        derivatives = (db.take(regimes, 0), dsig.take(regimes, 0)) if order else ()
        out = (a * X, sig * X[:, None, :]) + derivatives
        if order == 2:
            out += _flat(X.shape[0], self.d, self.d)
        return out

    def exact(self, x0, regimes, dt, dw):
        """The strong solution at the interval ends; see ``CoefficientSet``."""
        dt = _values.floats(dt, "interval lengths dt", InvalidGrid)
        dw = _values.floats(dw, "Wiener increments dw", InvalidGrid)
        self._check(x0, regimes, 0, 2)
        if dt.shape != regimes.shape or dw.shape != dt.shape + (self.d,):
            got = "dt %s and dw %s" % (dt.shape, dw.shape)
            raise DimensionMismatch("%s do not fit regime labels %s" % (got, regimes.shape))
        # one log-increment per interval, one cumulative sum and one exp for
        # the whole batch
        a, c = self._tables[0].take(regimes, 0), self._tables[4].take(regimes, 0)
        log = (a - 0.5 * c * c) * dt[..., None] + c * dw
        return x0[:, None, :] * np.exp(np.cumsum(log, axis=1))


@dataclass(frozen=True, eq=False)
class MeanRevertingCoefficients(CoefficientSet):
    """d = m = 1, drift theta_i (mu_i - x), constant diffusion c_i.

    Compares and hashes by identity; nothing compares coefficient sets by value.
    """

    theta: np.ndarray
    mean: np.ndarray
    c: np.ndarray
    d: int = field(default=1, init=False)
    m: int = field(default=1, init=False)
    # theta, mu and c as (m0, 1) columns, labelled
    _tables: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("theta", "mean", "c"):
            table = _values.floats(getattr(self, name), "rate table " + name, InvalidCoefficients)
            object.__setattr__(self, name, table.reshape(-1))
        sizes = (self.theta.size, self.mean.size, self.c.size)
        if len(set(sizes)) > 1:
            raise DimensionMismatch("theta, mean and c have %d, %d and %d entries" % sizes)
        tables = tuple(_labelled(t[:, None]) for t in (self.theta, self.mean, self.c))
        object.__setattr__(self, "_tables", tables)
        object.__setattr__(self, "m0", sizes[0])

    def jet(self, X, regimes, order):
        self._check(X, regimes, order)
        th, mu, c = self._tables
        th, mu, c = th.take(regimes, 0), mu.take(regimes, 0), c.take(regimes, 0)
        out = (th * (mu - X), c[:, :, None])
        if order >= 1:
            out += (-th[:, :, None], np.zeros((X.shape[0], 1, 1, 1)))
        if order == 2:
            out += _flat(X.shape[0], 1, 1)
        return out


@dataclass(frozen=True)
class PolynomialColumnsCoefficients(CoefficientSet):
    """d = 1, m = 2, diffusion columns (x^2, x), drift -x/2.

    The noise operators of the two columns do not exchange, which makes this
    the canonical rejection case for methods that need them to.
    """

    d: int = field(default=1, init=False)
    m: int = field(default=2, init=False)

    def jet(self, X, regimes, order):
        self._check(X, regimes, order)
        B = X.shape[0]
        x = X[:, 0]
        sig = np.empty((B, 1, 2))
        sig[:, 0, 0] = x**2
        sig[:, 0, 1] = x
        out = (-0.5 * X, sig)
        if order >= 1:
            dsig = np.empty((B, 1, 2, 1))
            dsig[:, 0, 0, 0] = 2.0 * x
            dsig[:, 0, 1, 0] = 1.0
            out += (np.full((B, 1, 1), -0.5), dsig)
        if order == 2:
            hsig = np.zeros((B, 1, 2, 1, 1))
            hsig[:, 0, 0, 0, 0] = 2.0
            out += (np.zeros((B, 1, 1, 1)), hsig)
        return out


_TWO_STATE = GeneratorMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))

_THREE_STATE = GeneratorMatrix(
    np.array(
        [
            [-2.0, 1.5, 0.5],
            [0.5, -1.0, 0.5],
            [1.0, 2.0, -3.0],
        ]
    )
)


def _make_linear2() -> ModelSpec:
    return ModelSpec(
        name="linear2",
        generator=_TWO_STATE,
        coefficients=DiagonalLinearCoefficients(a=[[-1.0], [0.5]], c=[[0.3], [0.8]]),
        x0=[1.0],
    )


def _make_diagonal3() -> ModelSpec:
    return ModelSpec(
        name="diagonal3",
        generator=_THREE_STATE,
        coefficients=DiagonalLinearCoefficients(
            a=[[-0.5, -1.0], [0.25, -0.75], [-1.5, 0.5]],
            c=[[0.2, 0.4], [0.5, 0.1], [0.3, 0.6]],
        ),
        x0=[1.0, 0.5],
    )


def _make_additive() -> ModelSpec:
    return ModelSpec(
        name="additive",
        generator=_TWO_STATE,
        coefficients=MeanRevertingCoefficients(
            theta=[1.0, 2.0], mean=[0.5, -0.25], c=[0.4, 0.9]
        ),
        x0=[0.2],
    )


def _make_noncommutative() -> ModelSpec:
    return ModelSpec(
        name="noncommutative",
        generator=_TWO_STATE,
        coefficients=PolynomialColumnsCoefficients(),
        x0=[0.8],
    )


_BUILDERS = {
    "linear2": _make_linear2,
    "diagonal3": _make_diagonal3,
    "additive": _make_additive,
    "noncommutative": _make_noncommutative,
}


def fixture_names() -> tuple:
    """Names accepted by fixture(), in a stable order."""
    return tuple(sorted(_BUILDERS))


def fixture(name: str) -> ModelSpec:
    """Build a fresh fixture model by name.

    Raises:
      UnknownFixture: name not in fixture_names().
    """
    try:
        builder = _BUILDERS[name]
    except (KeyError, TypeError):
        raise UnknownFixture(
            "unknown fixture %r; available: %s" % (name, ", ".join(fixture_names()))
        ) from None
    return builder()
