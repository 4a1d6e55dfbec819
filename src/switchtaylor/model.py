"""Regime-dependent SDE coefficients and their differential operators.

A model couples a drift b(x, i0) in R^d and a diffusion sigma(x, i0) in
R^(d x m) to a chain on regimes 1..m0.  Two first/second order operators act
on scalar coefficient entries f at a fixed regime:

- the time operator, sum_p b^p d_p f + (1/2) sum_pq (sigma sigma^T)_pq d_pq f,
  attached to time integrals;
- one noise operator per Wiener dimension a, sum_p sigma^(p,a) d_p f,
  attached to integrals against W^a.

The chain cannot be differentiated, so it enters only through the regime at
which the spatial jet of the coefficients is evaluated.  A coefficient set
has one method, ``jet(X, regimes, order)``, evaluated in batch on states of
shape (B, d) with a regime label per row.  It returns the tuple
(b, sigma) at order 0, (b, sigma, Db, D sigma) at order 1 and
(b, sigma, Db, D sigma, D^2 b, D^2 sigma) at order 2, so a caller asks for
exactly the derivatives it contracts.  The package itself reads ``jet``
only.

One private builder per operator takes jet arrays and contracts them, so a
caller that evaluates the jet once can build every operator from it.  The
kernels in ``schemes`` do that once per call at the window-start regime, and
``check_commutativity`` once per regime.  All of them contract through
``_einsum``, which skips numpy's dispatch (see the comment at the builders).

The six per-entry views of ``jet`` on ``CoefficientSet`` (``drift``,
``diffusion``, ``drift_gradient``, ...) and the five public ``op_*``
functions, which evaluate the jet order their operator needs and delegate
to the same builders, have no caller in the package.  They stay because the
benchmark's per-layer tracer (``perfbench/layers.py``) wraps them by name.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _values
from .errors import (
    DimensionMismatch,
    InvalidCoefficients,
    InvalidGenerator,
    InvalidJetOrder,
    NonFiniteInput,
    UnknownRegime,
)
from .markov_chain import GeneratorMatrix

__all__ = [
    "CoefficientSet",
    "CallableCoefficients",
    "check_jet_order",
    "ModelSpec",
    "op_time_drift",
    "op_noise_drift",
    "op_time_diffusion",
    "op_noise_diffusion",
    "op_noise_noise_diffusion",
    "COMMUTATIVITY_TOL",
    "CommutativityReport",
    "check_commutativity",
    "default_probe_points",
]


class CoefficientSet:
    """Batched jet of a drift/diffusion pair: values and spatial derivatives.

    Subclasses set ``d`` (state dimension) and ``m`` (Wiener dimensions) and
    implement ``jet``.  ``X`` has shape (B, d); ``regimes`` is an integer
    array of shape (B,) with 1-based labels.  ``jet(X, regimes, order)``
    returns a tuple of 2 * order + 2 arrays, the first 2 * k + 2 of which
    are the jet of order k:

    - order 0: b (B, d), sigma (B, d, m);
    - order 1 adds Db (B, d, d) with [.., k, p] = d b^k / d x^p and
      D sigma (B, d, m, d) with [.., k, j, p] = d sigma^(k,j) / d x^p;
    - order 2 adds D^2 b (B, d, d, d) and D^2 sigma (B, d, m, d, d), the
      two differentiation axes last.

    The six per-entry methods below are views of ``jet`` that only the
    benchmark's tracer reads; an implementation overrides ``jet`` only, and
    starts it with ``self._check(X, regimes, order)``, as ``exact`` does with
    x0 and its (B, K) labels.  ``_check`` refuses labels that are not
    integers from 1 to ``m0``, the regime count: the table row count on the
    rate-table sets, a plain attribute and no dataclass field, and None, no
    upper bound, on every other set.

    A set whose SDE is solvable path by path may add one optional method,
    ``exact(x0, regimes, dt, dw)``.  It takes start states x0 (B, d) and,
    per path, a run of K intervals of a grid that holds every switch time:
    the regime on each interval (B, K), its length dt (B, K) and its Wiener
    increment dw (B, K, m).  It returns the exact states at the K interval
    ends, (B, K, d).  A zero-length interval with a zero increment leaves a
    state under finite rates unchanged, which lets a batch pad the paths
    that switch less often.  The base class does not define ``exact``.
    """

    d: int
    m: int
    m0 = None

    def jet(self, X, regimes, order: int):
        """(b, sigma), then (Db, D sigma) from order 1, (D^2 b, D^2 sigma) at 2."""
        raise NotImplementedError

    def _check(self, X, regimes, order=0, ndim=1):
        """``check_jet_order(order)``; states that are not (B, d), or labels
        that are not an ``ndim``-D array of B rows, raise DimensionMismatch,
        and labels outside 1..m0 raise UnknownRegime.  Returns the labels."""
        check_jet_order(order)
        if getattr(X, "ndim", 0) != 2 or X.shape[1] != self.d:
            got = getattr(X, "shape", None)
            raise DimensionMismatch("states have shape %s, expected (B, %d)" % (got, self.d))
        if getattr(regimes, "ndim", 0) != ndim or len(regimes) != len(X):
            got = getattr(regimes, "shape", None)
            raise DimensionMismatch(
                "regime labels have shape %s, expected %d-D, one per state row" % (got, ndim)
            )
        return _values.labels(regimes, "regime labels", UnknownRegime, self.m0)

    def drift(self, X, regimes):
        """(B, d) drift values."""
        return self.jet(X, regimes, 0)[0]

    def diffusion(self, X, regimes):
        """(B, d, m) diffusion values."""
        return self.jet(X, regimes, 0)[1]

    def drift_gradient(self, X, regimes):
        """(B, d, d) drift gradient."""
        return self.jet(X, regimes, 1)[2]

    def diffusion_gradient(self, X, regimes):
        """(B, d, m, d) diffusion gradient."""
        return self.jet(X, regimes, 1)[3]

    def drift_hessian(self, X, regimes):
        """(B, d, d, d) drift Hessian."""
        return self.jet(X, regimes, 2)[4]

    def diffusion_hessian(self, X, regimes):
        """(B, d, m, d, d) diffusion Hessian."""
        return self.jet(X, regimes, 2)[5]


def check_jet_order(order) -> None:
    """Refuse a jet order other than the integers 0, 1 and 2 (not bools)."""
    if type(order) is int and 0 <= order <= 2:
        return
    if not (_values.is_int(order) and 0 <= order <= 2):
        raise InvalidJetOrder("a coefficient jet has order 0, 1 or 2, got %r" % (order,))


def _evaluate(fn, x, regime, shape):
    # one call of a per-point coefficient function, checked against its shape
    value = _values.floats(fn(x, regime), "a coefficient function's value", InvalidCoefficients)
    if value.size != np.prod(shape, dtype=int):
        raise DimensionMismatch(
            "coefficient function returned %d values, expected shape %s" % (value.size, shape)
        )
    return value.reshape(shape)


class CallableCoefficients(CoefficientSet):
    """Coefficient set built from plain per-point callables.

    Derivatives fall back to central finite differences with step
    cbrt(machine epsilon) * max(1, |x_p|) per coordinate; second derivatives
    nest the same stencil.  Convenient for ad-hoc models; the built-in
    fixtures ship analytic derivatives instead.  ``d`` and ``m`` are
    counts (``InvalidCoefficients``), and ``jet`` hands each label to the
    functions as an int.
    """

    def __init__(self, drift_fn, diffusion_fn, d: int, m: int):
        self.drift_fn = drift_fn
        self.diffusion_fn = diffusion_fn
        self.d = _values.count(d, "d", InvalidCoefficients)
        self.m = _values.count(m, "m", InvalidCoefficients)
        self._eps = float(np.cbrt(np.finfo(float).eps))

    def jet(self, X, regimes, order):
        labels = self._check(X, regimes, order).tolist()
        drift = self._walk(self.drift_fn, X, labels, (self.d,), order)
        diffusion = self._walk(self.diffusion_fn, X, labels, (self.d, self.m), order)
        return tuple(part for pair in zip(drift, diffusion) for part in pair)

    def _walk(self, fn, X, labels, shape, order):
        # one pass over the rows: value, then the gradient and Hessian
        # stencils around it; the Hessian's centre is the row value
        d = self.d
        out = [np.empty((X.shape[0],) + shape + (d,) * k) for k in range(order + 1)]
        for i in range(X.shape[0]):
            r = labels[i]

            def f(point):
                return _evaluate(fn, point, r, shape)

            x = X[i]
            f0 = out[0][i] = f(x)
            h = self._eps * np.maximum(1.0, np.abs(x))
            e = np.diag(h)  # row p steps h[p] along coordinate p
            for p in range(d if order >= 1 else 0):
                out[1][i, ..., p] = (f(x + e[p]) - f(x - e[p])) / (2.0 * h[p])
            for p in range(d if order == 2 else 0):
                val = (f(x + 2 * e[p]) - 2.0 * f0 + f(x - 2 * e[p])) / (4.0 * h[p] * h[p])
                out[2][i, ..., p, p] = val
                for q in range(p + 1, d):
                    val = (
                        f(x + e[p] + e[q]) - f(x + e[p] - e[q]) - f(x - e[p] + e[q])
                        + f(x - e[p] - e[q])
                    ) / (4.0 * h[p] * h[q])
                    out[2][i, ..., p, q] = val
                    out[2][i, ..., q, p] = val
        return out


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A regime-switching SDE: coefficients, chain generator, start point.

    Models compare and hash by identity; nothing compares them by value.
    """

    name: str
    generator: GeneratorMatrix
    coefficients: CoefficientSet
    x0: np.ndarray
    initial_regime: int = 1

    def __post_init__(self):
        for name, kind, error in (
            ("generator", GeneratorMatrix, InvalidGenerator),
            ("coefficients", CoefficientSet, InvalidCoefficients),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise error("%s is a %s, not a %s" % (name, type(value).__name__, kind.__name__))
        x0 = _values.finite(self.x0, "x0", NonFiniteInput).flatten()
        if x0.size != self.coefficients.d:
            raise DimensionMismatch(
                "x0 has %d entries, coefficients expect %d" % (x0.size, self.coefficients.d)
            )
        _values.label(self.initial_regime, "initial regime", UnknownRegime, self.m0)
        _check_tables(self.coefficients, x0, self.generator.m0)
        x0.setflags(write=False)
        object.__setattr__(self, "x0", x0)

    @property
    def d(self) -> int:
        return self.coefficients.d

    @property
    def m(self) -> int:
        return self.coefficients.m

    @property
    def m0(self) -> int:
        return self.generator.m0


def _check_tables(coeffs: CoefficientSet, x0, m0: int) -> None:
    # the order-0 jet once per regime at x0, so that per-regime tables too
    # short for the generator fail here and not inside a scheme
    d, m = coeffs.d, coeffs.m
    X = np.tile(x0, (m0, 1))
    regimes = np.arange(1, m0 + 1)
    try:
        shapes = tuple(part.shape for part in coeffs.jet(X, regimes, 0))
    except (IndexError, UnknownRegime) as exc:
        raise DimensionMismatch(
            "coefficients cannot be evaluated in all %d regimes of the generator: %s"
            % (m0, exc)
        ) from exc
    if shapes != ((m0, d), (m0, d, m)):
        raise DimensionMismatch(
            "drift and diffusion at %d regimes have shapes %s and %s, expected %s and %s"
            % (m0, shapes[0], shapes[1], (m0, d), (m0, d, m))
        )


# ---------------------------------------------------------------------------
# operators built from coefficient jet arrays
#
# Matrix-matrix contractions use stacked matmul; contractions against a
# single vector keep the two-operand einsum, which measures faster at these
# sizes, and which matmul does not reproduce bit for bit: on random full
# (non-diagonal) sigma and dW with m >= 2, sigma @ dW differed from einsum in
# the last bits in 331 of 600 cases, most likely from fused multiply-adds.
# The builders that read a second derivative take None for one that is
# zero and then return their first-derivative term alone: the 1.5 kernel
# passes None for a Hessian that is zero in every entry of its call, as it
# is for regime-wise affine coefficients, and then builds no covariance
# unless the other Hessian needs it.  The skipped terms are exact zeros.
#
# _einsum and _count_nonzero are what ndarray.__array_function__ calls after
# numpy's NEP 18 dispatch, which they skip at the same bits for the ndarrays
# passed here: a width-1 contraction on diagonal3 takes 1.42 us, not 2.06 us.
_einsum = np.einsum._implementation
_count_nonzero = np.count_nonzero._implementation


def _covariance(sig):
    # (sigma sigma^T)[.., p, q]; matmul on a transposed view measures twice
    # as slow as on a contiguous copy
    return sig @ np.ascontiguousarray(sig.transpose(0, 2, 1))


def _time_drift(b, db, hb, cov):
    out = _einsum("bp,bkp->bk", b, db)
    if hb is not None:
        out += 0.5 * _einsum("bpq,bkpq->bk", cov, hb)
    return out


def _noise_drift(db, sig):
    return db @ sig


def _time_diffusion(b, dsig, hsig, cov):
    out = _einsum("bp,bkjp->bkj", b, dsig)
    if hsig is not None:
        out += 0.5 * _einsum("bpq,bkjpq->bkj", cov, hsig)
    return out


def _noise_diffusion(dsig, sig_op):
    B, d, m = dsig.shape[:3]
    return (dsig.reshape(B, d * m, d) @ sig_op).reshape(B, d, m, m)


def _noise_noise_diffusion(sig, dsig, hsig, lj):
    # chain rule: D sigma contracted with L^a sigma = D sigma . sigma;
    # curvature: D^2 sigma contracted with sigma[p, a] sigma[q, c]
    B, d, m = dsig.shape[:3]
    out = dsig.reshape(B, d * m, d) @ lj.reshape(B, d, m * m)
    if hsig is not None:
        pairs = sig[:, :, None, :, None] * sig[:, None, :, None, :]
        out += hsig.reshape(B, d * m, d * d) @ pairs.reshape(B, d * d, m * m)
    return out.reshape(B, d, m, m, m)


# ---------------------------------------------------------------------------
# batched operator actions


def op_time_drift(coeffs: CoefficientSet, X, regimes):
    """Time operator applied to every drift entry; shape (B, d)."""
    b, sig, db, _, hb, _ = coeffs.jet(X, regimes, 2)
    return _time_drift(b, db, hb, _covariance(sig))


def op_noise_drift(coeffs: CoefficientSet, X, regimes):
    """Noise operators applied to the drift; shape (B, d, m), last axis = a."""
    _, sig, db, _ = coeffs.jet(X, regimes, 1)
    return _noise_drift(db, sig)


def op_time_diffusion(coeffs: CoefficientSet, X, regimes):
    """Time operator applied to every diffusion entry; shape (B, d, m)."""
    b, sig, _, dsig, _, hsig = coeffs.jet(X, regimes, 2)
    return _time_diffusion(b, dsig, hsig, _covariance(sig))


def op_noise_diffusion(coeffs: CoefficientSet, X, regimes):
    """Noise operators applied to the diffusion; shape (B, d, m, m).

    Entry [.., k, j, a] applies the noise operator of Wiener dimension a to
    sigma^(k,j).
    """
    _, sig, _, dsig = coeffs.jet(X, regimes, 1)
    return _noise_diffusion(dsig, sig)


def op_noise_noise_diffusion(coeffs: CoefficientSet, X, regimes):
    """Two nested noise operators on the diffusion; shape (B, d, m, m, m).

    Entry [.., k, j, a, c] applies first the operator of dimension a, then
    the operator of dimension c, to sigma^(k,j).
    """
    _, sig, _, dsig, _, hsig = coeffs.jet(X, regimes, 2)
    return _noise_noise_diffusion(sig, dsig, hsig, _noise_diffusion(dsig, sig))


# ---------------------------------------------------------------------------
# commutativity of the noise columns

# largest gap at which an exchange identity counts as holding
COMMUTATIVITY_TOL = 1e-8


@dataclass(frozen=True)
class CommutativityReport:
    """Largest observed gaps in the two exchange identities.

    first_order_gap:  max |L^a sigma^(k,j) - L^j sigma^(k,a)|.
    second_order_gap: max |L^c L^a sigma^(k,j) - L^a L^c sigma^(k,j)|.
    Both maxima run over the probe points, regimes and index choices.
    """

    first_order_gap: float
    second_order_gap: float
    points_checked: int

    def satisfied(self, order: int) -> bool:
        """True when the identities needed up to the given nesting hold
        within COMMUTATIVITY_TOL."""
        if order <= 0:
            return True
        if self.first_order_gap > COMMUTATIVITY_TOL:
            return False
        return order < 2 or self.second_order_gap <= COMMUTATIVITY_TOL


def default_probe_points(model: ModelSpec) -> np.ndarray:
    """A small deterministic cloud of states around the start point."""
    x0 = model.x0
    scale = 1.0 + np.abs(x0)
    offsets = [np.zeros(model.d)]
    for p in range(model.d):
        e = np.zeros(model.d)
        e[p] = 1.0
        offsets.append(0.6 * scale * e)
        offsets.append(-0.45 * scale * e)
    offsets.append(0.3 * scale)
    offsets.append(-0.7 * scale)
    return x0 + np.array(offsets)


def check_commutativity(model: ModelSpec, points=None) -> CommutativityReport:
    """Probe the noise-column exchange identities on a cloud of states.

    Args:
      model: model to probe.
      points: optional (n, d) array of states; defaults to a deterministic
        cloud around the model's start point.

    Returns:
      CommutativityReport with the largest gaps found.
    """
    if points is None:
        points = default_probe_points(model)
    points = np.atleast_2d(_values.finite(points, "probe points", NonFiniteInput))
    if points.ndim != 2 or points.shape[1] != model.d or points.shape[0] == 0:
        raise DimensionMismatch(
            "probe points have shape %s, expected (n, %d) with n >= 1" % (points.shape, model.d)
        )
    coeffs = model.coefficients
    gap1 = 0.0
    gap2 = 0.0
    for regime in range(1, model.m0 + 1):
        _, sig, _, dsig, _, hsig = coeffs.jet(points, np.full(points.shape[0], regime), 2)
        t1 = _noise_diffusion(dsig, sig)
        gap1 = max(gap1, float(np.abs(t1 - t1.transpose(0, 1, 3, 2)).max()))
        t2 = _noise_noise_diffusion(sig, dsig, hsig, t1)
        gap2 = max(gap2, float(np.abs(t2 - t2.transpose(0, 1, 2, 4, 3)).max()))
    return CommutativityReport(gap1, gap2, points.shape[0] * model.m0)
