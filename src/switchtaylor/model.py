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
exactly the derivatives it contracts.  The six per-entry names ``drift``,
``diffusion``, ``drift_gradient``, ... are views of ``jet`` for callers
outside the package; the package itself reads ``jet`` only.

One private builder per operator takes jet arrays and contracts them, so a
caller that evaluates the jet once can build every operator from it.  The
kernels in ``schemes`` do that once per call at the window-start regime.
The public ``op_*`` functions evaluate the jet order their operator needs
and delegate to the same builders, as do ``apply_word`` and
``check_commutativity``.

``apply_word`` applies the operator word of an integral label to a single
coefficient entry.  Supported words: the empty word, (0), (a), and (a1, a2)
with Wiener letters; longer or mixed words would need third derivatives and
are refused.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidComponent,
    InvalidJetOrder,
    NonFiniteInput,
    UnknownRegime,
    UnsupportedWordLength,
)
from .markov_chain import GeneratorMatrix
from .multi_index import ComponentKind, MultiIndex

__all__ = [
    "CoefficientSet",
    "CallableCoefficients",
    "check_jet_order",
    "ModelSpec",
    "eval_drift",
    "eval_diffusion",
    "op_time_drift",
    "op_noise_drift",
    "op_time_diffusion",
    "op_noise_diffusion",
    "op_noise_noise_diffusion",
    "apply_word",
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

    The six per-entry methods below are views of ``jet`` for callers outside
    the package; an implementation overrides ``jet`` only, and starts it
    with ``check_jet_order(order)``.

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

    def jet(self, X, regimes, order: int):
        """(b, sigma), then (Db, D sigma) from order 1, (D^2 b, D^2 sigma) at 2."""
        raise NotImplementedError

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
    if isinstance(order, bool) or not (isinstance(order, numbers.Integral) and 0 <= order <= 2):
        raise InvalidJetOrder("a coefficient jet has order 0, 1 or 2, got %r" % (order,))


def _evaluate(fn, x, regime, shape):
    # one call of a per-point coefficient function, checked against its shape
    value = np.asarray(fn(x, regime), dtype=float)
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
    fixtures ship analytic derivatives instead.
    """

    def __init__(self, drift_fn, diffusion_fn, d: int, m: int):
        self.drift_fn = drift_fn
        self.diffusion_fn = diffusion_fn
        self.d = int(d)
        self.m = int(m)
        self._eps = float(np.cbrt(np.finfo(float).eps))

    def jet(self, X, regimes, order):
        check_jet_order(order)
        drift = self._walk(self.drift_fn, X, regimes, (self.d,), order)
        diffusion = self._walk(self.diffusion_fn, X, regimes, (self.d, self.m), order)
        return tuple(part for pair in zip(drift, diffusion) for part in pair)

    def _walk(self, fn, X, regimes, shape, order):
        # one pass over the rows: value, then the gradient and Hessian
        # stencils around it; the Hessian's centre is the row value
        d = self.d
        out = [np.empty((X.shape[0],) + shape + (d,) * k) for k in range(order + 1)]
        for i in range(X.shape[0]):
            r = int(regimes[i])

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


@dataclass(frozen=True)
class ModelSpec:
    """A regime-switching SDE: coefficients, chain generator, start point."""

    name: str
    generator: GeneratorMatrix
    coefficients: CoefficientSet
    x0: np.ndarray
    initial_regime: int = 1

    def __post_init__(self):
        x0 = np.array(self.x0, dtype=float).reshape(-1)
        if x0.size != self.coefficients.d:
            raise DimensionMismatch(
                "x0 has %d entries, coefficients expect %d" % (x0.size, self.coefficients.d)
            )
        if not np.isfinite(x0).all():
            raise NonFiniteInput("x0 must be finite")
        _check_regime(self.initial_regime, self.generator.m0, "initial regime")
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
    except IndexError as exc:
        raise DimensionMismatch(
            "coefficients cannot be evaluated in all %d regimes of the generator: %s"
            % (m0, exc)
        ) from exc
    if shapes != ((m0, d), (m0, d, m)):
        raise DimensionMismatch(
            "drift and diffusion at %d regimes have shapes %s and %s, expected %s and %s"
            % (m0, shapes[0], shapes[1], (m0, d), (m0, d, m))
        )


def _check_regime(regime, m0: int, what: str = "regime") -> None:
    # an integer label in 1..m0; a float such as 1.5 would index as 1
    if not isinstance(regime, numbers.Integral) or not 1 <= regime <= m0:
        raise UnknownRegime("%s %r outside 1..%d" % (what, regime, m0))


def _check_point(model: ModelSpec, x, regime: int):
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != model.d:
        raise DimensionMismatch("state has %d entries, expected %d" % (x.size, model.d))
    if not np.isfinite(x).all():
        raise NonFiniteInput("state contains NaN or infinity")
    _check_regime(regime, model.m0)
    return x


def eval_drift(model: ModelSpec, x, regime: int) -> np.ndarray:
    """Drift vector b(x, regime), shape (d,)."""
    x = _check_point(model, x, regime)
    return model.coefficients.jet(x[None, :], np.array([regime]), 0)[0][0]


def eval_diffusion(model: ModelSpec, x, regime: int) -> np.ndarray:
    """Diffusion matrix sigma(x, regime), shape (d, m)."""
    x = _check_point(model, x, regime)
    return model.coefficients.jet(x[None, :], np.array([regime]), 0)[1][0]


# ---------------------------------------------------------------------------
# operators built from coefficient jet arrays
#
# Matrix-matrix contractions use stacked matmul; contractions against a
# single vector keep the two-operand einsum, which measures faster at these
# sizes.


def _covariance(sig):
    # (sigma sigma^T)[.., p, q]; matmul on a transposed view measures twice
    # as slow as on a contiguous copy
    return sig @ np.ascontiguousarray(sig.transpose(0, 2, 1))


def _time_drift(b, db, hb, cov):
    return np.einsum("bp,bkp->bk", b, db) + 0.5 * np.einsum("bpq,bkpq->bk", cov, hb)


def _noise_drift(db, sig):
    return db @ sig


def _time_diffusion(b, dsig, hsig, cov):
    return np.einsum("bp,bkjp->bkj", b, dsig) + 0.5 * np.einsum("bpq,bkjpq->bkj", cov, hsig)


def _noise_diffusion(dsig, sig_op):
    B, d, m = dsig.shape[:3]
    return (dsig.reshape(B, d * m, d) @ sig_op).reshape(B, d, m, m)


def _noise_noise_diffusion(sig, dsig, hsig, lj):
    # chain rule: D sigma contracted with L^a sigma = D sigma . sigma;
    # curvature: D^2 sigma contracted with sigma[p, a] sigma[q, c]
    B, d, m = dsig.shape[:3]
    chain_rule = dsig.reshape(B, d * m, d) @ lj.reshape(B, d, m * m)
    pairs = sig[:, :, None, :, None] * sig[:, None, :, None, :]
    curvature = hsig.reshape(B, d * m, d * d) @ pairs.reshape(B, d * d, m * m)
    return (chain_rule + curvature).reshape(B, d, m, m, m)


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


def op_noise_diffusion(coeffs: CoefficientSet, X, regimes, op_regimes=None):
    """Noise operators applied to the diffusion; shape (B, d, m, m).

    Entry [.., k, j, a] applies the noise operator of Wiener dimension a to
    sigma^(k,j).  When ``op_regimes`` is given, the operator's own diffusion
    coefficients are taken at those regimes while the target entry stays at
    ``regimes``; the one-jump correction terms need that split.
    """
    _, sig, _, dsig = coeffs.jet(X, regimes, 1)
    if op_regimes is not None:
        sig = coeffs.jet(X, op_regimes, 0)[1]
    return _noise_diffusion(dsig, sig)


def op_noise_noise_diffusion(coeffs: CoefficientSet, X, regimes):
    """Two nested noise operators on the diffusion; shape (B, d, m, m, m).

    Entry [.., k, j, a, c] applies first the operator of dimension a, then
    the operator of dimension c, to sigma^(k,j).
    """
    _, sig, _, dsig, _, hsig = coeffs.jet(X, regimes, 2)
    return _noise_noise_diffusion(sig, dsig, hsig, _noise_diffusion(dsig, sig))


# ---------------------------------------------------------------------------
# operator words on single entries


def apply_word(
    model: ModelSpec,
    index: MultiIndex,
    target: tuple,
    x,
    regime: int,
    operator_regime: int | None = None,
) -> float:
    """Apply the operator word of an integral label to one coefficient entry.

    The word is applied right to left: the last letter acts first.  The
    target is ("drift", k) or ("diffusion", k, j) with 1-based indices.
    ``operator_regime`` evaluates the operator's own coefficients at a
    different regime than the target entry; it is honored for single
    Wiener-letter words only, which is the shape the jump corrections need.

    Raises:
      UnsupportedWordLength: word outside the catalogue {empty, (0), (a),
        (a1, a2)}; time letters cannot be outermost in a two-letter word.
    """
    x = _check_point(model, x, regime)
    if operator_regime is not None:
        _check_regime(operator_regime, model.m0, "operator regime")
    kind = target[0]
    bounds = {"drift": (model.d,), "diffusion": (model.d, model.m)}.get(kind)
    if bounds is None:
        raise UnsupportedWordLength("unknown target %r" % (kind,))
    entry = tuple(target[1:])
    if len(entry) != len(bounds) or not all(
        isinstance(i, numbers.Integral) and 1 <= i <= n for i, n in zip(entry, bounds)
    ):
        raise DimensionMismatch(
            "%s entry %r outside %s" % (kind, entry, " x ".join("1..%d" % n for n in bounds))
        )
    # the entry's position in a batch of one, ahead of any operator axes
    at = (0,) + tuple(i - 1 for i in entry)

    comps = index.components
    letters = [c for c in comps]
    if any(c.kind not in (ComponentKind.TIME, ComponentKind.WIENER) for c in letters):
        raise UnsupportedWordLength(
            "operator words contain time and Wiener letters only, got %s" % (index,)
        )
    for c in letters:
        if c.kind is ComponentKind.WIENER and c.index > model.m:
            raise InvalidComponent("Wiener letter %s outside 1..%d" % (c.tag, model.m))
    if operator_regime is not None and not (
        len(letters) == 1 and letters[0].kind is ComponentKind.WIENER
    ):
        raise UnsupportedWordLength(
            "a split operator regime applies to single Wiener-letter words only"
        )

    X = x[None, :]
    R = np.array([regime])
    coeffs = model.coefficients

    if len(letters) == 0:
        b, sig = coeffs.jet(X, R, 0)
        return float((b if kind == "drift" else sig)[at])

    if len(letters) == 1:
        c = letters[0]
        if c.kind is ComponentKind.TIME:
            op = op_time_drift if kind == "drift" else op_time_diffusion
            return float(op(coeffs, X, R)[at])
        at += (c.index - 1,)
        if kind == "drift":
            return float(op_noise_drift(coeffs, X, R)[at])
        op_r = None if operator_regime is None else np.array([operator_regime])
        return float(op_noise_diffusion(coeffs, X, R, op_r)[at])

    if len(letters) == 2:
        first, second = letters
        if first.kind is ComponentKind.WIENER and second.kind is ComponentKind.WIENER:
            if kind != "diffusion":
                raise UnsupportedWordLength(
                    "two-letter words are supported on diffusion entries only"
                )
            # word (a1, a2): inner letter a2 acts first
            tensor = op_noise_noise_diffusion(coeffs, X, R)
            return float(tensor[at + (second.index - 1, first.index - 1)])
        raise UnsupportedWordLength(
            "two-letter words must consist of Wiener letters, got %s" % (index,)
        )

    raise UnsupportedWordLength("words longer than two letters are not supported")


# ---------------------------------------------------------------------------
# commutativity of the noise columns


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

    def satisfied(self, order: int, tol: float = 1e-8) -> bool:
        """True when the identities needed up to the given nesting hold."""
        if order <= 0:
            return True
        if self.first_order_gap > tol:
            return False
        return order < 2 or self.second_order_gap <= tol


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
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.ndim != 2 or points.shape[1] != model.d or points.shape[0] == 0:
        raise DimensionMismatch(
            "probe points have shape %s, expected (n, %d) with n >= 1" % (points.shape, model.d)
        )
    if not np.isfinite(points).all():
        raise NonFiniteInput("probe points must be finite")
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
