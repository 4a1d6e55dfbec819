"""Regime-dependent SDE coefficients and their differential operators.

A model couples a drift b(x, i0) in R^d and a diffusion sigma(x, i0) in
R^(d x m) to a chain on regimes 1..m0.  Two first/second order operators act
on scalar coefficient entries f at a fixed regime:

- the time operator, sum_p b^p d_p f + (1/2) sum_pq (sigma sigma^T)_pq d_pq f,
  attached to time integrals;
- one noise operator per Wiener dimension a, sum_p sigma^(p,a) d_p f,
  attached to integrals against W^a.

Coefficient sets expose values together with first and second spatial
derivatives, evaluated in batch: states of shape (B, d) and a regime label
per row.  Everything here is regime-wise; the jump structure enters only
through which regimes the schemes evaluate at.

The operators are built from the coefficient jet (b, Db, D^2 b, sigma,
D sigma, D^2 sigma): one private builder per operator takes those arrays and
contracts them, so a caller that evaluates the jet once can build every
operator from it.  The kernels in ``schemes`` do that once per call at the
window-start regime.  The public ``op_*`` functions evaluate what their
operator needs and delegate to the same builders, as do ``apply_word`` and
``check_commutativity``.

``apply_word`` applies the operator word of an integral label to a single
coefficient entry.  Supported words: the empty word, (0), (a), and (a1, a2)
with Wiener letters; longer or mixed words would need third derivatives and
are refused.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidComponent,
    NonFiniteInput,
    UnknownRegime,
    UnsupportedWordLength,
)
from .markov_chain import GeneratorMatrix
from .multi_index import ComponentKind, MultiIndex

__all__ = [
    "CoefficientSet",
    "CallableCoefficients",
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
    """Batched evaluators for a drift/diffusion pair and their derivatives.

    Subclasses set ``d`` (state dimension) and ``m`` (Wiener dimensions) and
    implement the six methods below.  ``X`` has shape (B, d); ``regimes`` is
    an integer array of shape (B,) with 1-based labels.  Derivative index
    order: gradients put the differentiation axis last, Hessians the last
    two.
    """

    d: int
    m: int

    def drift(self, X, regimes):
        """(B, d) drift values."""
        raise NotImplementedError

    def diffusion(self, X, regimes):
        """(B, d, m) diffusion values."""
        raise NotImplementedError

    def drift_gradient(self, X, regimes):
        """(B, d, d): [..., k, p] = d b^k / d x^p."""
        raise NotImplementedError

    def drift_hessian(self, X, regimes):
        """(B, d, d, d): [..., k, p, q] = d^2 b^k / d x^p d x^q."""
        raise NotImplementedError

    def diffusion_gradient(self, X, regimes):
        """(B, d, m, d): [..., k, j, p] = d sigma^(k,j) / d x^p."""
        raise NotImplementedError

    def diffusion_hessian(self, X, regimes):
        """(B, d, m, d, d): [..., k, j, p, q] = d^2 sigma^(k,j) / d x^p d x^q."""
        raise NotImplementedError


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

    def _steps(self, x):
        return self._eps * np.maximum(1.0, np.abs(x))

    def _rows(self, fn, X, regimes, shape):
        out = np.empty((X.shape[0],) + shape)
        for i in range(X.shape[0]):
            out[i] = _evaluate(fn, X[i], int(regimes[i]), shape)
        return out

    def drift(self, X, regimes):
        return self._rows(self.drift_fn, X, regimes, (self.d,))

    def diffusion(self, X, regimes):
        return self._rows(self.diffusion_fn, X, regimes, (self.d, self.m))

    def _gradient(self, fn, X, regimes, shape):
        out = np.empty((X.shape[0],) + shape + (self.d,))
        for i in range(X.shape[0]):
            x = X[i]
            r = int(regimes[i])
            h = self._steps(x)
            for p in range(self.d):
                e = np.zeros(self.d)
                e[p] = h[p]
                hi = _evaluate(fn, x + e, r, shape)
                lo = _evaluate(fn, x - e, r, shape)
                out[i, ..., p] = (hi - lo) / (2.0 * h[p])
        return out

    def _hessian(self, fn, X, regimes, shape):
        out = np.empty((X.shape[0],) + shape + (self.d, self.d))
        for i in range(X.shape[0]):
            x = X[i]
            r = int(regimes[i])
            h = self._steps(x)
            f0 = _evaluate(fn, x, r, shape)
            for p in range(self.d):
                ep = np.zeros(self.d)
                ep[p] = h[p]
                for q in range(p, self.d):
                    if p == q:
                        hi = _evaluate(fn, x + 2 * ep, r, shape)
                        lo = _evaluate(fn, x - 2 * ep, r, shape)
                        val = (hi - 2.0 * f0 + lo) / (4.0 * h[p] * h[p])
                    else:
                        eq = np.zeros(self.d)
                        eq[q] = h[q]
                        pp = _evaluate(fn, x + ep + eq, r, shape)
                        pm = _evaluate(fn, x + ep - eq, r, shape)
                        mp = _evaluate(fn, x - ep + eq, r, shape)
                        mm = _evaluate(fn, x - ep - eq, r, shape)
                        val = (pp - pm - mp + mm) / (4.0 * h[p] * h[q])
                    out[i, ..., p, q] = val
                    out[i, ..., q, p] = val
        return out

    def drift_gradient(self, X, regimes):
        return self._gradient(self.drift_fn, X, regimes, (self.d,))

    def drift_hessian(self, X, regimes):
        return self._hessian(self.drift_fn, X, regimes, (self.d,))

    def diffusion_gradient(self, X, regimes):
        return self._gradient(self.diffusion_fn, X, regimes, (self.d, self.m))

    def diffusion_hessian(self, X, regimes):
        return self._hessian(self.diffusion_fn, X, regimes, (self.d, self.m))


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
        if not (1 <= self.initial_regime <= self.generator.m0):
            raise UnknownRegime(
                "initial regime %r outside 1..%d" % (self.initial_regime, self.generator.m0)
            )
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
    # drift and diffusion once per regime at x0, so that per-regime tables
    # too short for the generator fail here and not inside a scheme
    d, m = coeffs.d, coeffs.m
    X = np.tile(x0, (m0, 1))
    regimes = np.arange(1, m0 + 1)
    try:
        shapes = (coeffs.drift(X, regimes).shape, coeffs.diffusion(X, regimes).shape)
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


def _check_point(model: ModelSpec, x, regime: int):
    x = np.asarray(x, dtype=float).reshape(-1)
    if x.size != model.d:
        raise DimensionMismatch("state has %d entries, expected %d" % (x.size, model.d))
    if not np.isfinite(x).all():
        raise NonFiniteInput("state contains NaN or infinity")
    if not (1 <= regime <= model.m0):
        raise UnknownRegime("regime %r outside 1..%d" % (regime, model.m0))
    return x


def eval_drift(model: ModelSpec, x, regime: int) -> np.ndarray:
    """Drift vector b(x, regime), shape (d,)."""
    x = _check_point(model, x, regime)
    return model.coefficients.drift(x[None, :], np.array([regime]))[0]


def eval_diffusion(model: ModelSpec, x, regime: int) -> np.ndarray:
    """Diffusion matrix sigma(x, regime), shape (d, m)."""
    x = _check_point(model, x, regime)
    return model.coefficients.diffusion(x[None, :], np.array([regime]))[0]


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
    return _time_drift(
        coeffs.drift(X, regimes),
        coeffs.drift_gradient(X, regimes),
        coeffs.drift_hessian(X, regimes),
        _covariance(coeffs.diffusion(X, regimes)),
    )


def op_noise_drift(coeffs: CoefficientSet, X, regimes):
    """Noise operators applied to the drift; shape (B, d, m), last axis = a."""
    return _noise_drift(coeffs.drift_gradient(X, regimes), coeffs.diffusion(X, regimes))


def op_time_diffusion(coeffs: CoefficientSet, X, regimes):
    """Time operator applied to every diffusion entry; shape (B, d, m)."""
    return _time_diffusion(
        coeffs.drift(X, regimes),
        coeffs.diffusion_gradient(X, regimes),
        coeffs.diffusion_hessian(X, regimes),
        _covariance(coeffs.diffusion(X, regimes)),
    )


def op_noise_diffusion(coeffs: CoefficientSet, X, regimes, op_regimes=None):
    """Noise operators applied to the diffusion; shape (B, d, m, m).

    Entry [.., k, j, a] applies the noise operator of Wiener dimension a to
    sigma^(k,j).  When ``op_regimes`` is given, the operator's own diffusion
    coefficients are taken at those regimes while the target entry stays at
    ``regimes``; the one-jump correction terms need that split.
    """
    sig_op = coeffs.diffusion(X, regimes if op_regimes is None else op_regimes)
    return _noise_diffusion(coeffs.diffusion_gradient(X, regimes), sig_op)


def op_noise_noise_diffusion(coeffs: CoefficientSet, X, regimes):
    """Two nested noise operators on the diffusion; shape (B, d, m, m, m).

    Entry [.., k, j, a, c] applies first the operator of dimension a, then
    the operator of dimension c, to sigma^(k,j).
    """
    sig = coeffs.diffusion(X, regimes)
    dsig = coeffs.diffusion_gradient(X, regimes)
    hsig = coeffs.diffusion_hessian(X, regimes)
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
    if operator_regime is not None and not (1 <= operator_regime <= model.m0):
        raise UnknownRegime("operator regime %r outside 1..%d" % (operator_regime, model.m0))
    kind = target[0]
    if kind == "drift":
        k = target[1] - 1
        if not (0 <= k < model.d):
            raise DimensionMismatch("drift entry %r outside 1..%d" % (target[1], model.d))
    elif kind == "diffusion":
        k, j = target[1] - 1, target[2] - 1
        if not (0 <= k < model.d) or not (0 <= j < model.m):
            raise DimensionMismatch(
                "diffusion entry %r outside 1..%d x 1..%d" % (target[1:], model.d, model.m)
            )
    else:
        raise UnsupportedWordLength("unknown target %r" % (kind,))

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
        if kind == "drift":
            return float(coeffs.drift(X, R)[0, k])
        return float(coeffs.diffusion(X, R)[0, k, j])

    if len(letters) == 1:
        c = letters[0]
        if c.kind is ComponentKind.TIME:
            if kind == "drift":
                return float(op_time_drift(coeffs, X, R)[0, k])
            return float(op_time_diffusion(coeffs, X, R)[0, k, j])
        a = c.index - 1
        if kind == "drift":
            return float(op_noise_drift(coeffs, X, R)[0, k, a])
        op_r = None if operator_regime is None else np.array([operator_regime])
        return float(op_noise_diffusion(coeffs, X, R, op_r)[0, k, j, a])

    if len(letters) == 2:
        first, second = letters
        if first.kind is ComponentKind.WIENER and second.kind is ComponentKind.WIENER:
            if kind != "diffusion":
                raise UnsupportedWordLength(
                    "two-letter words are supported on diffusion entries only"
                )
            # word (a1, a2): inner letter a2 acts first
            tensor = op_noise_noise_diffusion(coeffs, X, R)
            return float(tensor[0, k, j, second.index - 1, first.index - 1])
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
    if points.ndim != 2 or points.shape[1] != model.d:
        raise DimensionMismatch(
            "probe points have shape %s, expected (n, %d)" % (points.shape, model.d)
        )
    if not np.isfinite(points).all():
        raise NonFiniteInput("probe points must be finite")
    coeffs = model.coefficients
    gap1 = 0.0
    gap2 = 0.0
    for regime in range(1, model.m0 + 1):
        R = np.full(points.shape[0], regime)
        sig = coeffs.diffusion(points, R)
        dsig = coeffs.diffusion_gradient(points, R)
        t1 = _noise_diffusion(dsig, sig)
        gap1 = max(gap1, float(np.abs(t1 - t1.transpose(0, 1, 3, 2)).max()))
        t2 = _noise_noise_diffusion(sig, dsig, coeffs.diffusion_hessian(points, R), t1)
        gap2 = max(gap2, float(np.abs(t2 - t2.transpose(0, 1, 2, 4, 3)).max()))
    return CommutativityReport(gap1, gap2, points.shape[0] * model.m0)
