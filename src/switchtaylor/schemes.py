"""One-step maps of strong order 0.5, 1.0 and 1.5 under regime switching.

Each scheme advances the state over a window (s, t] from the regime held at
the window start, consuming the Wiener increment, for the 1.5 scheme also the
increment's time integral, and a record of the chain's jumps inside the
window.  Jump corrections are stretchwise: every correction term attached to
a switch runs from that switch to the next one or to the window end,
whichever comes first.  The first switch carries the full set of correction
terms for its scheme, the second switch carries the diffusion correction of
the 1.5 map (cut off at a third switch when one occurs), and later switches
are left to the remainder, whose probability within one window shrinks fast
enough not to show at these orders.  Windows are half open, so a switch
sitting exactly on a window's right edge belongs to that window and
contributes nothing beyond it.

The higher-order maps are closed forms that hold when the noise operators of
the diffusion columns exchange; ``require_commutativity`` probes the needed
identities and refuses models that break them (scalar noise always passes).

Kernels are batched: states (B, d), regimes (B,), increments (B, m), with
switch data carried sparsely by one record type, ``JumpRecords``, keyed by
``step * width + row``.  ``march`` is the one loop that applies a kernel
along a grid: ``integrate`` and both passes of the convergence engine run
through it, so there is one stepping implementation to validate.  A single
step is ``integrate`` on the two-point grid [s, t], started from any state
by replacing the model's ``x0``.

A map's noise-only factors do not depend on the state: h dW - dZ for the
1.5 map and the weights of the double and triple Wiener integrals,
dW^j dW^a - 1{j=a} h and its cubic analogue (Kloeden & Platen 1992,
ch. 10).  ``SchemeInfo.weights`` is the one formula for them over any
leading axes: () for the 0.5 map, (pair,) for the 1.0 map and
(h dW - dZ, pair, triple) for the 1.5 map.  ``march`` computes them with
one call per block of ``WEIGHT_BLOCK_ROWS`` (path, step) rows, cuts each
block's step sizes (as Python floats), dW, dZ, regimes and weights once into
per-step sequences, and searches the jump table once for the record range
of every step.  Its finiteness test counts the finite entries of each new
state, exact and free of overflow.  A kernel called with its seven
positional arguments alone computes its weights through the same function,
so both routes give the same bits.

Each kernel call evaluates the coefficient jet once, at the window-start
regime, with ``coeffs.jet`` of the order its map contracts, and builds its
operators from it with the builders of ``model``: order 0 (b, sigma) for
the 0.5 map, order 1 (adding Db, D sigma) for the 1.0 map and order 2
(adding D^2 b, D^2 sigma) for the 1.5 map.  The 1.5 map reads a second
derivative only in the curvature terms, (1/2) tr(sigma sigma^T D^2) of the
time operator on b and sigma and the D^2 sigma part of the nested noise
operators; a Hessian that is zero in every entry of the call, as for
regime-wise affine coefficients, is dropped with its terms, and sigma
sigma^T is built only when a Hessian remains.  The skipped terms are exact
zeros, so results do not change.  Rows whose window holds a
switch add one call on those rows only, at the first switched regime: order
0 for the 1.0 map, order 1 for the 1.5 map.  The 1.5 map adds one more
order-0 call at the second switched regime on rows with two or more
switches.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import _values
from ._files import opened
from .errors import (
    CommutativityRequired,
    DimensionMismatch,
    IntervalOutOfRange,
    InvalidGrid,
    NonFiniteState,
    UnknownRegime,
    UnknownScheme,
)
from .markov_chain import ChainPath
from .model import (
    COMMUTATIVITY_TOL,
    ModelSpec,
    _covariance,
    _noise_diffusion,
    _noise_drift,
    _noise_noise_diffusion,
    _time_diffusion,
    _time_drift,
    check_commutativity,
)

# The kernels build operators from one coefficient jet and call none of the
# public op_* functions; their names stay reachable here because the
# benchmark's tracer (perfbench/layers.py) looks them up on this module.
from .model import (  # noqa: F401
    op_noise_diffusion,
    op_noise_drift,
    op_noise_noise_diffusion,
    op_time_diffusion,
    op_time_drift,
)
from .noise import NoisePath

__all__ = [
    "COMMUTATIVITY_TOL",
    "JumpRecords",
    "JumpData",
    "SchemeInfo",
    "SCHEMES",
    "get_scheme",
    "require_commutativity",
    "jump_records",
    "merge_records",
    "march",
    "integrate",
    "Trajectory",
    "write_trajectory_csv",
]

# (path, step) rows whose noise weights ``march`` computes in one call: a
# batch of 64 or more paths takes one step per call, a single path 64 steps
WEIGHT_BLOCK_ROWS = 64


@dataclass(frozen=True)
class JumpRecords:
    """Sparse switch records of a run of windows, for one path or a batch.

    Arrays share length K, one entry per (window, path row) pair whose
    window contains at least one switch, sorted by the flat key
    ``rows = step * width + row`` for a batch of ``width`` paths.  A record
    of one path keys by window index alone, and the slice handed to a kernel
    for one step keys by batch row alone.  Offsets are relative to the
    window start; ``w1``, ``w2`` and ``w3`` hold W(tau) - W(window start),
    shape (K, m).  Second-switch fields are zero filled where ``counts`` < 2,
    and ``w3`` where ``counts`` < 3.  The third switch only caps the reach of
    the second-switch correction, so its time and regime are not kept.
    """

    rows: np.ndarray
    counts: np.ndarray
    dt1: np.ndarray
    reg1: np.ndarray
    w1: np.ndarray
    dt2: np.ndarray
    reg2: np.ndarray
    w2: np.ndarray
    w3: np.ndarray

    def _between(self, lo: int, hi: int, offset: int) -> JumpRecords | None:
        # records lo:hi with their keys shifted down by offset; None if empty
        if lo == hi:
            return None
        part = {f.name: getattr(self, f.name)[lo:hi] for f in fields(self)}
        part["rows"] = part["rows"] - offset
        return JumpRecords(**part)


# an alias that only the benchmark's kernel sweep (perfbench/layers.py) and
# its tests look up; the package and its tests use JumpRecords
JumpData = JumpRecords


def merge_records(parts) -> JumpRecords:
    """One batch table from the per-path records of its paths, in row order."""
    width = len(parts)
    if not width:
        raise DimensionMismatch("merge_records needs the records of at least one path")
    keys = np.concatenate([rec.rows * width + row for row, rec in enumerate(parts)])
    order = np.argsort(keys, kind="stable")
    merged = {
        f.name: np.concatenate([getattr(rec, f.name) for rec in parts])[order]
        for f in fields(JumpRecords)
    }
    merged["rows"] = keys[order]
    return JumpRecords(**merged)


def jump_records(chain: ChainPath, noise: NoisePath, edges) -> JumpRecords:
    """Locate chain switches inside each window of an edge sequence.

    Edges must be strictly increasing grid times of the noise path.  A
    switch at time tau is assigned to the window (edges[i], edges[i+1]]
    containing it, and the record's ``rows`` holds the window index i; the
    first two switches per window are recorded in full, the third by its
    Wiener offset alone.  The switches are the chain's own jump times, so
    their regimes are read from ``chain.states_after`` without a search.
    """
    edges = _values.times(edges, "jump_records: edges", InvalidGrid)
    taus = chain.jump_times.tolist()
    # jump times are sorted: the ones in (edges[0], edges[-1]] are one slice
    lo, hi = bisect_right(taus, edges[0]), bisect_right(taus, edges[-1])
    m = noise.m
    if lo == hi:
        ints, times, offsets = np.empty(0, dtype=np.int64), np.empty(0), np.empty((0, m))
        rows = np.empty(0, dtype=np.intp)
        return JumpRecords(rows, ints, times, ints, offsets, times, ints, offsets, offsets)
    taus = taus[lo:hi]
    entered = chain.states_after[lo:hi].tolist()
    bins = (edges.searchsorted(chain.jump_times[lo:hi]) - 1).tolist()
    # the switches of one window are a run of equal bins; a missing second
    # or third switch is parked at the window start, so its dt and w are 0
    windows = []
    first = 0
    while first < len(bins):
        stop = bisect_right(bins, bins[first], first)
        start = float(edges[bins[first]])
        later = (taus[first + 1 : min(stop, first + 3)] + [start, start])[:2]
        regs = entered[first : first + 2] if stop - first > 1 else [entered[first]] * 2
        windows.append((bins[first], stop - first, start, taus[first], *later, *regs))
        first = stop
    rows, counts, starts, tau1, tau2, tau3, reg1, reg2 = zip(*windows)
    # every field is a new array: a view would keep a larger base alive in
    # each of the many per-path records a batch holds
    at = np.array(starts + tau1 + tau2 + tau3).reshape(4, -1)
    w_start, w1, w2, w3 = noise.w_many(at).reshape(4, -1, m)
    return JumpRecords(
        rows=np.array(rows, dtype=np.intp),
        counts=np.array(counts, dtype=np.int64),
        dt1=at[1] - at[0],
        reg1=np.array(reg1, dtype=np.int64),
        w1=w1 - w_start,
        dt2=at[2] - at[0],
        reg2=np.array(reg2, dtype=np.int64),
        w2=w2 - w_start,
        w3=w3 - w_start,
    )


# ---------------------------------------------------------------------------
# batched kernels


def _pair_weight(dw, h):
    # [.., j, a] = dW^j dW^a - 1{j=a} h, with h broadcasting against dw
    quad = dw[..., :, None] * dw[..., None, :]
    idx = np.arange(dw.shape[-1])
    quad[..., idx, idx] -= h
    return quad


def _triple_weight(dw, h):
    # [.., j, a, c] = dW^j dW^a dW^c - 1{a=c, j!=a} h dW^j - 3 1{j=a=c} h dW^j
    cubic = dw[..., :, None, None] * dw[..., None, :, None] * dw[..., None, None, :]
    idx = np.arange(dw.shape[-1])
    # j = a = c takes one subtraction of 3 h dW^j from the bare product
    diag = cubic[..., idx, idx, idx] - 3.0 * h * dw
    cubic[..., :, idx, idx] -= (h * dw)[..., None]
    cubic[..., idx, idx, idx] = diag
    return cubic


def _euler_weights(h, dw, dz):
    return ()


def _milstein_weights(h, dw, dz):
    return (_pair_weight(dw, np.asarray(h, dtype=float)[..., None]),)


def _taylor15_weights(h, dw, dz):
    h = np.asarray(h, dtype=float)[..., None]
    return (h * dw - dz, _pair_weight(dw, h), _triple_weight(dw, h))


def _euler_kernel(coeffs, y, regimes, h, dw, dz=None, jumps=None, weights=None):
    b, sig = coeffs.jet(y, regimes, 0)
    return y + b * h + np.einsum("bkj,bj->bk", sig, dw)


def _milstein_kernel(coeffs, y, regimes, h, dw, dz=None, jumps=None, weights=None):
    (pair,) = _milstein_weights(h, dw, dz) if weights is None else weights
    b, sig, _, dsig = coeffs.jet(y, regimes, 1)
    lj = _noise_diffusion(dsig, sig)
    out = y + b * h + np.einsum("bkj,bj->bk", sig, dw)
    out += 0.5 * np.einsum("bkja,bja->bk", lj, pair)
    if jumps is not None and jumps.rows.size:
        rows = jumps.rows
        sig_after = coeffs.jet(y[rows], jumps.reg1, 0)[1]
        # correction covers the stretch from the switch to the next one,
        # or to the window end when the switch is the only one
        w_cut = np.where((jumps.counts >= 2)[:, None], jumps.w2, dw[rows])
        out[rows] += np.einsum("bkj,bj->bk", sig_after - sig[rows], w_cut - jumps.w1)
    return out


def _taylor15_kernel(coeffs, y, regimes, h, dw, dz, jumps=None, weights=None):
    if dz is None:
        raise InvalidGrid("the 1.5 scheme needs the time integrals of the noise")
    hdw_dz, pair, triple = _taylor15_weights(h, dw, dz) if weights is None else weights
    # the coefficient jet at the window-start regime, evaluated once; a
    # Hessian that is zero in every row of the call (NaN is not) is dropped
    # with its curvature terms, and sigma sigma^T is built only to feed one
    b, sig, db, dsig, hb, hsig = coeffs.jet(y, regimes, 2)
    hb = hb if np.count_nonzero(hb) else None
    hsig = hsig if np.count_nonzero(hsig) else None
    cov = None if hb is None and hsig is None else _covariance(sig)
    l0b = _time_drift(b, db, hb, cov)
    ljb = _noise_drift(db, sig)
    l0s = _time_diffusion(b, dsig, hsig, cov)
    ljs = _noise_diffusion(dsig, sig)
    ljjs = _noise_noise_diffusion(sig, dsig, hsig, ljs)

    out = y + b * h + 0.5 * l0b * (h * h)
    out += np.einsum("bka,ba->bk", ljb, dz)
    out += np.einsum("bkj,bj->bk", sig, dw)
    out += np.einsum("bkj,bj->bk", l0s, hdw_dz)
    out += 0.5 * np.einsum("bkja,bja->bk", ljs, pair)
    out += np.einsum("bkjac,bjac->bk", ljjs, triple) / 6.0

    if jumps is None or not jumps.rows.size:
        return out

    # first-switch corrections cover the stretch up to the second switch or
    # the window end; a window with one switch uses the full remainder.
    # The switched regime needs the order-1 jet on the switch rows only.
    rows = jumps.rows
    reg1 = jumps.reg1
    w1 = jumps.w1
    sig0 = sig[rows]
    b1, sig1, _, dsig1 = coeffs.jet(y[rows], reg1, 1)
    more = jumps.counts >= 2
    w_cut = np.where(more[:, None], jumps.w2, dw[rows])
    tail = w_cut - w1
    remain = np.where(more, jumps.dt2, h) - jumps.dt1
    out[rows] += (b1 - b[rows]) * remain[:, None]
    out[rows] += np.einsum("bkj,bj->bk", sig1 - sig0, tail)
    # switched target, operator coefficients frozen at the start regime
    lj_mixed = _noise_diffusion(dsig1, sig0)
    out[rows] += np.einsum("bkja,ba,bj->bk", lj_mixed - ljs[rows], w1, tail)
    # both operator and target switched; weight from the covered stretch
    lj_after = _noise_diffusion(dsig1, sig1)
    tail_quad = _pair_weight(tail, remain[:, None])
    out[rows] += 0.5 * np.einsum("bkja,bja->bk", lj_after - ljs[rows], tail_quad)

    if more.any():
        rows2 = rows[more]
        sig_after = coeffs.jet(y[rows2], jumps.reg2[more], 0)[1]
        # second-switch correction, cut off at a third switch when present
        w_cut3 = np.where((jumps.counts[more] >= 3)[:, None], jumps.w3[more], dw[rows2])
        out[rows2] += np.einsum(
            "bkj,bj->bk", sig_after - sig[rows2], w_cut3 - jumps.w2[more]
        )
    return out


@dataclass(frozen=True)
class SchemeInfo:
    """A registered one-step map and what it needs from its inputs.

    ``weights(h, dw, dz)`` is the one formula for the map's noise-only
    factors over any leading axes, with ``h`` broadcasting against those
    axes: ``()`` for euler, ``(pair,)`` for milstein and
    ``(h dW - dZ, pair, triple)`` for taylor15, where pair and triple are
    the weights of the double and triple Wiener integrals.  ``kernel(coeffs,
    y, regimes, h, dw, dz, jumps)`` takes one step of a batch; passed
    ``weights=`` it reads those factors instead of computing them.
    """

    name: str
    strong_order: float
    commutativity_order: int
    kernel: Callable
    weights: Callable


SCHEMES = {
    "euler": SchemeInfo("euler", 0.5, 0, _euler_kernel, _euler_weights),
    "milstein": SchemeInfo("milstein", 1.0, 1, _milstein_kernel, _milstein_weights),
    "taylor15": SchemeInfo("taylor15", 1.5, 2, _taylor15_kernel, _taylor15_weights),
}


def get_scheme(name: str) -> SchemeInfo:
    """Registry lookup; raises UnknownScheme for unregistered names."""
    try:
        return SCHEMES[name]
    except (KeyError, TypeError):
        raise UnknownScheme(
            "unknown scheme %r; available: %s" % (name, ", ".join(sorted(SCHEMES)))
        ) from None


def require_commutativity(model: ModelSpec, order: int) -> None:
    """Refuse models whose noise columns break the identities a map needs."""
    if order <= 0 or model.m == 1:
        return
    report = check_commutativity(model)
    if not report.satisfied(order):
        raise CommutativityRequired(
            "model %r breaks the noise-column exchange identities "
            "(first order gap %.3g, second order gap %.3g, tol %.1g)"
            % (model.name, report.first_order_gap, report.second_order_gap, COMMUTATIVITY_TOL)
        )


# ---------------------------------------------------------------------------
# stepping


def march(info, coeffs, y0, regimes, hs, dw, dz, table):
    """Apply a scheme's one-step map along a grid to a batch of P paths.

    ``info`` is the scheme's ``SchemeInfo``, ``y0`` is (P, d), ``regimes``
    (P, n) the regimes at the window starts, ``hs`` the n step sizes,
    ``dw`` and ``dz`` (P, n, m) and ``table`` the JumpRecords of the batch
    keyed by ``step * P + row``, or None when no path switches.  The inputs
    are checked once, before the first step.  Returns an iterator of (n, y)
    with the (P, d) states after each step.

    The noise weights of ``WEIGHT_BLOCK_ROWS`` (path, step) rows at a time
    come from one ``info.weights`` call, each block's inputs are cut once
    into per-step parts, and the table is searched once for the record
    range of every step.

    Raises:
      DimensionMismatch: an input's shape disagrees with ``regimes`` or
        with the coefficient set's d and m.
      UnknownRegime: a regime label in ``regimes`` or ``table`` is not an
        integer from 1; the rate-table coefficient sets also refuse a label
        above their regime count, at the step that reads it.
      NonFiniteState: a state left the finite range; its ``step`` and ``row``
        locate the first bad row of the first bad step.
    """
    regimes = _values.labels(regimes, "march: regime labels", UnknownRegime)
    for part in () if table is None else (table.reg1, table.reg2):
        _values.labels(part, "march: regime labels", UnknownRegime)
    hs = np.asarray(hs, dtype=float)
    if regimes.ndim != 2:
        raise DimensionMismatch("march: regimes has shape %s, expected (P, n)" % (regimes.shape,))
    width, n_steps = regimes.shape
    for name, value, shape in (
        ("y0", y0, (width, coeffs.d)),
        ("hs", hs, (n_steps,)),
        ("dw", dw, (width, n_steps, coeffs.m)),
        ("dz", dz, (width, n_steps, coeffs.m)),
    ):
        if np.shape(value) != shape:
            raise DimensionMismatch(
                "march: %s has shape %s, expected %s" % (name, np.shape(value), shape)
            )
    bounds = [0] * (n_steps + 1)
    if table is not None:
        bounds = np.searchsorted(table.rows, np.arange(n_steps + 1) * width).tolist()
    return _march(info, coeffs, y0, regimes, hs, dw, dz, table, bounds)


def _march(info, coeffs, y, regimes, hs, dw, dz, table, bounds):
    width, n_steps = regimes.shape
    kernel = info.kernel
    block = max(1, WEIGHT_BLOCK_ROWS // width)
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        # each input of the block cut once into per-step parts: (P, S, ...)
        # to contiguous (S, P, ...), laid out as per-step arrays would be
        regs, dw_b, dz_b = (
            np.ascontiguousarray(a[:, start:stop].swapaxes(0, 1)) for a in (regimes, dw, dz)
        )
        weights = info.weights(hs[start:stop, None], dw_b, dz_b)
        per_step = zip(*weights) if weights else [()] * (stop - start)
        steps = zip(range(start, stop), regs, hs[start:stop].tolist(), dw_b, dz_b, per_step)
        for n, regs_n, h, dw_n, dz_n, weights_n in steps:
            lo, hi = bounds[n], bounds[n + 1]
            jumps = table._between(lo, hi, n * width) if lo != hi else None
            y = kernel(coeffs, y, regs_n, h, dw_n, dz_n, jumps, weights=weights_n)
            if np.count_nonzero(np.isfinite(y)) != y.size:
                row = int(np.argmin(np.isfinite(y).all(axis=1)))
                raise NonFiniteState(
                    "state left the finite range at step %d on batch row %d" % (n, row),
                    step=n,
                    row=row,
                )
            yield n, y


# ---------------------------------------------------------------------------
# path integration


@dataclass(frozen=True)
class Trajectory:
    """A discrete path: states and regimes on the stepping grid."""

    scheme: str
    model_name: str
    times: np.ndarray
    states: np.ndarray
    regimes: np.ndarray


def integrate(
    model: ModelSpec,
    scheme: str,
    chain: ChainPath,
    noise: NoisePath,
    times,
) -> Trajectory:
    """Run a one-step map along a grid of times: ``march`` on one path.

    ``times`` must be increasing grid times of the noise path inside the
    chain's span; the state starts at the model's start point and the chain
    supplies the regime at every window start.
    """
    info = get_scheme(scheme)
    require_commutativity(model, info.commutativity_order)
    times = _values.times(times, "integrate: times", InvalidGrid)
    if times[0] < chain.t0 or times[-1] > chain.t_end:
        raise IntervalOutOfRange(
            "times [%g, %g] leave the chain span [%g, %g]"
            % (times[0], times[-1], chain.t0, chain.t_end)
        )
    highest = np.max(chain.states_after, initial=chain.initial_state)
    if highest > model.m0:
        raise UnknownRegime(
            "the chain enters regime %d, model %r has regimes 1..%d"
            % (highest, model.name, model.m0)
        )
    dw, dz = noise.step_aggregates(times)
    regimes = chain.states_at(times)
    states = np.empty((times.size, model.d))
    states[0] = model.x0
    steps = march(
        info,
        model.coefficients,
        states[:1],
        regimes[None, :-1],
        np.diff(times),
        dw[None],
        dz[None],
        jump_records(chain, noise, times),
    )
    # a diverging path is reported by NonFiniteState, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for n, y in steps:
            states[n + 1] = y[0]
    return Trajectory(
        scheme=scheme,
        model_name=model.name,
        times=times.copy(),
        states=states,
        regimes=regimes.astype(np.int64),
    )


def write_trajectory_csv(traj: Trajectory, file) -> None:
    """Rows (t, Y^1..Y^d, regime) at full float precision.

    ``file`` may be a filesystem path or a writable text file object.
    """
    with opened(file, "w") as out:
        d = traj.states.shape[1]
        out.write("t," + ",".join("y%d" % (k + 1) for k in range(d)) + ",regime\n")
        for i in range(traj.times.size):
            cells = ["%.17g" % traj.times[i]]
            cells += ["%.17g" % v for v in traj.states[i]]
            cells.append("%d" % traj.regimes[i])
            out.write(",".join(cells) + "\n")
