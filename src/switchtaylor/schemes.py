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
along a grid: ``integrate``, the single-step helpers and both passes of the
convergence engine run through it, so there is one stepping implementation
to validate.

Each kernel call evaluates the coefficient jet once, at the window-start
regime, and builds its operators from it with the builders of ``model``.
The 1.5 map needs the full jet (b, Db, D^2 b, sigma, D sigma, D^2 sigma),
the 1.0 map b, sigma and D sigma.  Rows whose window holds a switch add a
partial jet at the first switched regime (b, sigma and D sigma on those rows
only) and, for the 1.5 map, sigma at the second switched regime on rows with
two or more switches.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import (
    CommutativityRequired,
    IntervalOutOfRange,
    InvalidGrid,
    NonFiniteState,
    UnknownScheme,
)
from .markov_chain import ChainPath
from .model import (
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
    "StepWindow",
    "SchemeInfo",
    "SCHEMES",
    "get_scheme",
    "require_commutativity",
    "jump_records",
    "merge_records",
    "march",
    "build_step_window",
    "step_euler",
    "step_milstein",
    "step_taylor15",
    "integrate",
    "Trajectory",
    "write_trajectory_csv",
]

COMMUTATIVITY_TOL = 1e-8


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

    def at_step(self, step: int, width: int = 1) -> JumpRecords | None:
        """The records of one step of a ``width``-path table, keyed by batch
        row; None when no row switches in that step."""
        lo, hi = np.searchsorted(self.rows, (step * width, (step + 1) * width))
        if lo == hi:
            return None
        part = {f.name: getattr(self, f.name)[lo:hi] for f in fields(self)}
        part["rows"] = part["rows"] - step * width
        return JumpRecords(**part)


JumpData = JumpRecords


def merge_records(parts) -> JumpRecords:
    """One batch table from the per-path records of its paths, in row order."""
    width = len(parts)
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

    Edges must be increasing grid times of the noise path.  A switch at time
    tau is assigned to the window (edges[i], edges[i+1]] containing it, and
    the record's ``rows`` holds the window index i; the first two switches
    per window are recorded in full, the third by its Wiener offset alone.
    """
    edges = np.asarray(edges, dtype=float).reshape(-1)
    jt = chain.jump_times
    inside = (jt > edges[0]) & (jt <= edges[-1])
    jt = jt[inside]
    empty = np.empty(0)
    if jt.size == 0:
        return JumpRecords(
            rows=np.empty(0, dtype=np.intp),
            counts=np.empty(0, dtype=np.int64),
            dt1=empty,
            reg1=np.empty(0, dtype=np.int64),
            w1=np.empty((0, noise.m)),
            dt2=empty,
            reg2=np.empty(0, dtype=np.int64),
            w2=np.empty((0, noise.m)),
            w3=np.empty((0, noise.m)),
        )
    bins = np.searchsorted(edges, jt, side="left") - 1
    steps, first, counts = np.unique(bins, return_index=True, return_counts=True)
    tau1 = jt[first]
    has2 = counts >= 2
    has3 = counts >= 3
    # missing later switches are parked at the window start: dt = 0, w = 0
    tau2 = np.where(has2, jt[np.minimum(first + 1, jt.size - 1)], edges[steps])
    tau3 = np.where(has3, jt[np.minimum(first + 2, jt.size - 1)], edges[steps])
    reg1 = chain.states_at(tau1)
    reg2 = np.where(has2, chain.states_at(tau2), reg1)
    starts = edges[steps]
    w_start = noise.w_many(starts)
    w1 = noise.w_many(tau1) - w_start
    w2 = np.where(has2[:, None], noise.w_many(tau2) - w_start, 0.0)
    w3 = np.where(has3[:, None], noise.w_many(tau3) - w_start, 0.0)
    return JumpRecords(
        rows=steps.astype(np.intp),
        counts=counts.astype(np.int64),
        dt1=tau1 - starts,
        reg1=reg1.astype(np.int64),
        w1=w1,
        dt2=np.where(has2, tau2 - starts, 0.0),
        reg2=reg2.astype(np.int64),
        w2=w2,
        w3=w3,
    )


# ---------------------------------------------------------------------------
# batched kernels


def _pair_weight(dw, h):
    # [.., j, a] = dW^j dW^a - 1{j=a} h
    quad = dw[:, :, None] * dw[:, None, :]
    idx = np.arange(dw.shape[1])
    quad[:, idx, idx] -= h
    return quad


def _triple_weight(dw, h):
    # [.., j, a, c] = dW^j dW^a dW^c - 1{a=c, j!=a} h dW^j - 3 1{j=a=c} h dW^j
    m = dw.shape[1]
    cubic = dw[:, :, None, None] * dw[:, None, :, None] * dw[:, None, None, :]
    j_idx, a_idx, c_idx = np.indices((m, m, m))
    pair = ((a_idx == c_idx) & (j_idx != a_idx)).astype(float)
    diag = ((j_idx == a_idx) & (a_idx == c_idx)).astype(float)
    cubic -= (h * (pair + 3.0 * diag))[None] * dw[:, :, None, None]
    return cubic


def _euler_kernel(coeffs, y, regimes, h, dw, dz=None, jumps=None):
    b = coeffs.drift(y, regimes)
    sig = coeffs.diffusion(y, regimes)
    return y + b * h + np.einsum("bkj,bj->bk", sig, dw)


def _milstein_kernel(coeffs, y, regimes, h, dw, dz=None, jumps=None):
    b = coeffs.drift(y, regimes)
    sig = coeffs.diffusion(y, regimes)
    lj = _noise_diffusion(coeffs.diffusion_gradient(y, regimes), sig)
    out = y + b * h + np.einsum("bkj,bj->bk", sig, dw)
    out += 0.5 * np.einsum("bkja,bja->bk", lj, _pair_weight(dw, h))
    if jumps is not None and jumps.rows.size:
        rows = jumps.rows
        sig_after = coeffs.diffusion(y[rows], jumps.reg1)
        # correction covers the stretch from the switch to the next one,
        # or to the window end when the switch is the only one
        w_cut = np.where((jumps.counts >= 2)[:, None], jumps.w2, dw[rows])
        out[rows] += np.einsum("bkj,bj->bk", sig_after - sig[rows], w_cut - jumps.w1)
    return out


def _taylor15_kernel(coeffs, y, regimes, h, dw, dz, jumps=None):
    if dz is None:
        raise InvalidGrid("the 1.5 scheme needs the time integrals of the noise")
    m = dw.shape[1]
    # the coefficient jet at the window-start regime, evaluated once
    b = coeffs.drift(y, regimes)
    db = coeffs.drift_gradient(y, regimes)
    hb = coeffs.drift_hessian(y, regimes)
    sig = coeffs.diffusion(y, regimes)
    dsig = coeffs.diffusion_gradient(y, regimes)
    hsig = coeffs.diffusion_hessian(y, regimes)
    cov = _covariance(sig)
    l0b = _time_drift(b, db, hb, cov)
    ljb = _noise_drift(db, sig)
    l0s = _time_diffusion(b, dsig, hsig, cov)
    ljs = _noise_diffusion(dsig, sig)
    ljjs = _noise_noise_diffusion(sig, dsig, hsig, ljs)

    out = y + b * h + 0.5 * l0b * (h * h)
    out += np.einsum("bka,ba->bk", ljb, dz)
    out += np.einsum("bkj,bj->bk", sig, dw)
    out += np.einsum("bkj,bj->bk", l0s, h * dw - dz)
    out += 0.5 * np.einsum("bkja,bja->bk", ljs, _pair_weight(dw, h))
    out += np.einsum("bkjac,bjac->bk", ljjs, _triple_weight(dw, h)) / 6.0

    if jumps is None or not jumps.rows.size:
        return out

    # first-switch corrections cover the stretch up to the second switch or
    # the window end; a window with one switch uses the full remainder.
    # The switched regime needs b, sigma and D sigma on the switch rows only.
    rows = jumps.rows
    yk = y[rows]
    reg1 = jumps.reg1
    w1 = jumps.w1
    sig0 = sig[rows]
    sig1 = coeffs.diffusion(yk, reg1)
    dsig1 = coeffs.diffusion_gradient(yk, reg1)
    more = jumps.counts >= 2
    w_cut = np.where(more[:, None], jumps.w2, dw[rows])
    tail = w_cut - w1
    remain = np.where(more, jumps.dt2, h) - jumps.dt1
    out[rows] += (coeffs.drift(yk, reg1) - b[rows]) * remain[:, None]
    out[rows] += np.einsum("bkj,bj->bk", sig1 - sig0, tail)
    # switched target, operator coefficients frozen at the start regime
    lj_mixed = _noise_diffusion(dsig1, sig0)
    out[rows] += np.einsum("bkja,ba,bj->bk", lj_mixed - ljs[rows], w1, tail)
    # both operator and target switched; weight from the covered stretch
    lj_after = _noise_diffusion(dsig1, sig1)
    tail_quad = tail[:, :, None] * tail[:, None, :]
    idx = np.arange(m)
    tail_quad[:, idx, idx] -= remain[:, None]
    out[rows] += 0.5 * np.einsum("bkja,bja->bk", lj_after - ljs[rows], tail_quad)

    if more.any():
        rows2 = rows[more]
        sig_after = coeffs.diffusion(y[rows2], jumps.reg2[more])
        # second-switch correction, cut off at a third switch when present
        w_cut3 = np.where((jumps.counts[more] >= 3)[:, None], jumps.w3[more], dw[rows2])
        out[rows2] += np.einsum(
            "bkj,bj->bk", sig_after - sig[rows2], w_cut3 - jumps.w2[more]
        )
    return out


@dataclass(frozen=True)
class SchemeInfo:
    """A registered one-step map and what it needs from its inputs."""

    name: str
    strong_order: float
    uses_time_integrals: bool
    commutativity_order: int
    kernel: Callable


SCHEMES = {
    "euler": SchemeInfo("euler", 0.5, False, 0, _euler_kernel),
    "milstein": SchemeInfo("milstein", 1.0, False, 1, _milstein_kernel),
    "taylor15": SchemeInfo("taylor15", 1.5, True, 2, _taylor15_kernel),
}


def get_scheme(name: str) -> SchemeInfo:
    """Registry lookup; raises UnknownScheme for unregistered names."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise UnknownScheme(
            "unknown scheme %r; available: %s" % (name, ", ".join(sorted(SCHEMES)))
        ) from None


def require_commutativity(
    model: ModelSpec, order: int, tol: float = COMMUTATIVITY_TOL
) -> None:
    """Refuse models whose noise columns break the identities a map needs."""
    if order <= 0 or model.m == 1:
        return
    report = check_commutativity(model)
    if not report.satisfied(order, tol):
        raise CommutativityRequired(
            "model %r breaks the noise-column exchange identities "
            "(first order gap %.3g, second order gap %.3g, tol %.1g)"
            % (model.name, report.first_order_gap, report.second_order_gap, tol)
        )


# ---------------------------------------------------------------------------
# stepping


def march(kernel, coeffs, y0, regimes, hs, dw, dz, table):
    """Apply a one-step map along a grid to a batch of P paths at once.

    ``y0`` is (P, d), ``regimes`` (P, n) the regimes at the window starts,
    ``hs`` the n step sizes, ``dw`` and ``dz`` (P, n, m) and ``table`` the
    JumpRecords of the batch keyed by ``step * P + row``, or None when no
    path switches.  Yields (n, y) with the (P, d) states after each step.

    Raises:
      NonFiniteState: a state left the finite range; its ``step`` and ``row``
        locate the first bad row of the first bad step.
    """
    width = y0.shape[0]
    y = y0
    for n in range(regimes.shape[1]):
        jumps = None if table is None else table.at_step(n, width)
        y = kernel(coeffs, y, regimes[:, n], hs[n], dw[:, n], dz[:, n], jumps)
        if not np.isfinite(y).all():
            row = int(np.argmin(np.isfinite(y).all(axis=1)))
            raise NonFiniteState(
                "state left the finite range at step %d on batch row %d" % (n, row),
                step=n,
                row=row,
            )
        yield n, y


@dataclass(frozen=True)
class StepWindow:
    """Everything a one-step map consumes over one window (t_start, t_end]."""

    t_start: float
    t_end: float
    regime: int
    dw: np.ndarray
    dz: np.ndarray
    jumps: JumpRecords | None

    @property
    def h(self) -> float:
        return self.t_end - self.t_start


def build_step_window(chain: ChainPath, noise: NoisePath, s: float, t: float) -> StepWindow:
    """Assemble the window data for one step from a chain and its noise.

    Both endpoints must be grid times of the noise path with s < t.
    """
    if not (s < t):
        raise IntervalOutOfRange("need s < t, got (%r, %r)" % (s, t))
    return StepWindow(
        t_start=float(s),
        t_end=float(t),
        regime=int(chain.state_at(s)),
        dw=noise.increment_w(s, t),
        dz=noise.time_integral_w(s, t),
        jumps=jump_records(chain, noise, np.array([s, t])).at_step(0),
    )


def _step(model: ModelSpec, name: str, y, window: StepWindow) -> np.ndarray:
    info = get_scheme(name)
    require_commutativity(model, info.commutativity_order)
    y = np.asarray(y, dtype=float).reshape(1, model.d)
    ((_, out),) = march(
        info.kernel,
        model.coefficients,
        y,
        np.array([[window.regime]]),
        [window.h],
        window.dw[None, None],
        window.dz[None, None],
        window.jumps,
    )
    return out[0]


def step_euler(model: ModelSpec, y, window: StepWindow) -> np.ndarray:
    """Order 0.5 step: drift and diffusion at the window-start regime."""
    return _step(model, "euler", y, window)


def step_milstein(model: ModelSpec, y, window: StepWindow) -> np.ndarray:
    """Order 1.0 step: adds the pair noise term and the one-switch correction."""
    return _step(model, "milstein", y, window)


def step_taylor15(model: ModelSpec, y, window: StepWindow) -> np.ndarray:
    """Order 1.5 step: full time/noise expansion with switch corrections."""
    return _step(model, "taylor15", y, window)


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
    times = np.asarray(times, dtype=float).reshape(-1)
    if times.size < 2 or np.any(np.diff(times) <= 0):
        raise InvalidGrid("need at least two strictly increasing times")
    if times[0] < chain.t0 or times[-1] > chain.t_end:
        raise IntervalOutOfRange(
            "times [%g, %g] leave the chain span [%g, %g]"
            % (times[0], times[-1], chain.t0, chain.t_end)
        )
    dw, dz = noise.step_aggregates(times)
    states = np.empty((times.size, model.d))
    states[0] = model.x0
    steps = march(
        info.kernel,
        model.coefficients,
        states[:1],
        chain.states_at(times[:-1])[None, :],
        np.diff(times),
        dw[None],
        dz[None],
        jump_records(chain, noise, times),
    )
    for n, y in steps:
        states[n + 1] = y[0]
    return Trajectory(
        scheme=scheme,
        model_name=model.name,
        times=times.copy(),
        states=states,
        regimes=chain.states_at(times).astype(np.int64),
    )


def write_trajectory_csv(traj: Trajectory, file) -> None:
    """Rows (t, Y^1..Y^d, regime) at full float precision."""
    close = False
    if isinstance(file, (str, bytes)) or hasattr(file, "__fspath__"):
        file = open(file, "w")
        close = True
    try:
        d = traj.states.shape[1]
        file.write("t," + ",".join("y%d" % (k + 1) for k in range(d)) + ",regime\n")
        for i in range(traj.times.size):
            cells = ["%.17g" % traj.times[i]]
            cells += ["%.17g" % v for v in traj.states[i]]
            cells.append("%d" % traj.regimes[i])
            file.write(",".join(cells) + "\n")
    finally:
        if close:
            file.close()
