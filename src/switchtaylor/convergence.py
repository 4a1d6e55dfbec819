"""Strong-error estimation against a coupled reference on a fine grid.

A study compares each scheme with one of two kinds of reference, and the
model decides which.  A model whose coefficient set has ``exact`` (the
regime-wise linear fixtures with diagonal noise) is solvable path by path:
its reference is the closed-form solution on the finest tested grid merged
with the path's switch times, evaluated from the same W the schemes read.
Any other model gets the highest-order map its noise columns admit, marched
over the uniform reference grid and reading each switch from that grid's
``jump_records`` table.  Every path draws one chain path and one noise path
on the reference grid merged with its jump times, and the reference and each
coarse level read literally the same increments over shared windows.  The
per-path error is the maximum over the coarse grid points of the squared
distance to the reference, and the empirical order is the least-squares
slope of log2(sqrt(mean error)) against log2(h).

Reproducibility: path i is ``draw_path(model, grid, seed, i)``, whose
generators derive from SeedSequence((seed, i)), so path values are
independent of batching; paths are processed in fixed batches of
BATCH_PATHS, and batch partials are combined by pairwise tree summation in
batch order.  The error variance merges per-batch
(count, mean, sum of squared deviations) in the same tree, so the standard
error stays exact when the errors are large next to their spread.
Changing BATCH_PATHS itself may move sums by rounding, which is why it is a
module constant and not a knob.  ``run`` may spread the batches over forked
processes (see ``_forked``); since the tree is the same, so are the reports.
Threads do not help, because the per-path loop holds the GIL.

Draws are per path and window data per batch.  Each path draws its chain
and noise, gathers its prefix sums on the finest coarse grid (which nests
every coarse level) and records its switches per level; under a scheme
reference it also aggregates its noise on the reference grid, under a
closed-form one it reads W at its switch times.  The coarse increments of
the whole batch come from strided slices of those sums through
``noise.window_aggregates``, the formula of ``NoisePath.step_aggregates``,
so they carry the same bits as per-path aggregation; coarse regimes are
strided views of the finest looked-up grid's.  The closed form takes one
``exact`` call per batch, on every path's merged grid padded to a common
width.

Within a batch all paths step together through ``schemes.march``: one kernel
call per time step on a (batch, d) state block, with the switch records of
the batch merged into one table.  On a single core this beats per-path
stepping by roughly the batch width, which is what makes 10^4-path studies
affordable.  A state that leaves the finite range stops the study with an
error naming the pass, the level, the step and the path's seed index.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from dataclasses import dataclass

import numpy as np

from ._values import count, is_int, number
from .errors import (
    CouplingMismatch,
    InsufficientLevels,
    InvalidCoefficients,
    InvalidGrid,
    InvalidSeed,
    NonFiniteState,
    NonPositiveError,
    ReferenceNotFiner,
    StepTooLargeForChain,
    UnknownScheme,
    ValidationError,
    WorkerLost,
)
from .markov_chain import sample_path
from .model import ModelSpec, _einsum, check_commutativity
from .noise import GridSpec, build_noise, window_aggregates
from .schemes import (
    SCHEMES,
    get_scheme,
    jump_records,
    march,
    merge_records,
    require_commutativity,
)

__all__ = [
    "BATCH_PATHS",
    "CLOSED_FORM",
    "ExperimentPlan",
    "LevelResult",
    "ConvergenceReport",
    "reference_scheme_for",
    "draw_path",
    "strong_error",
    "fit_order",
    "run",
]

BATCH_PATHS = 512

# the reference kind of models whose coefficient set has ``exact``
CLOSED_FORM = "closed-form"

# minimum ratio of reference steps to the finest tested level
_REFERENCE_FACTOR = 16


@dataclass(frozen=True)
class ExperimentPlan:
    """A strong-order study: which schemes, which levels, how many paths.

    Levels are integer step counts over [0, t_end]; all must be powers of two so
    every coarse grid nests in the reference grid.  The reference must be at
    least 16 times finer than the finest tested level, and every step size
    (reference included) must stay below 1/(2 qmax) of the chain generator.
    Step counts and the path count run from 1 to 2**53, the integers a float
    holds exactly, since a study keeps t_end / n, the grid positions and its
    path count in floats.
    """

    model: ModelSpec
    schemes: tuple
    t_end: float
    coarse_steps: tuple
    reference_steps: int
    paths: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.model, ModelSpec):
            raise InvalidCoefficients(
                "model is a %s, not a ModelSpec" % type(self.model).__name__
            )
        t_end = number(self.t_end)
        if not 0 < t_end < np.inf:
            raise InvalidGrid("t_end must be positive and finite, got %r" % (self.t_end,))
        object.__setattr__(self, "t_end", t_end)
        if isinstance(self.schemes, str) or not hasattr(self.schemes, "__iter__"):
            raise UnknownScheme(
                "schemes is a %s, not a collection of scheme names" % type(self.schemes).__name__
            )
        names = tuple(self.schemes)
        for name in names:
            get_scheme(name)
        schemes = tuple(dict.fromkeys(names))
        if not schemes:
            raise InvalidGrid("need at least one scheme")
        object.__setattr__(self, "schemes", schemes)
        if not hasattr(self.coarse_steps, "__iter__"):
            raise InvalidGrid("coarse steps must be a collection, got %r" % (self.coarse_steps,))
        steps = {count(n, "coarse step count", InvalidGrid, dyadic=True) for n in self.coarse_steps}
        steps = tuple(sorted(steps))
        if not steps:
            raise InvalidGrid("need at least one coarse level")
        object.__setattr__(self, "coarse_steps", steps)
        reference = count(self.reference_steps, "reference step count", InvalidGrid, dyadic=True)
        object.__setattr__(self, "reference_steps", reference)
        object.__setattr__(self, "paths", count(self.paths, "path count", InvalidGrid))
        if self.reference_steps < _REFERENCE_FACTOR * steps[-1]:
            raise ReferenceNotFiner(
                "reference %d is not %dx finer than level %d"
                % (self.reference_steps, _REFERENCE_FACTOR, steps[-1])
            )
        if not (is_int(self.seed) and 0 <= int(self.seed) < 2**64):
            raise InvalidSeed("seed must be an integer in [0, 2**64), got %r" % (self.seed,))
        self._check_step(steps[0])

    def _check_step(self, n_steps: int) -> None:
        qmax = self.model.generator.qmax
        if qmax <= 0:
            return
        h = self.t_end / n_steps
        if h >= 0.5 / qmax:
            raise StepTooLargeForChain(
                "h = %g with %d steps is not below 1/(2 qmax) = %g"
                % (h, n_steps, 0.5 / qmax)
            )

    def h_of(self, n_steps: int) -> float:
        return self.t_end / n_steps


@dataclass(frozen=True)
class LevelResult:
    """One row of a study: a level's step size and its error statistics.

    ``second_moment_peak`` is the largest value, over the comparison grid,
    of the MC mean of the squared state magnitude.  The comparison grid is
    the plan's coarsest level, one fixed time set for every level, so the
    statistic is comparable across levels and its spread measures how the
    scheme's second moments drift with the step size.  The start point is
    left out because it is the same for every level, and a pathwise sup
    would instead grow with grid resolution alone and pick up each scheme's
    strong error, which the error columns already measure.
    """

    steps: int
    h: float
    mean_error: float
    stderr: float
    second_moment_peak: float


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-scheme study result: rows from coarse to fine plus the order fit."""

    scheme: str
    model_name: str
    paths: int
    rows: tuple
    gamma_hat: float
    r2: float
    runtime: float


def reference_scheme_for(model: ModelSpec) -> str:
    """The reference a study of the model compares against.

    ``CLOSED_FORM`` when the model's coefficient set has ``exact``;
    otherwise the name of the map in ``SCHEMES`` of highest strong order
    whose commutativity order the model's noise columns satisfy.
    """
    if callable(getattr(model.coefficients, "exact", None)):
        return CLOSED_FORM
    satisfied = check_commutativity(model).satisfied if model.m > 1 else (lambda order: True)
    return max(
        (info for info in SCHEMES.values() if satisfied(info.commutativity_order)),
        key=lambda info: info.strong_order,
    ).name


def _check_level_count(n: int) -> None:
    if n < 3:
        raise InsufficientLevels("order fit needs at least 3 levels, got %d" % n)


def fit_order(rows):
    """Least-squares order estimate from (h, mean squared error) rows.

    Accepts LevelResult objects or (h, mean_error) pairs.  Returns
    (gamma_hat, r_squared) where gamma_hat is the slope of
    log2(sqrt(mean_error)) against log2(h).

    Raises:
      InsufficientLevels: fewer than three rows.
      NonPositiveError: a mean error is zero, negative, not finite or not a number.
      InvalidGrid: a step size is zero, negative, not finite or not a number.
    """
    pairs = [(row.h, row.mean_error) if hasattr(row, "h") else (row[0], row[1]) for row in rows]
    _check_level_count(len(pairs))
    hs = [number(h) for h, _ in pairs]
    if not all(0 < h < np.inf for h in hs):
        raise InvalidGrid(
            "order fit needs positive finite step sizes, got %s" % ([h for h, _ in pairs],)
        )
    means_arr = np.array([number(mean) for _, mean in pairs])
    if not np.isfinite(means_arr).all() or np.any(means_arr <= 0):
        raise NonPositiveError("order fit needs positive finite mean errors")
    x = np.log2(np.asarray(hs))
    y = 0.5 * np.log2(means_arr)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    centered = y - y.mean()
    ss_tot = float(centered @ centered)
    if ss_tot > 0:
        r2 = 1.0 - ss_res / ss_tot
    else:
        r2 = 1.0 if ss_res < 1e-24 else 0.0
    return float(slope), float(r2)


def draw_path(model: ModelSpec, grid: GridSpec, seed: int, index: int):
    """Path ``index`` of the stream ``seed``: (chain, noise) on ``grid``.

    The chain's generator and then the noise's are the two children that
    SeedSequence((seed, index)).spawn(2) returns, built directly with spawn
    keys (0,) and (1,), so a path does not depend on which others are drawn.
    """
    entropy = (seed, int(index))
    chain_seed, noise_seed = (np.random.SeedSequence(entropy, spawn_key=(k,)) for k in (0, 1))
    rng = np.random.default_rng(chain_seed)
    chain = sample_path(model.generator, model.initial_regime, grid.t0, grid.t_end, rng)
    return chain, build_noise(grid, chain, model.m, np.random.default_rng(noise_seed))


# ---------------------------------------------------------------------------
# the batched engine


def _window_data(plan, levels, grid, indices, exact):
    """Per-level window data of one batch of paths, keyed by step count:
    (dw, dz) of shape (P, L, m), regimes (P, L) at the window starts, and
    the merged switch-record table, for every level and, under a scheme
    reference, the reference grid ``grid``.  The last item is the batch's
    closed-form reference states on the finest level when ``exact`` is
    set, and None otherwise."""
    model = plan.model
    m = model.m
    n_ref = plan.reference_steps
    n_fine = max(levels)
    P = len(indices)
    ref_times = grid.finest_times()
    recorded = sorted(set(levels) | {n_ref})
    # the levels that get passes; a closed-form reference needs no
    # reference-grid increments, regimes or records
    wanted = sorted(levels) if exact else recorded
    edges = {L: ref_times[:: n_ref // L] for L in recorded}
    fine_times = edges[n_fine]

    dw = {L: np.empty((P, L, m)) for L in wanted}
    dz = {L: np.empty((P, L, m)) for L in wanted}
    top_regs = np.empty((P, wanted[-1]), dtype=np.int64)
    # prefix sums (W, sum dZ, sum W dt) of every path on the finest coarse grid
    w, zsum, wdt = (np.empty((P, n_fine + 1, m)) for _ in range(3))
    records = {L: [] for L in wanted}
    switches = []
    # coupling spot check: one window of the finest level per path, summed
    # from the path's stored increments rather than from its prefix sums
    k = np.asarray(indices) % n_fine
    spot = np.empty((P, m))

    for slot, idx in enumerate(indices):
        chain, noise = draw_path(model, grid, plan.seed, idx)
        if not exact:
            dw[n_ref][slot], dz[n_ref][slot] = noise.step_aggregates(ref_times)
        w[slot], zsum[slot], wdt[slot] = noise.prefix_sums(fine_times)
        top_regs[slot] = chain.states_at(edges[wanted[-1]][:-1])
        lo, hi = noise.grid_indices(fine_times[k[slot] : k[slot] + 2])
        spot[slot] = noise.dw[lo:hi].sum(axis=0)
        # records at the reference level too: under a closed-form reference
        # nothing reads them, but the benchmark's tracer (perfbench/layers.py)
        # counts the switches per reference window from these calls
        for L in recorded:
            rec = jump_records(chain, noise, edges[L])
            if L in records:
                records[L].append(rec)
        if exact:
            jt = chain.jump_times[: np.searchsorted(chain.jump_times, plan.t_end)]
            switches.append((jt, noise.w_many(jt), chain.states_after[: jt.size]))

    for L in wanted if exact else wanted[:-1]:
        stride = n_fine // L
        lo, hi = slice(0, n_fine, stride), slice(stride, n_fine + 1, stride)
        window_aggregates(w, zsum, wdt, fine_times, lo, hi, out=(dw[L], dz[L]))
    regs = {L: top_regs[:, :: wanted[-1] // L] for L in wanted}
    reference = None
    if exact:
        reference = _closed_form_states(model, fine_times, w, regs[n_fine], switches)
    # the sums, and below each level's per-path records, are dropped once
    # used, so the batch's peak memory never holds them next to the tables
    del w, zsum, wdt

    rows = np.arange(P)
    bad = ~np.isclose(dw[n_fine][rows, k], spot, rtol=0.0, atol=1e-12).all(axis=1)
    if bad.any():
        row = int(np.argmax(bad))
        raise CouplingMismatch(
            "path %d: window %d of the %d-step level differs from the sum of "
            "the reference increments it spans" % (indices[row], k[row], n_fine)
        )

    tables = {L: merge_records(records.pop(L)) for L in wanted}
    return dw, dz, regs, tables, reference


def _closed_form_states(model, fine_times, w, regs, switches):
    """The exact states of a batch at the finest level's grid points,
    (P, n + 1, d), from one ``exact`` call.

    ``w`` (P, n + 1, m) and ``regs`` (P, n) hold W and the window-start
    regimes on that grid, and ``switches`` each path's (times, W, entered
    regimes) for its switches inside the span.  Each path's merged grid is
    the level's grid plus its switch times, placed by position: the k-th
    switch (k from 0) at time tau goes to column ``fine_times.searchsorted(
    tau, "right") + k``, after a grid point at tau, which adds a zero-length
    interval (the (s, t] rule of ``jump_records``), and grid point n to n
    plus the number of the path's switches before t_n.  The merged grids are
    padded up to the batch's widest with zero-length intervals at the end."""
    P, n1, m = w.shape
    counts = np.array([jt.size for jt, _, _ in switches])
    rows = np.repeat(np.arange(P), counts)
    after = np.searchsorted(fine_times, np.concatenate([sw[0] for sw in switches]), "right")
    cols = after + np.arange(rows.size) - np.repeat(np.cumsum(counts) - counts, counts)
    before = np.bincount(rows * n1 + after, minlength=P * n1).reshape(P, n1).cumsum(axis=1)
    where = np.arange(n1) + before
    K = n1 + int(counts.max(initial=0))
    times = np.full((P, K), fine_times[-1])
    wk = np.repeat(w[:, -1:], K, axis=1)
    rk = np.ones((P, K), dtype=np.int64)
    paths = np.arange(P)[:, None]
    times[paths, where] = fine_times
    wk[paths, where] = w
    rk[paths, where[:, :-1]] = regs
    for array, part in ((times, 0), (wk, 1), (rk, 2)):
        array[rows, cols] = np.concatenate([sw[part] for sw in switches])
    x0 = np.tile(model.x0, (P, 1))
    ends = model.coefficients.exact(x0, rk[:, :-1], np.diff(times, axis=1), np.diff(wk, axis=1))
    out = np.empty((P, n1, model.d))
    out[:, 0] = x0
    # the state at a grid point ends the interval just before its column
    out[:, 1:] = np.take_along_axis(ends, where[:, 1:, None] - 1, axis=1)
    return out


def _batch_partial(plan, levels, schemes, ref_scheme, grid, indices):
    """Process one fixed batch of path indices; return per-(scheme, level)
    accumulators of its sup-squared errors and moment sums (``_accumulator``)."""
    model = plan.model
    coeffs = model.coefficients
    d = model.d
    n_ref = plan.reference_steps
    n_fine = max(levels)
    stride_f = n_ref // n_fine
    P = len(indices)

    dw, dz, regs, tables, ref_keep = _window_data(
        plan, levels, grid, indices, ref_scheme == CLOSED_FORM
    )

    def nonfinite(what, L, step, row):
        # names the pass, the level, the step and the seed index of the row
        return NonFiniteState(
            "%s at level %d left the finite range at step %d on path %d "
            "(seed index i of SeedSequence((seed, i)))" % (what, L, step, indices[row]),
            step=step,
            row=row,
        )

    def steps(info, L, what):
        # march over level L; a non-finite state names the first bad path
        y0 = np.tile(model.x0, (P, 1))
        hs = np.full(L, plan.t_end / L)
        try:
            yield from march(info, coeffs, y0, regs[L], hs, dw[L], dz[L], tables[L])
        except NonFiniteState as exc:
            raise nonfinite(what, L, exc.step, exc.row) from None

    what = "reference pass (%s)" % ref_scheme
    if ref_keep is None:
        # scheme reference, keeping states on the finest tested grid
        ref_keep = np.empty((P, n_fine + 1, d))
        ref_keep[:, 0] = model.x0
        for n, y in steps(get_scheme(ref_scheme), n_ref, what):
            if (n + 1) % stride_f == 0:
                ref_keep[:, (n + 1) // stride_f] = y
    else:
        bad = ~np.isfinite(ref_keep[:, 1:]).all(axis=2)
        if bad.any():
            step = int(np.argmax(bad.any(axis=0)))
            raise nonfinite(what, n_fine, step, int(np.argmax(bad[:, step])))

    out = {}
    n_cmp = min(plan.coarse_steps)
    for name in schemes:
        info = get_scheme(name)
        for L in levels:
            stride_rel = n_fine // L
            # moment statistics live on the plan's coarsest grid so that
            # every level is read at the same time set; a level below it is
            # nested in that grid and keeps every step
            stride_cmp = max(L // n_cmp, 1)
            err = np.zeros(P)
            moment_sums = np.zeros(L // stride_cmp)
            for n, y in steps(info, L, "scheme %s" % name):
                diff = y - ref_keep[:, (n + 1) * stride_rel]
                err = np.maximum(err, _einsum("bk,bk->b", diff, diff))
                if (n + 1) % stride_cmp == 0:
                    moment_sums[(n + 1) // stride_cmp - 1] += _einsum("bk,bk->", y, y)
            out[(name, L)] = _accumulator(err, moment_sums)
    return out


def _accumulator(err, moment_sums):
    """[error sum, M2, path count, mean correction, then the summed squared
    magnitudes at each comparison-grid time] of one batch.

    M2 is the sum of squared deviations from the batch mean, taken in two
    passes.  The mean correction is the batch mean minus error sum / count:
    a mean of large, nearly equal errors rounds to the spacing of doubles
    near it, and the merge reads differences of such means."""
    n = err.size
    total = err.sum()
    dev = err - total / n
    correction = dev.sum() / n
    dev -= correction
    return np.concatenate([[total, float(dev @ dev), n, correction], moment_sums])


def _merge(a, b):
    """Pairwise merge of two accumulators (Chan, Golub & LeVeque 1979):
    sums, counts and moment sums add, and M2 gains the between-part term
    delta^2 n_a n_b / n, with delta the difference of the two exact means."""
    out = a + b
    na, nb, n = a[2], b[2], out[2]
    mean_a = a[0] / na
    delta = (b[0] / nb - mean_a) + (b[3] - a[3])
    out[1] += delta * delta * (na * nb / n)
    out[3] = (mean_a - out[0] / n) + a[3] + delta * (nb / n)
    return out


def _tree_reduce(parts):
    items = list(parts)
    while len(items) > 1:
        merged = []
        for i in range(0, len(items) - 1, 2):
            merged.append({k: _merge(items[i][k], items[i + 1][k]) for k in items[i]})
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def _share(partial, batches):
    """(k, partial(k)) for the batches k in turn, up to the first that
    raises, which ends the list as (k, its exception)."""
    done = []
    for k in batches:
        try:
            done.append((k, partial(k)))
        except Exception as exc:
            done.append((k, exc))
            break
    return done


def _child(partial, batches, write):
    """A forked worker: pickles its ``_share`` into the pipe ``write``.  It
    leaves through ``os._exit`` only, so it never returns into the caller's
    stack or flushes the caller's stdio; an exit status other than 0 means
    no complete result."""
    status = 1
    try:
        data = pickle.dumps(_share(partial, batches), pickle.HIGHEST_PROTOCOL)
        with open(write, "wb") as pipe:
            pipe.write(data)
        status = 0
    finally:
        os._exit(status)


def _read_to_end(fd) -> bytes:
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    return b"".join(chunks)


def _forked(partial, paths, workers):
    """The partials of the batches of ``paths``, in batch order, from
    ``workers`` processes.  Batch k is computed by process k % workers:
    process 0 is the caller, which computes its share after forking the
    others.  A failing batch ends its process's share; the error of the
    lowest failing batch is raised, as a serial run would raise it, so a
    child whose batches all lie above a known failure is killed unread.
    Every child is reaped before this returns or raises, and any raise here
    kills the children first: one blocked on a full pipe would never exit."""
    batches = len(paths[::BATCH_PATHS])
    pids, reads = [], []
    reaped = 0
    try:
        for w in range(1, workers):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _child(partial, range(w, batches, workers), write)
            finally:
                os.close(write)
            pids.append(pid)
        done = _share(partial, range(0, batches, workers))
        low = done[-1][0] if isinstance(done[-1][1], Exception) else batches
        for w, (pid, read) in enumerate(zip(pids, reads), 1):
            if w > low:
                _kill(pid)
            data = _read_to_end(read)
            status = os.waitpid(pid, 0)[1]
            reaped += 1
            if w > low:
                continue
            try:
                share = pickle.loads(data) if status == 0 else None
            except Exception:
                share = None
            if share is None:
                lo = w * BATCH_PATHS
                more = " and every %d paths on" % (workers * BATCH_PATHS)
                raise WorkerLost(
                    "the worker process for paths %d to %d%s ended without a complete "
                    "result (wait status %d)"
                    % (lo, paths[lo : lo + BATCH_PATHS][-1], more * (w + workers < batches), status)
                )
            done += share
            if isinstance(share[-1][1], Exception):
                low = min(low, share[-1][0])
    except BaseException:
        for pid in pids[reaped:]:
            _kill(pid)
        raise
    finally:
        for read in reads:
            os.close(read)
        for pid in pids[reaped:]:
            os.waitpid(pid, 0)
    parts = dict(done)
    if low < batches:
        raise parts[low]
    return [parts[k] for k in range(batches)]


def _kill(pid):
    from signal import SIGKILL  # only a failing forked run needs it

    os.kill(pid, SIGKILL)


def _run_engine(plan, levels, schemes, workers=1):
    for name in schemes:
        require_commutativity(plan.model, get_scheme(name).commutativity_order)
    ref_scheme = reference_scheme_for(plan.model)
    grid = GridSpec(0.0, plan.t_end, plan.reference_steps)
    # a batch's index range is made as it runs, so no path count lists them all first
    paths = range(plan.paths)
    batches = len(paths[::BATCH_PATHS])
    if sys.platform == "linux":
        workers = min(workers, batches, len(os.sched_getaffinity(0)))
    else:
        workers = 1

    def partial(k):
        lo = k * BATCH_PATHS
        return _batch_partial(plan, levels, schemes, ref_scheme, grid, paths[lo : lo + BATCH_PATHS])

    # a diverging path is reported by NonFiniteState, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        if workers > 1:
            return _tree_reduce(_forked(partial, paths, workers))
        return _tree_reduce(partial(k) for k in range(batches))


def _stats(acc):
    total, m2, count = acc[0], acc[1], acc[2]
    stderr = float(np.sqrt(m2 / (count - 1) / count)) if count > 1 else 0.0
    return float(total / count), stderr, float(acc[4:].max() / count)


def strong_error(plan: ExperimentPlan, level: int, scheme: str | None = None):
    """Mean and standard error of the sup-squared gap at one level.

    The level may be any power of two up to the reference count (it does not
    have to be in the plan's coarse list).  Under a scheme reference, a level
    equal to the reference count run with the reference's own scheme
    reproduces the reference and returns exactly zero; under a closed-form
    reference it measures the scheme's error at that level.
    """
    level = count(level, "level", InvalidGrid, dyadic=True)
    if level > plan.reference_steps:
        raise ReferenceNotFiner(
            "level %d exceeds the reference %d" % (level, plan.reference_steps)
        )
    plan._check_step(level)
    if scheme is None:
        scheme = plan.schemes[0]
    acc = _run_engine(plan, [level], [scheme])
    mean, stderr, _ = _stats(acc[(scheme, level)])
    return mean, stderr


def run(plan: ExperimentPlan, threads: int = 1) -> dict:
    """Run the full study; one ConvergenceReport per scheme in the plan.

    The recorded runtime is the wall time of the whole study (the schemes
    share every path, so per-scheme attribution is not meaningful).

    ``threads`` is the number of processes, an integer from 1; a study runs
    in min(threads, its batch count, the CPUs this process may use) of
    them.  On Linux the caller forks the others with ``os.fork``, computes
    its own share of the batches while they compute theirs, and reads their
    partials back through pipes; elsewhere, or with one process, the
    batches run one after another in the caller.  The batches are summed in
    the same tree either way, so the reports are bit-identical at any
    count, and a failing study raises the error a serial run would.  A fork
    pickles no plan, so ``CallableCoefficients`` holding lambdas work too.
    A fork copies only the calling thread, so a caller whose other threads
    may hold locks that a child would need should pass ``threads=1``.
    Fewer than three coarse levels raise ``InsufficientLevels`` before any draw.
    """
    workers = count(threads, "threads", ValidationError)
    _check_level_count(len(plan.coarse_steps))
    started = time.perf_counter()
    acc = _run_engine(plan, list(plan.coarse_steps), list(plan.schemes), workers)
    elapsed = time.perf_counter() - started
    reports = {}
    for name in plan.schemes:
        rows = []
        for L in plan.coarse_steps:
            mean, stderr, peak = _stats(acc[(name, L)])
            rows.append(
                LevelResult(
                    steps=L,
                    h=plan.h_of(L),
                    mean_error=mean,
                    stderr=stderr,
                    second_moment_peak=peak,
                )
            )
        gamma_hat, r2 = fit_order(rows)
        reports[name] = ConvergenceReport(
            scheme=name,
            model_name=plan.model.name,
            paths=plan.paths,
            rows=tuple(rows),
            gamma_hat=gamma_hat,
            r2=r2,
            runtime=elapsed,
        )
    return reports
