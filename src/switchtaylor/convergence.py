"""Strong-error estimation against a coupled fine-grid reference.

The true solution under switching has no usable closed form, so a fine
trajectory computed by the highest-order map the model admits stands in for
it.  Every Monte Carlo path draws one chain path and one noise path on the
reference grid merged with the chain's jump times, then integrates the
reference and each coarse level from the same draw, so coarse and reference
read literally the same increments over shared windows.  The per-path error
is the maximum over the coarse grid points of the squared distance to the
reference, and the empirical order is the least-squares slope of
log2(sqrt(mean error)) against log2(h).

Reproducibility: path i derives its generators from SeedSequence((seed, i)),
so path values are independent of batching; paths are processed one fixed
batch of BATCH_PATHS after another in one thread, and batch partials are
combined by pairwise tree summation.  Changing BATCH_PATHS itself may move
sums by rounding, which is why it is a module constant and not a knob.  A
thread pool over the batches was measured slower than one thread on every
study the benchmark runs, so there is none.

Within a batch all paths step together through ``schemes.march``: one kernel
call per time step on a (batch, d) state block, with the switch records of
the batch merged into one table.  On a single core this beats per-path
stepping by roughly the batch width, which is what makes 10^4-path studies
affordable.  A state that leaves the finite range stops the study with an
error naming the pass, the level, the step and the path's seed index.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import (
    CouplingMismatch,
    InsufficientLevels,
    InvalidGrid,
    NonFiniteState,
    NonPositiveError,
    ReferenceNotFiner,
    StepTooLargeForChain,
)
from .markov_chain import sample_path
from .model import ModelSpec, check_commutativity
from .noise import GridSpec, build_noise
from .schemes import (
    get_scheme,
    jump_records,
    march,
    merge_records,
    require_commutativity,
)

__all__ = [
    "BATCH_PATHS",
    "ExperimentPlan",
    "LevelResult",
    "ConvergenceReport",
    "reference_scheme_for",
    "strong_error",
    "fit_order",
    "run",
]

BATCH_PATHS = 512

# minimum ratio of reference steps to the finest tested level
_REFERENCE_FACTOR = 16


def _is_dyadic(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class ExperimentPlan:
    """A strong-order study: which schemes, which levels, how many paths.

    Levels are step counts over [0, t_end]; all must be powers of two so
    every coarse grid nests in the reference grid.  The reference must be at
    least 16 times finer than the finest tested level, and every step size
    (reference included) must stay below 1/(2 qmax) of the chain generator.
    """

    model: ModelSpec
    schemes: tuple
    t_end: float
    coarse_steps: tuple
    reference_steps: int
    paths: int
    seed: int

    def __post_init__(self):
        if self.t_end <= 0:
            raise InvalidGrid("t_end must be positive")
        schemes = tuple(dict.fromkeys(self.schemes))
        if not schemes:
            raise InvalidGrid("need at least one scheme")
        for name in schemes:
            get_scheme(name)
        object.__setattr__(self, "schemes", schemes)
        steps = tuple(sorted(set(int(n) for n in self.coarse_steps)))
        if not steps:
            raise InvalidGrid("need at least one coarse level")
        for n in steps + (self.reference_steps,):
            if not _is_dyadic(n):
                raise InvalidGrid("step counts must be powers of two, got %r" % (n,))
        object.__setattr__(self, "coarse_steps", steps)
        if self.reference_steps < _REFERENCE_FACTOR * steps[-1]:
            raise ReferenceNotFiner(
                "reference %d is not %dx finer than level %d"
                % (self.reference_steps, _REFERENCE_FACTOR, steps[-1])
            )
        if self.paths < 1:
            raise InvalidGrid("need at least one path")
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
    """The highest-order map the model's noise columns admit."""
    if model.m == 1:
        return "taylor15"
    report = check_commutativity(model)
    if report.satisfied(2):
        return "taylor15"
    if report.satisfied(1):
        return "milstein"
    return "euler"


def fit_order(rows):
    """Least-squares order estimate from (h, mean squared error) rows.

    Accepts LevelResult objects or (h, mean_error) pairs.  Returns
    (gamma_hat, r_squared) where gamma_hat is the slope of
    log2(sqrt(mean_error)) against log2(h).

    Raises:
      InsufficientLevels: fewer than three rows.
      NonPositiveError: a mean error is zero, negative, or not finite.
    """
    hs = []
    means = []
    for row in rows:
        if hasattr(row, "h"):
            hs.append(float(row.h))
            means.append(float(row.mean_error))
        else:
            hs.append(float(row[0]))
            means.append(float(row[1]))
    if len(hs) < 3:
        raise InsufficientLevels("order fit needs at least 3 levels, got %d" % len(hs))
    means_arr = np.asarray(means)
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


# ---------------------------------------------------------------------------
# the batched engine


def _batch_partial(plan, levels, schemes, ref_scheme, ref_times, indices):
    """Process one fixed batch of path indices; return per-(scheme, level)
    accumulators [error sum, error square sum, path count, then the summed
    squared magnitudes at each comparison-grid time]."""
    model = plan.model
    coeffs = model.coefficients
    m, d = model.m, model.d
    n_ref = plan.reference_steps
    n_fine = max(levels)
    stride_f = n_ref // n_fine
    P = len(indices)
    grid = GridSpec(0.0, plan.t_end, n_ref)
    wanted = sorted(set(levels) | {n_ref})

    dw = {L: np.empty((P, L, m)) for L in wanted}
    dz = {L: np.empty((P, L, m)) for L in wanted}
    regs = {L: np.empty((P, L), dtype=np.int64) for L in wanted}
    records = {L: [] for L in wanted}

    for slot, idx in enumerate(indices):
        seq = np.random.SeedSequence((plan.seed, int(idx)))
        chain_seed, noise_seed = seq.spawn(2)
        chain = sample_path(
            model.generator,
            model.initial_regime,
            0.0,
            plan.t_end,
            np.random.default_rng(chain_seed),
        )
        noise = build_noise(grid, chain, m, np.random.default_rng(noise_seed))
        for L in wanted:
            times_l = ref_times[:: n_ref // L]
            dw[L][slot], dz[L][slot] = noise.step_aggregates(times_l)
            regs[L][slot] = chain.states_at(times_l[:-1])
            records[L].append(jump_records(chain, noise, times_l))
        # coupling spot check: one coarse window per path must hold exactly
        # the sum of the reference increments it spans
        k = int(idx) % n_fine
        lhs = dw[n_fine][slot, k]
        rhs = dw[n_ref][slot, k * stride_f : (k + 1) * stride_f].sum(axis=0)
        if not np.allclose(lhs, rhs, rtol=0.0, atol=1e-12):
            raise CouplingMismatch(
                "path %d: window %d of the %d-step level differs from the sum of "
                "the reference increments it spans" % (idx, k, n_fine)
            )

    tables = {L: merge_records(records[L]) for L in wanted}

    def steps(kernel, L, what):
        # march over level L; a non-finite state names the pass, the level,
        # the step and the seed index of the first bad path
        y0 = np.tile(model.x0, (P, 1))
        hs = np.full(L, plan.t_end / L)
        try:
            yield from march(kernel, coeffs, y0, regs[L], hs, dw[L], dz[L], tables[L])
        except NonFiniteState as exc:
            raise NonFiniteState(
                "%s at level %d left the finite range at step %d on path %d "
                "(seed index i of SeedSequence((seed, i)))"
                % (what, L, exc.step, indices[exc.row]),
                step=exc.step,
                row=exc.row,
            ) from None

    # reference pass, keeping states on the finest tested grid
    ref_keep = np.empty((P, n_fine + 1, d))
    ref_keep[:, 0] = model.x0
    ref_kernel = get_scheme(ref_scheme).kernel
    for n, y in steps(ref_kernel, n_ref, "reference pass (%s)" % ref_scheme):
        if (n + 1) % stride_f == 0:
            ref_keep[:, (n + 1) // stride_f] = y

    out = {}
    n_cmp = min(plan.coarse_steps)
    for name in schemes:
        kernel = get_scheme(name).kernel
        for L in levels:
            stride_rel = n_fine // L
            # moment statistics live on the plan's coarsest grid so that
            # every level is read at the same time set; a level below it is
            # nested in that grid and keeps every step
            stride_cmp = max(L // n_cmp, 1)
            err = np.zeros(P)
            moment_sums = np.zeros(L // stride_cmp)
            for n, y in steps(kernel, L, "scheme %s" % name):
                diff = y - ref_keep[:, (n + 1) * stride_rel]
                err = np.maximum(err, np.einsum("bk,bk->b", diff, diff))
                if (n + 1) % stride_cmp == 0:
                    moment_sums[(n + 1) // stride_cmp - 1] += np.einsum("bk,bk->", y, y)
            out[(name, L)] = np.concatenate(
                [[err.sum(), float(err @ err), P], moment_sums]
            )
    return out


def _tree_reduce(parts):
    items = list(parts)
    if not items:
        return {}
    while len(items) > 1:
        merged = []
        for i in range(0, len(items) - 1, 2):
            merged.append({k: items[i][k] + items[i + 1][k] for k in items[i]})
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


def _run_engine(plan, levels, schemes):
    for name in schemes:
        require_commutativity(plan.model, get_scheme(name).commutativity_order)
    ref_scheme = reference_scheme_for(plan.model)
    ref_times = GridSpec(0.0, plan.t_end, plan.reference_steps).finest_times()
    batches = [
        range(lo, min(lo + BATCH_PATHS, plan.paths))
        for lo in range(0, plan.paths, BATCH_PATHS)
    ]
    return _tree_reduce(
        _batch_partial(plan, levels, schemes, ref_scheme, ref_times, indices)
        for indices in batches
    )


def _stats(acc):
    total, total_sq, count = acc[0], acc[1], acc[2]
    mean = total / count
    if count > 1:
        var = max(total_sq - count * mean * mean, 0.0) / (count - 1)
        stderr = float(np.sqrt(var / count))
    else:
        stderr = 0.0
    return float(mean), stderr, float(acc[3:].max() / count)


def strong_error(plan: ExperimentPlan, level: int, scheme: str | None = None, threads: int = 1):
    """Mean and standard error of the sup-squared gap at one level.

    The level may be any power of two up to the reference count (it does not
    have to be in the plan's coarse list), so a level equal to the reference
    reproduces the reference integrator and returns exactly zero.
    ``threads`` is accepted for existing callers and has no effect.
    """
    level = int(level)
    if not _is_dyadic(level):
        raise InvalidGrid("level must be a power of two, got %r" % (level,))
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
    ``threads`` is accepted for existing callers and has no effect.
    """
    started = time.perf_counter()
    acc = _run_engine(plan, list(plan.coarse_steps), list(plan.schemes))
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
