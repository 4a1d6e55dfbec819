"""Strong-error engine: validation, coupling, order fits, determinism."""

import importlib
import math
import os
import sys
import time
import warnings
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from switchtaylor import (
    CallableCoefficients,
    ChainPath,
    CommutativityReport,
    ConvergenceReport,
    DiagonalLinearCoefficients,
    ExperimentPlan,
    GeneratorMatrix,
    GridSpec,
    JumpRecords,
    LevelResult,
    MeanRevertingCoefficients,
    ModelSpec,
    NoisePath,
    build_noise,
    fit_order,
    fixture,
    jump_records,
    merge_records,
    reference_scheme_for,
    run,
    sample_path,
    strong_error,
)
import switchtaylor
from switchtaylor import convergence, schemes
from switchtaylor.convergence import CLOSED_FORM
from switchtaylor.errors import (
    CommutativityRequired,
    CouplingMismatch,
    InsufficientLevels,
    InvalidGrid,
    InvalidSeed,
    NonFiniteState,
    NonPositiveError,
    ReferenceNotFiner,
    StepTooLargeForChain,
    UnknownScheme,
    WorkerLost,
)

LIN = fixture("linear2")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def small_plan(**overrides):
    kwargs = dict(
        model=LIN,
        schemes=("taylor15",),
        t_end=1.0,
        coarse_steps=(4,),
        reference_steps=64,
        paths=4,
        seed=5,
    )
    kwargs.update(overrides)
    return ExperimentPlan(**kwargs)


def test_coupling_check_names_path_and_window(monkeypatch):
    # perturb window 0 of every coarse level's batched aggregation; the spot
    # check of path 0 reads window 0 of the finest coarse level
    plan = small_plan()
    original = convergence.window_aggregates

    def perturbed(*args, **kwargs):
        dw, dz = original(*args, **kwargs)
        dw[:, 0] += 1e-6
        return dw, dz

    monkeypatch.setattr(convergence, "window_aggregates", perturbed)
    with pytest.raises(CouplingMismatch, match="path 0: window 0 of the 4-step level"):
        strong_error(plan, 4)


def test_coupling_check_reads_the_stored_increments_at_the_reference_level(monkeypatch):
    # at level == reference the finest level's increments are the reference
    # aggregation itself; the spot check must still compare them with the
    # path's stored increments, not with themselves
    plan = small_plan(model=fixture("additive"))
    original = NoisePath.step_aggregates

    def perturbed(self, edges):
        dw, dz = original(self, edges)
        dw[0] += 1e-6
        return dw, dz

    monkeypatch.setattr(NoisePath, "step_aggregates", perturbed)
    with pytest.raises(CouplingMismatch, match="path 0: window 0 of the 64-step level"):
        strong_error(plan, plan.reference_steps)


def _same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes()


def _planted_chains(model):
    """Chains with the switch patterns the window bookkeeping must carry:
    none; one on a point of every grid and one on a reference grid point
    only; two in one window of the coarsest level; three, and four, in one
    reference window (reference 512 steps on [0, 1])."""
    patterns = (
        [],
        [3 / 512, 0.5],
        [0.30, 0.33],
        [0.1, 0.1005, 0.101],
        [0.7001, 0.7002, 0.7003, 0.7004, 0.9],
    )
    out = []
    for times in patterns:
        states, state = [], model.initial_regime
        for _ in times:
            state = state % model.m0 + 1
            states.append(state)
        states = np.array(states, dtype=np.int64)
        out.append(ChainPath(0.0, 1.0, model.initial_regime, times, states))
    return out


def _closed_form_by_path(model, chain, noise, times):
    # x0 exp(sum of (a - c^2/2) dt + c dW) over the grid of ``times`` merged
    # with the path's switches, straight from w_many and states_at
    coeffs = model.coefficients
    grid = np.union1d(times, chain.jump_times[chain.jump_times < times[-1]])
    w = noise.w_many(grid)
    rows = chain.states_at(grid[:-1]) - 1
    a = np.asarray(coeffs.a, dtype=float).reshape(model.m0, model.d)[rows]
    c = np.asarray(coeffs.c, dtype=float).reshape(model.m0, model.d)[rows]
    log = (a - 0.5 * c * c) * np.diff(grid)[:, None] + c * np.diff(w, axis=0)
    states = model.x0 * np.exp(np.vstack([np.zeros(model.d), np.cumsum(log, axis=0)]))
    return states[np.searchsorted(grid, times)]


@pytest.mark.parametrize("name", ["linear2", "additive"])
def test_path_i_of_a_batch_is_draw_path_of_seed_and_i(name):
    # one seeding policy: SeedSequence((seed, i)) spawns the chain's
    # generator, then the noise's, and the engine's path i is that draw
    model = fixture(name)
    plan = small_plan(model=model, coarse_steps=(4, 8), reference_steps=128, seed=21)
    grid = GridSpec(0.0, plan.t_end, plan.reference_steps)
    ref_times = grid.finest_times()
    indices = range(5, 8)
    dw, dz, regs, _, _ = convergence._window_data(plan, [4, 8], grid, indices, False)
    for slot, i in enumerate(indices):
        chain, noise = convergence.draw_path(model, grid, plan.seed, i)
        want_dw, want_dz = noise.step_aggregates(ref_times)
        _same_bits(dw[128][slot], want_dw)
        _same_bits(dz[128][slot], want_dz)
        _same_bits(regs[128][slot], chain.states_at(ref_times[:-1]))
        chain_seed, noise_seed = np.random.SeedSequence((plan.seed, i)).spawn(2)
        rng = np.random.default_rng(chain_seed)
        want = sample_path(model.generator, 1, 0.0, plan.t_end, rng)
        _same_bits(chain.jump_times, want.jump_times)
        _same_bits(chain.states_after, want.states_after)
        rng = np.random.default_rng(noise_seed)
        _same_bits(noise.dw, build_noise(grid, chain, model.m, rng).dw)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1])
def test_draw_path_generators_are_the_two_spawned_children(monkeypatch, seed):
    # draw_path builds the children with spawn keys (0,) and (1,) instead of
    # spawning them; the generators the chain and the noise draw from must
    # start where those of SeedSequence((seed, i)).spawn(2) start
    states = []

    def entry_state(fn):
        def wrapper(*args):
            states.append(args[-1].bit_generator.state)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(convergence, "sample_path", entry_state(sample_path))
    monkeypatch.setattr(convergence, "build_noise", entry_state(build_noise))
    grid = GridSpec(0.0, 1.0, 8)
    for index in (0, 511, 10**9):
        states.clear()
        convergence.draw_path(LIN, grid, seed, index)
        children = np.random.SeedSequence((seed, index)).spawn(2)
        assert states == [np.random.default_rng(child).bit_generator.state for child in children]


@pytest.mark.parametrize("name", ["linear2", "diagonal3", "additive"])
def test_batched_window_data_equals_the_per_path_queries(monkeypatch, name):
    # the engine aggregates coarse levels for the whole batch from gathered
    # prefix sums; every level must carry the very bits of the per-path
    # NoisePath.step_aggregates, ChainPath.states_at and jump_records, and
    # a closed-form reference must equal the per-path exact solution
    model = fixture(name)
    plan = small_plan(
        model=model, schemes=("euler",), coarse_steps=(8, 16, 32), reference_steps=512, paths=8
    )
    exact = reference_scheme_for(model) == CLOSED_FORM
    assert exact == (name != "additive")
    planted = iter(_planted_chains(model))
    paths = []

    def sample(*args):
        return next(planted, None) or sample_path(*args)

    def build(*args):
        noise = build_noise(*args)
        paths.append((args[1], noise))
        return noise

    monkeypatch.setattr(convergence, "sample_path", sample)
    monkeypatch.setattr(convergence, "build_noise", build)
    grid = GridSpec(0.0, 1.0, 512)
    ref_times = grid.finest_times()
    dw, dz, regs, tables, reference = convergence._window_data(
        plan, list(plan.coarse_steps), grid, range(plan.paths), exact
    )
    assert len(paths) == plan.paths
    levels = (8, 16, 32) if exact else (8, 16, 32, 512)
    assert sorted(dw) == list(levels)
    for L in levels:
        edges = ref_times[:: 512 // L]
        aggregates = [noise.step_aggregates(edges) for _, noise in paths]
        _same_bits(dw[L], np.stack([a[0] for a in aggregates]))
        _same_bits(dz[L], np.stack([a[1] for a in aggregates]))
        _same_bits(regs[L], np.stack([chain.states_at(edges[:-1]) for chain, _ in paths]))
        want = merge_records([jump_records(chain, noise, edges) for chain, noise in paths])
        for field in fields(want):
            _same_bits(getattr(tables[L], field.name), getattr(want, field.name))
    # the planted patterns reached the tables
    assert 2 in tables[8].counts
    assert {3, 4} <= set(tables[levels[-1]].counts)
    if exact:
        fine = ref_times[:: 512 // 32]
        want = np.stack([_closed_form_by_path(model, c, n, fine) for c, n in paths])
        assert reference.shape == want.shape
        np.testing.assert_allclose(reference, want, rtol=1e-13, atol=0.0)
    else:
        assert reference is None


def _closed_form_by_sorting(model, fine_times, w, regs, switches):
    # the merge as a sort, kept as the reference of the engine's placement:
    # each path's switches go after its grid block, a stable argsort puts
    # every row in time order (a grid point ahead of a switch at its time),
    # and the inverse permutation finds each grid point's merged column
    P, n1, _ = w.shape
    counts = np.array([jt.size for jt, _, _ in switches])
    K = n1 + int(counts.max(initial=0))
    times = np.full((P, K), fine_times[-1])
    wk = np.repeat(w[:, -1:], K, axis=1)
    rk = np.ones((P, K), dtype=np.int64)
    times[:, :n1] = fine_times
    wk[:, :n1] = w
    rk[:, : n1 - 1] = regs
    if counts.any():
        rows = np.repeat(np.arange(P), counts)
        cols = n1 + np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        for array, part in ((times, 0), (wk, 1), (rk, 2)):
            array[rows, cols] = np.concatenate([sw[part] for sw in switches])
    order = np.argsort(times, axis=1, kind="stable")
    times = np.take_along_axis(times, order, axis=1)
    wk = np.take_along_axis(wk, order[:, :, None], axis=1)
    rk = np.take_along_axis(rk, order, axis=1)
    x0 = np.tile(model.x0, (P, 1))
    ends = model.coefficients.exact(x0, rk[:, :-1], np.diff(times, axis=1), np.diff(wk, axis=1))
    where = np.empty_like(order)
    np.put_along_axis(where, order, np.arange(K)[None, :], axis=1)
    out = np.empty((P, n1, model.d))
    out[:, 0] = x0
    out[:, 1:] = np.take_along_axis(ends, where[:, 1:n1, None] - 1, axis=1)
    return out


@pytest.mark.parametrize("name", ["linear2", "diagonal3"])
@pytest.mark.parametrize("batch", ["planted", "random"])
def test_closed_form_placement_is_the_sorted_merge(monkeypatch, name, batch):
    # the engine places each switch and grid point at its merged column;
    # on the planted switch patterns (a switch on a point of every grid, two
    # in one coarse window, three and four in one reference window) and on
    # one full batch of drawn paths it must hand ``exact`` what the sorted
    # merge hands it, so the states carry the same bytes
    model = fixture(name)
    if batch == "planted":
        levels, n_ref, paths = (8, 16, 32), 512, 8
        planted = iter(_planted_chains(model))
        monkeypatch.setattr(
            convergence, "sample_path", lambda *args: next(planted, None) or sample_path(*args)
        )
    else:
        levels, n_ref, paths = (8, 16, 32, 64), 1024, convergence.BATCH_PATHS
    plan = small_plan(
        model=model, schemes=("euler",), coarse_steps=levels, reference_steps=n_ref, paths=paths
    )
    pairs = []
    placed = convergence._closed_form_states

    def both(*args):
        pairs.append((placed(*args), _closed_form_by_sorting(*args)))
        return pairs[-1][0]

    monkeypatch.setattr(convergence, "_closed_form_states", both)
    convergence._window_data(
        plan, list(levels), GridSpec(0.0, 1.0, n_ref), range(plan.paths), True
    )
    ((got, want),) = pairs
    _same_bits(got, want)


def test_closed_form_only_where_the_coefficients_have_exact(monkeypatch):
    calls = Counter()
    original = convergence._closed_form_states

    def counted(*args):
        calls["closed form"] += 1
        return original(*args)

    monkeypatch.setattr(convergence, "_closed_form_states", counted)
    callable_model = ModelSpec(
        name="callable-linear",
        generator=LIN.generator,
        coefficients=CallableCoefficients(
            lambda x, r: [(-1.0, 0.5)[r - 1] * x[0]],
            lambda x, r: [[(0.3, 0.8)[r - 1] * x[0]]],
            1,
            1,
        ),
        x0=[1.0],
    )
    for model in (fixture("additive"), fixture("noncommutative"), callable_model):
        assert reference_scheme_for(model) != CLOSED_FORM
        strong_error(small_plan(model=model, schemes=("euler",), t_end=0.25), 4)
    assert not calls
    strong_error(small_plan(), 4)
    assert calls["closed form"] == 1


def _benchmark_layers():
    # the benchmark's tracer, loaded as tests/test_bit_identity.py loads
    # the benchmark's workloads
    sys.path.insert(0, str(PERFBENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


@pytest.mark.parametrize("name", ["linear2", "additive"])  # closed form, scheme reference
def test_the_benchmark_tracer_reads_the_calls_the_engine_makes(name):
    """perfbench/layers.py derives the benchmark's per-layer metrics by
    wrapping engine names until the engine carries its own counters
    (ROADMAP item 1).  Under its Tracer, a study at ``threads=1``, as
    perfbench/run.py's ``per_layer`` traces it, and one path integrated at
    batch width 1 make exactly the calls those metrics count, every name
    the tracer wraps is found, and no result moves."""
    layers = _benchmark_layers()
    names, kernel = layers.SCHEME_NAMES, layers.KERNEL_PREFIX
    model = fixture(name)
    levels, n_ref, P, n_path = (4, 8, 16), 256, 3, 16
    plan = small_plan(
        model=model, schemes=names, coarse_steps=levels, reference_steps=n_ref, paths=P
    )
    grid = GridSpec(0.0, 1.0, n_path)

    def one_path():
        chain, noise = convergence.draw_path(model, grid, 7, 0)
        times = grid.finest_times()
        return [schemes.integrate(model, s, chain, noise, times).states for s in names]

    untraced = run(plan, threads=2), one_path()
    study, path = layers.Tracer(1.0 / n_ref), layers.Tracer()
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a name the tracer cannot find warns
        with layers.installed(study, switchtaylor, model):
            reports = run(plan, threads=1)
        with layers.installed(path, switchtaylor, model):
            states = one_path()
    assert not study.broken and not path.broken
    for got, want in zip(reports.values(), untraced[0].values()):
        assert (got.rows, got.gamma_hat, got.r2) == (want.rows, want.gamma_hat, want.r2)
    assert np.stack(states).tobytes() == np.stack(untraced[1]).tobytes()

    # the study: draws, queries and records per path, records per level and
    # the reference; one kernel call per step of each level's batch march
    marched = reference_scheme_for(model) != CLOSED_FORM
    draws = ("markov_chain.sample_path", "noise.build_noise", "markov_chain.states_at")
    want = dict.fromkeys(draws, P) | {"schemes.jump_records": P * (len(levels) + 1)}
    want |= {kernel + s: sum(levels) for s in names}
    steps = {kernel + s: P * sum(levels) for s in names}
    if marched:
        want |= {"noise.step_aggregates": P, kernel + "ref": n_ref}
        steps[kernel + "ref"] = P * n_ref
    assert (dict(study.calls), dict(study.path_steps)) == (want, steps)
    windows = {L: int(counts.sum()) for L, counts in study.windows.items()}
    assert windows == {L: P * L for L in levels + (n_ref,)}
    # one path, drawn once, then queried once and stepped n_path times per scheme
    queries = ("markov_chain.states_at", "noise.step_aggregates", "schemes.jump_records")
    want = dict.fromkeys(draws[:2], 1) | dict.fromkeys(queries, len(names))
    steps = {kernel + s: n_path for s in names}
    assert (dict(path.calls), dict(path.path_steps)) == (want | steps, steps)

    # the tracer and the benchmark's kernel sweep look these names up; the
    # package calls none of them but check_commutativity
    for op in layers.OP_NAMES:
        assert getattr(schemes, op) is getattr(switchtaylor, op)
    assert schemes.JumpData is JumpRecords
    assert schemes.check_commutativity is convergence.check_commutativity
    assert schemes.check_commutativity is switchtaylor.check_commutativity


def _first_switch_steps(plan, edges):
    # the window of ``edges`` that holds each switching path's first switch
    out = {}
    for i in range(plan.paths):
        chain_seed, _ = np.random.SeedSequence((plan.seed, i)).spawn(2)
        chain = sample_path(
            plan.model.generator, 1, 0.0, plan.t_end, np.random.default_rng(chain_seed)
        )
        if chain.jump_count:
            out[i] = int(np.searchsorted(edges, chain.jump_times[0])) - 1
    return out


def _assert_nonfinite_names_the_first_bad_path(coefficients, seed, what, level):
    # regime 2 has an infinite drift: a path leaves the finite range in the
    # window of the level that holds its first switch, and a path that
    # never switches stays finite
    model = ModelSpec(
        name="blowup",
        generator=GeneratorMatrix([[-0.5, 0.5], [0.5, -0.5]]),
        coefficients=coefficients,
        x0=[1.0],
    )
    plan = small_plan(model=model, paths=8, seed=seed)
    edges = GridSpec(0.0, plan.t_end, level).finest_times()
    first_switch_step = _first_switch_steps(plan, edges)
    assert 0 < len(first_switch_step) < plan.paths
    step = min(first_switch_step.values())
    path = min(i for i, s in first_switch_step.items() if s == step)
    assert path > 0
    with pytest.raises(NonFiniteState) as info:
        strong_error(plan, 4)
    assert str(info.value).startswith(
        "%s at level %d left the finite range at step %d on path %d "
        "(seed index i of SeedSequence((seed, i)))" % (what, level, step, path)
    )
    assert (info.value.step, info.value.row) == (step, path)


def test_nonfinite_path_names_pass_level_step_and_seed_index():
    # a scheme reference, marched on the reference grid: regime 2 reverts
    # infinitely fast
    _assert_nonfinite_names_the_first_bad_path(
        MeanRevertingCoefficients(theta=[1.0, np.inf], mean=[0.0, 0.0], c=[0.3, 0.3]),
        seed=3,
        what="reference pass (taylor15)",
        level=64,
    )


def test_nonfinite_closed_form_names_pass_level_step_and_seed_index():
    # the closed form is read on the finest tested grid
    _assert_nonfinite_names_the_first_bad_path(
        DiagonalLinearCoefficients(a=[[-1.0], [np.inf]], c=[[0.3], [0.3]]),
        seed=5,
        what="reference pass (closed-form)",
        level=4,
    )


def test_diverging_study_stops_without_numpy_warnings():
    # explicit Euler overflows x^2 on path 503; the study and integrate
    # report it by NonFiniteState alone, with no RuntimeWarning before it
    model = fixture("noncommutative")
    plan = ExperimentPlan(
        model=model,
        schemes=("euler",),
        t_end=1.0,
        coarse_steps=(4, 8, 16),
        reference_steps=256,
        paths=600,
        seed=0,
    )
    grid = GridSpec(0.0, 1.0, 256)
    chain, noise = convergence.draw_path(model, grid, 0, 503)
    caller_state = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteState) as study:
            run(plan)
        with pytest.raises(NonFiniteState) as path:
            schemes.integrate(model, "euler", chain, noise, grid.finest_times())
    assert str(study.value) == (
        "reference pass (euler) at level 256 left the finite range at step 45 on path 503 "
        "(seed index i of SeedSequence((seed, i)))"
    )
    assert str(path.value) == "state left the finite range at step 45 on batch row 0"
    # numpy's error state is the caller's again once each call returns
    assert np.geterr() == caller_state


def zero_model():
    return ModelSpec(
        name="zero",
        generator=GeneratorMatrix([[-1.0, 1.0], [1.0, -1.0]]),
        coefficients=DiagonalLinearCoefficients(a=[[0.0], [0.0]], c=[[0.0], [0.0]]),
        x0=[1.0],
    )


class TestFitOrder:
    def test_cubic_errors_give_order_three_halves(self):
        hs = [2.0 ** (-k) for k in range(3, 8)]
        rows = [(h, h ** 3) for h in hs]
        gamma, r2 = fit_order(rows)
        assert abs(gamma - 1.5) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_scaled_square_errors_give_order_one(self):
        hs = [2.0 ** (-k) for k in range(2, 6)]
        gamma, r2 = fit_order([(h, 4.0 * h ** 2) for h in hs])
        assert abs(gamma - 1.0) < 1e-12
        assert abs(r2 - 1.0) < 1e-12

    def test_accepts_level_result_rows(self):
        rows = [
            LevelResult(steps=2 ** k, h=2.0 ** (-k), mean_error=(2.0 ** (-k)) ** 2,
                        stderr=0.0, second_moment_peak=1.0)
            for k in range(3, 7)
        ]
        gamma, r2 = fit_order(rows)
        assert abs(gamma - 1.0) < 1e-12

    def test_constant_errors_fit_flat_line(self):
        gamma, r2 = fit_order([(0.5, 3.0), (0.25, 3.0), (0.125, 3.0)])
        assert abs(gamma) < 1e-12
        assert r2 == 1.0

    def test_needs_three_levels(self):
        with pytest.raises(InsufficientLevels):
            fit_order([(0.5, 0.1), (0.25, 0.05)])

    def test_rejects_zero_and_negative_means(self):
        rows = [(0.5, 0.1), (0.25, 0.0), (0.125, 0.01)]
        with pytest.raises(NonPositiveError):
            fit_order(rows)
        rows = [(0.5, 0.1), (0.25, -0.2), (0.125, 0.01)]
        with pytest.raises(NonPositiveError):
            fit_order(rows)

    def test_rejects_non_finite_means(self):
        with pytest.raises(NonPositiveError):
            fit_order([(0.5, 0.1), (0.25, math.nan), (0.125, 0.01)])

    @pytest.mark.parametrize("h", [0.0, -0.25, math.inf, math.nan])
    def test_rejects_step_sizes_that_are_not_positive_and_finite(self, h):
        with pytest.raises(InvalidGrid, match="positive finite step sizes"):
            fit_order([(0.5, 0.1), (h, 0.05), (0.125, 0.01)])


class TestPlanValidation:
    def test_non_dyadic_level_rejected(self):
        with pytest.raises(InvalidGrid):
            small_plan(coarse_steps=(24,))
        with pytest.raises(InvalidGrid):
            small_plan(reference_steps=96)

    def test_reference_must_be_sixteen_times_finer(self):
        with pytest.raises(ReferenceNotFiner):
            small_plan(coarse_steps=(16,), reference_steps=128)
        # exactly 16x passes
        small_plan(coarse_steps=(16,), reference_steps=256)

    def test_coarse_step_must_resolve_the_chain(self):
        # qmax = 1 so h must stay below 0.5
        with pytest.raises(StepTooLargeForChain):
            small_plan(coarse_steps=(2,), reference_steps=32)

    def test_a_chain_with_no_exits_bounds_no_step(self):
        # qmax = 0: every step resolves a chain that never switches
        frozen = replace(LIN, generator=GeneratorMatrix(np.zeros((2, 2))))
        assert frozen.generator.qmax == 0.0
        assert small_plan(model=frozen, coarse_steps=(1,), reference_steps=16).coarse_steps == (1,)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(UnknownScheme):
            small_plan(schemes=("heun",))

    def test_degenerate_plans_rejected(self):
        with pytest.raises(InvalidGrid):
            small_plan(t_end=0.0)
        with pytest.raises(InvalidGrid, match="positive and finite"):
            small_plan(t_end=math.nan)
        with pytest.raises(InvalidGrid):
            small_plan(paths=0)
        with pytest.raises(InvalidGrid):
            small_plan(schemes=())
        with pytest.raises(InvalidGrid):
            small_plan(coarse_steps=())

    @pytest.mark.parametrize(
        "size", [{"reference_steps": 64.0}, {"coarse_steps": (4.5,)}, {"paths": 3.5}]
    )
    def test_sizes_must_be_integers(self, size):
        with pytest.raises(InvalidGrid, match="must be an integer"):
            small_plan(**size)

    @pytest.mark.parametrize("seed", [-1, 2.5, True, 2**64, "3", None])
    def test_seed_must_be_a_64_bit_non_negative_integer(self, seed):
        with pytest.raises(InvalidSeed, match="seed must be an integer"):
            small_plan(seed=seed)

    def test_numpy_integer_seeds_are_accepted(self):
        assert small_plan(seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
        assert small_plan(seed=np.int64(5)).seed == 5

    def test_levels_are_sorted_and_deduplicated(self):
        plan = small_plan(coarse_steps=(16, 4, 16, 8), reference_steps=256)
        assert plan.coarse_steps == (4, 8, 16)

    def test_duplicate_schemes_collapse(self):
        plan = small_plan(schemes=("euler", "taylor15", "euler"))
        assert plan.schemes == ("euler", "taylor15")


class TestStrongError:
    def test_level_equal_to_reference_is_exactly_zero(self):
        # a scheme reference: the level reruns it bit for bit
        mean, stderr = strong_error(small_plan(model=fixture("additive")), 64)
        assert mean == 0.0
        assert stderr == 0.0

    def test_zero_coefficients_give_zero_error(self):
        plan = small_plan(model=zero_model(), schemes=("euler",), paths=8)
        mean, stderr = strong_error(plan, 4)
        assert mean == 0.0
        assert stderr == 0.0

    def test_probe_level_validation(self):
        plan = small_plan()
        with pytest.raises(InvalidGrid):
            strong_error(plan, 24)
        with pytest.raises(ReferenceNotFiner):
            strong_error(plan, 128)
        with pytest.raises(StepTooLargeForChain):
            strong_error(plan, 2)
        with pytest.raises(InvalidGrid, match="must be an integer"):
            strong_error(plan, 8.5)

    def test_errors_shrink_with_the_step(self):
        plan = small_plan(
            schemes=("euler",),
            coarse_steps=(16, 128),
            reference_steps=2048,
            paths=160,
            seed=11,
        )
        coarse_mean, coarse_err = strong_error(plan, 16)
        fine_mean, fine_err = strong_error(plan, 128)
        assert coarse_mean > 0.0 and fine_mean > 0.0
        gap = coarse_mean - fine_mean
        assert gap > 2.0 * math.hypot(coarse_err, fine_err)


@pytest.mark.parametrize("batch", [convergence.BATCH_PATHS, 300])
def test_stderr_merge_is_exact_when_errors_sit_far_from_zero(batch):
    # sup-squared errors shifted by 1e8: the merged standard error must
    # match a two-pass one over all values, and the mean stays sum / count
    errors = np.random.default_rng(12).standard_exponential(4096) ** 2 + 1e8
    parts = (
        {"e": convergence._accumulator(errors[lo : lo + batch], np.zeros(1))}
        for lo in range(0, errors.size, batch)
    )
    acc = convergence._tree_reduce(parts)["e"]
    mean, stderr, _ = convergence._stats(acc)
    want = np.std(errors, ddof=1) / np.sqrt(errors.size)
    assert abs(stderr / want - 1.0) < 1e-12
    assert mean == acc[0] / errors.size == pytest.approx(errors.mean(), rel=1e-15)


class TestReferenceSelection:
    def test_commuting_models_get_the_full_order_reference(self):
        # the linear fixtures are solvable path by path
        assert reference_scheme_for(LIN) == CLOSED_FORM == "closed-form"
        assert reference_scheme_for(fixture("diagonal3")) == CLOSED_FORM
        assert reference_scheme_for(fixture("additive")) == "taylor15"

    def test_noncommuting_model_falls_back(self):
        assert reference_scheme_for(fixture("noncommutative")) == "euler"

    @pytest.mark.parametrize(
        "gaps, expected",
        [((0.0, 0.0), "taylor15"), ((0.0, 1.0), "milstein"), ((1.0, 1.0), "euler")],
    )
    def test_gaps_pick_the_highest_order_map_they_admit(self, monkeypatch, gaps, expected):
        # noncommutative has m = 2, so the ladder reads the commutativity report
        model = fixture("noncommutative")
        seen = []

        def report(probed):
            seen.append(probed)
            return CommutativityReport(*gaps, points_checked=1)

        monkeypatch.setattr(convergence, "check_commutativity", report)
        assert reference_scheme_for(model) == expected
        assert seen == [model]


@pytest.fixture(scope="module")
def study():
    plan = ExperimentPlan(
        model=LIN,
        schemes=("euler", "milstein", "taylor15"),
        t_end=1.0,
        coarse_steps=(8, 16, 32),
        reference_steps=512,
        paths=1040,
        seed=77,
    )
    return plan, run(plan)


class TestRun:
    def test_reports_cover_every_scheme(self, study):
        plan, reports = study
        assert set(reports) == {"euler", "milstein", "taylor15"}
        for rep in reports.values():
            assert isinstance(rep, ConvergenceReport)
            assert rep.model_name == "linear2"
            assert rep.paths == 1040
            assert rep.runtime > 0.0

    def test_rows_sorted_coarse_to_fine_with_positive_errors(self, study):
        _, reports = study
        for rep in reports.values():
            hs = [row.h for row in rep.rows]
            assert hs == sorted(hs, reverse=True)
            assert [row.steps for row in rep.rows] == [8, 16, 32]
            for row in rep.rows:
                assert row.mean_error > 0.0
                assert row.stderr > 0.0
                assert row.second_moment_peak > 0.0
            assert math.isfinite(rep.gamma_hat)
            assert math.isfinite(rep.r2)

    def test_higher_order_schemes_beat_lower_at_the_finest_level(self, study):
        _, reports = study
        finest = {name: rep.rows[-1] for name, rep in reports.items()}
        t15, mil, eul = finest["taylor15"], finest["milstein"], finest["euler"]
        assert t15.mean_error <= mil.mean_error + 2.0 * (t15.stderr + mil.stderr)
        assert mil.mean_error <= eul.mean_error + 2.0 * (mil.stderr + eul.stderr)

    def test_rerun_is_bit_identical(self, study):
        plan, reports = study
        again = run(plan)
        for name, rep in reports.items():
            other = again[name]
            assert rep.gamma_hat == other.gamma_hat
            assert rep.r2 == other.r2
            for a, b in zip(rep.rows, other.rows):
                assert a.mean_error == b.mean_error
                assert a.stderr == b.stderr
                assert a.second_moment_peak == b.second_moment_peak

    def test_thread_count_does_not_change_results(self, study):
        # three batches: with two processes the caller takes batches 0 and 2
        plan, reports = study
        for threads in (1, 2, 3):
            again = run(plan, threads=threads)
            assert set(again) == set(reports)
            for name, rep in reports.items():
                assert replace(again[name], runtime=rep.runtime) == rep

    def test_fit_needs_three_levels(self, monkeypatch):
        monkeypatch.setattr(convergence, "_run_engine", None)  # refused before any draw
        plan = small_plan(coarse_steps=(4, 8), reference_steps=128)
        with pytest.raises(InsufficientLevels, match=r"^order fit needs at least 3 levels, got 2$"):
            run(plan)

    def test_gate_refuses_noncommuting_models_up_front(self):
        plan = ExperimentPlan(
            model=fixture("noncommutative"),
            schemes=("milstein",),
            t_end=1.0,
            coarse_steps=(16,),
            reference_steps=256,
            paths=4,
            seed=1,
        )
        with pytest.raises(CommutativityRequired):
            strong_error(plan, 16)


# studies of 1040 paths run three batches; at two processes the caller
# computes batches 0 and 2 and one forked child batch 1
forks = pytest.mark.skipif(
    sys.platform != "linux" or len(os.sched_getaffinity(0)) < 2,
    reason="batches run in forked processes only on Linux with two CPUs or more",
)
THREE_BATCHES = dict(t_end=1.0, coarse_steps=(4, 8, 16), reference_steps=256, paths=1040, seed=3)


def _planted(monkeypatch, fail):
    # every batch first runs fail(k), a forked child inherits the patch; the
    # run raises before it sums, so a batch that passes returns no partial
    def partial(plan, levels, schemes, ref_scheme, grid, indices):
        fail(indices[0] // convergence.BATCH_PATHS)
        return {}

    monkeypatch.setattr(convergence, "_batch_partial", partial)


def _raised(threads):
    with pytest.raises(switchtaylor.SwitchTaylorError) as caught:
        run(small_plan(**THREE_BATCHES), threads=threads)
    exc = caught.value
    return type(exc), str(exc), getattr(exc, "step", None), getattr(exc, "row", None)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@forks
@pytest.mark.parametrize("error", [NonFiniteState, CouplingMismatch])
@pytest.mark.parametrize("failing", [(1,), (2,), (1, 2), (0, 1)], ids=str)
def test_forked_run_raises_the_lowest_failing_batch_as_a_serial_run(monkeypatch, error, failing):
    def fail(k):
        if k in failing:
            if error is NonFiniteState:
                raise NonFiniteState("batch %d diverged" % k, step=10 + k, row=20 + k)
            raise CouplingMismatch("batch %d is not coupled" % k)

    _planted(monkeypatch, fail)
    serial = _raised(1)
    assert serial[0] is error and serial[1].startswith("batch %d " % failing[0])
    assert _raised(2) == serial
    _assert_no_child_left()


@forks
def test_a_child_that_exits_without_its_result_raises_worker_lost(monkeypatch):
    caller = os.getpid()

    def fail(k):
        if k == 1 and os.getpid() != caller:
            os._exit(3)

    _planted(monkeypatch, fail)
    with pytest.raises(
        WorkerLost,
        match=r"^the worker process for paths 512 to 1023 ended without a complete "
        r"result \(wait status 768\)$",
    ):
        run(small_plan(**THREE_BATCHES), threads=2)
    _assert_no_child_left()


@forks
def test_an_interrupted_caller_kills_its_children(monkeypatch):
    caller = os.getpid()

    def fail(k):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(60)

    _planted(monkeypatch, fail)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run(small_plan(**THREE_BATCHES), threads=2)
    assert time.perf_counter() - started < 30
    _assert_no_child_left()


@forks
def test_forked_run_takes_a_plan_that_does_not_pickle(monkeypatch):
    # callable coefficients step row by row, so the batches are cut to four paths
    monkeypatch.setattr(convergence, "BATCH_PATHS", 4)
    model = ModelSpec(
        name="callable-linear",
        generator=LIN.generator,
        coefficients=CallableCoefficients(
            lambda x, r: [(-1.0, 0.5)[r - 1] * x[0]],
            lambda x, r: [[(0.3, 0.8)[r - 1] * x[0]]],
            1,
            1,
        ),
        x0=[1.0],
    )
    plan = small_plan(model=model, schemes=("euler",), **dict(THREE_BATCHES, paths=12))
    serial, forked = run(plan), run(plan, threads=2)
    assert replace(forked["euler"], runtime=0.0) == replace(serial["euler"], runtime=0.0)
    _assert_no_child_left()
