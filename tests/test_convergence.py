"""Strong-error engine: validation, coupling, order fits, determinism."""

import inspect
import math
import warnings
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

from switchtaylor import (
    CallableCoefficients,
    ChainPath,
    CoefficientSet,
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
)

LIN = fixture("linear2")


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
        run(plan)


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


def test_engine_makes_the_calls_the_benchmark_tracer_reads(monkeypatch):
    """perfbench/layers.py derives its sampling, noise and switch-window
    metrics by wrapping these engine calls, and reads them until the engine
    carries its own counters (ROADMAP item 1): ``sample_path`` and
    ``build_noise`` once per path, and ``jump_records`` once per path and
    per level, the reference included, with the L + 1 edges of the level."""
    plan = small_plan(coarse_steps=(4, 8), reference_steps=128, paths=2)
    calls = Counter()
    edge_sizes = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            if name == "jump_records":
                edge_sizes[np.asarray(args[2]).size] += 1
            return fn(*args)

        return wrapper

    for name in ("sample_path", "build_noise", "jump_records"):
        monkeypatch.setattr(convergence, name, counted(name, getattr(convergence, name)))
    convergence._run_engine(plan, list(plan.coarse_steps), list(plan.schemes))
    assert calls == {"sample_path": 2, "build_noise": 2, "jump_records": 6}
    assert edge_sizes == {5: 2, 9: 2, 129: 2}


def test_names_the_benchmark_tracer_looks_up_exist():
    """perfbench/layers.py, workloads.py and test_perfbench.py look these
    names up; a missing one only drops metrics with a warning, which the
    tier-1 suite would not see.  The package itself calls none of them
    except ``check_commutativity`` and ``run``.  This test goes with the
    tracer when the engine carries its own counters (ROADMAP item 1)."""
    for name in (
        "op_time_drift",
        "op_noise_drift",
        "op_time_diffusion",
        "op_noise_diffusion",
        "op_noise_noise_diffusion",
    ):
        assert getattr(schemes, name) is getattr(switchtaylor, name)
    for name in (
        "drift",
        "diffusion",
        "drift_gradient",
        "diffusion_gradient",
        "drift_hessian",
        "diffusion_hessian",
    ):
        assert callable(getattr(CoefficientSet, name))
    assert schemes.JumpData is JumpRecords
    assert schemes.check_commutativity is convergence.check_commutativity
    assert schemes.check_commutativity is switchtaylor.check_commutativity
    assert "threads" in inspect.signature(run).parameters


def test_kernels_are_reached_as_the_benchmark_tracer_wraps_them(monkeypatch):
    """perfbench/layers.py traces a kernel by putting
    ``replace(info, kernel=wrapper)`` in ``schemes.SCHEMES``; it reads ``h``
    at positional index 3, to tell reference-step calls apart, and the
    batch rows of ``y`` at index 1.  ``integrate`` and ``run`` must reach
    that wrapper with those arguments, and the results must not change."""
    model = fixture("additive")  # no closed form: the reference is marched
    plan = small_plan(
        model=model,
        schemes=("euler", "milstein", "taylor15"),
        coarse_steps=(4, 8, 16),
        reference_steps=256,
        paths=3,
    )
    chain = sample_path(model.generator, 1, 0.0, 1.0, np.random.default_rng(2))
    noise = build_noise(GridSpec(0.0, 1.0, 16), chain, model.m, np.random.default_rng(3))
    times = noise.times[::2]

    def outputs():
        reports = run(plan)
        rows = [(r.rows, r.gamma_hat, r.r2) for r in reports.values()]
        paths = [schemes.integrate(model, name, chain, noise, times) for name in plan.schemes]
        return rows, np.stack([p.states for p in paths])

    plain_rows, plain_paths = outputs()
    seen = Counter()

    def wrapping(name, kernel):
        def wrapper(*args, **kwargs):
            seen[name, float(args[3]), np.shape(args[1])[0]] += 1
            return kernel(*args, **kwargs)

        return wrapper

    for name, info in list(schemes.SCHEMES.items()):
        wrapped = replace(info, kernel=wrapping(name, info.kernel))
        monkeypatch.setitem(schemes.SCHEMES, name, wrapped)
    rows, paths = outputs()
    assert rows == plain_rows
    assert paths.tobytes() == plain_paths.tobytes()
    want = Counter()
    for name in plan.schemes:
        for L in plan.coarse_steps:
            want[name, 1.0 / L, plan.paths] += L
        for h in np.diff(times):
            want[name, float(h), 1] += 1
    n_ref = plan.reference_steps
    want[reference_scheme_for(model), 1.0 / n_ref, plan.paths] += n_ref
    assert seen == want


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
        run(plan)
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
        plan, reports = study
        threaded = run(plan, threads=3)
        for name, rep in reports.items():
            for a, b in zip(rep.rows, threaded[name].rows):
                assert a.mean_error == b.mean_error
                assert a.stderr == b.stderr

    def test_fit_needs_three_levels(self):
        plan = small_plan(coarse_steps=(4, 8), reference_steps=128)
        with pytest.raises(InsufficientLevels):
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
