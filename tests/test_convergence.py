"""Strong-error engine: validation, coupling, order fits, determinism."""

import math

import numpy as np
import pytest

from switchtaylor import (
    ConvergenceReport,
    ExperimentPlan,
    GeneratorMatrix,
    GridSpec,
    LevelResult,
    ModelSpec,
    NoisePath,
    ScalarLinearCoefficients,
    fit_order,
    fixture,
    reference_scheme_for,
    run,
    sample_path,
    strong_error,
)
from switchtaylor.errors import (
    CommutativityRequired,
    CouplingMismatch,
    InsufficientLevels,
    InvalidGrid,
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
    # perturb the first window of every coarse aggregation; the spot check
    # of path 0 reads window 0 of the finest coarse level
    plan = small_plan()
    original = NoisePath.step_aggregates

    def perturbed(self, edges):
        dw, dz = original(self, edges)
        if len(edges) - 1 < plan.reference_steps:
            dw = dw.copy()
            dw[0] += 1e-6
        return dw, dz

    monkeypatch.setattr(NoisePath, "step_aggregates", perturbed)
    with pytest.raises(CouplingMismatch, match="path 0: window 0 of the 4-step level"):
        run(plan)


def test_nonfinite_path_names_pass_level_step_and_seed_index():
    # regime 2 has an infinite drift: a path leaves the finite range in the
    # reference window that holds its first switch, and a path that never
    # switches stays finite
    model = ModelSpec(
        name="blowup",
        generator=GeneratorMatrix([[-0.5, 0.5], [0.5, -0.5]]),
        coefficients=ScalarLinearCoefficients(a=[-1.0, np.inf], c=[0.3, 0.3]),
        x0=[1.0],
    )
    plan = small_plan(model=model, paths=8, seed=3)
    edges = GridSpec(0.0, plan.t_end, plan.reference_steps).finest_times()
    first_switch_step = {}
    for i in range(plan.paths):
        chain_seed, _ = np.random.SeedSequence((plan.seed, i)).spawn(2)
        chain = sample_path(
            model.generator, 1, 0.0, plan.t_end, np.random.default_rng(chain_seed)
        )
        if chain.jump_count:
            first_switch_step[i] = int(np.searchsorted(edges, chain.jump_times[0])) - 1
    assert 0 < len(first_switch_step) < plan.paths
    step = min(first_switch_step.values())
    path = min(i for i, s in first_switch_step.items() if s == step)
    assert path > 0
    with pytest.raises(NonFiniteState) as info:
        run(plan)
    assert str(info.value).startswith(
        "reference pass (taylor15) at level 64 left the finite range at step %d on path %d "
        "(seed index i of SeedSequence((seed, i)))" % (step, path)
    )
    assert (info.value.step, info.value.row) == (step, path)


def zero_model():
    return ModelSpec(
        name="zero",
        generator=GeneratorMatrix([[-1.0, 1.0], [1.0, -1.0]]),
        coefficients=ScalarLinearCoefficients(a=[0.0, 0.0], c=[0.0, 0.0]),
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
        with pytest.raises(InvalidGrid):
            small_plan(paths=0)
        with pytest.raises(InvalidGrid):
            small_plan(schemes=())
        with pytest.raises(InvalidGrid):
            small_plan(coarse_steps=())

    def test_levels_are_sorted_and_deduplicated(self):
        plan = small_plan(coarse_steps=(16, 4, 16, 8), reference_steps=256)
        assert plan.coarse_steps == (4, 8, 16)

    def test_duplicate_schemes_collapse(self):
        plan = small_plan(schemes=("euler", "taylor15", "euler"))
        assert plan.schemes == ("euler", "taylor15")


class TestStrongError:
    def test_level_equal_to_reference_is_exactly_zero(self):
        mean, stderr = strong_error(small_plan(), 64)
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


class TestReferenceSelection:
    def test_commuting_models_get_the_full_order_reference(self):
        assert reference_scheme_for(LIN) == "taylor15"
        assert reference_scheme_for(fixture("diagonal3")) == "taylor15"

    def test_noncommuting_model_falls_back(self):
        assert reference_scheme_for(fixture("noncommutative")) == "euler"


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
