"""Tests of the benchmark itself, at toy size.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import dataclasses
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

TOY = workloads.DeskStudy("linear2", paths=2, threads=2, order_tolerance=None)


class Spy:
    """A workload that records, per operation, whether any layer was wrapped,
    and can corrupt or replace the result."""

    def __init__(self, inner, alter=None):
        self.inner = inner
        self.alter = alter
        self.wrapped = []

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def run(self, st, job, threads):
        self.wrapped.append(wrapped_names(st, job.model))
        result = self.inner.run(st, job, threads)
        return result if self.alter is None else self.alter(result)


def wrapped_names(st, model):
    names = [
        "%s.%s" % (owner, name)
        for owner, name, _, _ in layers._targets(st, model, layers.Tracer())
        if hasattr(getattr(owner, name, None), "perfbench_label")
    ]
    kernels = st.schemes.SCHEMES.items()
    names += [s for s, info in kernels if hasattr(info.kernel, "perfbench_label")]
    return names


@pytest.fixture
def toy_job():
    st = run.import_package()
    return st, TOY.prepare(st, 7)


def test_spec_matches_workloads():
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_printed_with_its_unit(trace):
    declared = run.declared_metrics(trace)
    out = io.StringIO()
    result = run.benchmark(TOY, 3, 0.01, trace, declared, out=out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared)
    lines = out.getvalue().splitlines()
    for name, unit in declared.items():
        entry = result["metrics"][name]
        assert entry["unit"] == unit
        assert np.isfinite(entry["value"])
        assert any(line.split()[::2] == [name, unit] for line in lines), name
    json.dumps(result)


def test_wrappers_are_removed_before_untraced_runs(toy_job):
    st, job = toy_job
    spy = Spy(TOY)
    ops = run.Operations(spy)
    run.per_layer(spy, st, job, 0.01, ops)
    assert len(spy.wrapped) == ops.attempted >= 4
    # only the second to last run is traced, and it sees every layer wrapped
    traced = spy.wrapped.pop(-2)
    assert len(traced) == len(layers._targets(st, job.model, layers.Tracer())) + 3
    assert all(not names for names in spy.wrapped)
    assert wrapped_names(st, job.model) == []
    assert ops.failed == 0


def test_deleted_public_name_makes_its_metric_absent(toy_job, monkeypatch):
    st, job = toy_job
    # linear2 has one noise column and never probes commutativity, so the
    # study still runs without these names
    monkeypatch.delattr(st.schemes, "check_commutativity")
    monkeypatch.delattr(st.convergence, "check_commutativity")
    monkeypatch.delattr(st.schemes, "JumpData")
    ops = run.Operations(TOY)
    with pytest.warns(UserWarning, match="check_commutativity"):
        metrics, _ = run.per_layer(TOY, st, job, 0.01, ops)
    assert ops.failed == 0
    assert "model.check_commutativity.calls" not in metrics
    assert "schemes.sweep.linear2.taylor15.b512_switch.us_per_call" not in metrics
    assert "schemes.sweep.linear2.taylor15.b512.us_per_call" in metrics
    assert "schemes.jump_records.calls" in metrics

    declared = run.declared_metrics(1)
    with pytest.warns(UserWarning, match="model.check_commutativity.calls"):
        report = run.report(metrics, declared, io.StringIO())
    assert "model.check_commutativity.calls" not in report
    assert "schemes.jump_records.calls" in report


def _corrupt(reports):
    report = reports["milstein"]
    rows = (dataclasses.replace(report.rows[0], mean_error=float("nan")),) + report.rows[1:]
    return dict(reports, milstein=dataclasses.replace(report, rows=rows))


def test_non_finite_result_counts_as_failed(toy_job):
    st, job = toy_job
    ops = run.Operations(Spy(TOY, alter=_corrupt), log=io.StringIO())
    result, _, _ = ops.run(st, job, 1)
    assert result is not None
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "non-finite" in ops.log.getvalue()


def test_order_checks_flag_swapped_or_distant_orders(toy_job):
    st, job = toy_job
    reports = TOY.run(st, job, 1)
    checked = dataclasses.replace(TOY, order_tolerance=0.6)

    def with_orders(gammas):
        return {
            name: dataclasses.replace(reports[name], gamma_hat=gamma)
            for name, gamma in zip(layers.SCHEME_NAMES, gammas)
        }

    assert checked.problems(with_orders([0.5, 1.0, 1.5])) == []
    assert checked.problems(with_orders([0.5, 1.6, 1.5]))
    assert checked.problems(with_orders([0.5, 1.0, 2.2]))
    assert TOY.problems(with_orders([0.5, 1.6, 1.5])) == []


def test_trajectory_non_finite_state_counts_as_failed():
    st = run.import_package()
    batch = workloads.TrajectoryBatch("diagonal3", paths=1, steps=256)
    job = batch.prepare(st, 2)

    def poison(paths):
        states = paths[0].trajectories[0].states.copy()
        states[-1, 0] = np.inf
        traj = dataclasses.replace(paths[0].trajectories[0], states=states)
        return [dataclasses.replace(paths[0], trajectories=(traj,) + paths[0].trajectories[1:])]

    ops = run.Operations(Spy(batch, alter=poison), log=io.StringIO())
    ops.run(st, job, 1)
    assert (ops.attempted, ops.failed) == (1, 1)


def test_raise_and_changed_result_count_as_failed(toy_job):
    st, job = toy_job
    ops = run.Operations(TOY, log=io.StringIO())
    ops.run(st, job, 1)
    ops.run(st, TOY.prepare(st, 8), 1)
    ops.run(st, dataclasses.replace(job, model=st.fixture("noncommutative")), 1)
    assert (ops.attempted, ops.failed) == (3, 2)
    assert "bit-identical" in ops.log.getvalue()
