"""Rules the package source keeps."""

import ast
import io
import struct
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import switchtaylor
from switchtaylor import (
    ChainPath,
    ExperimentPlan,
    GeneratorMatrix,
    GridSpec,
    ModelSpec,
    NoisePath,
    build_noise,
    build_scheme_sets,
    check_commutativity,
    count_jumps,
    errors,
    fit_order,
    fixture,
    get_scheme,
    integrate,
    jump_records,
    load_noise,
    march,
    merge_records,
    occupation_time,
    pair_jump_count,
    pair_jump_martingale,
    sample_increments,
    sample_path,
    validate_word,
    word,
)
from switchtaylor.multi_index import Component, ComponentKind, alphabet

PACKAGE = Path(switchtaylor.__file__).parent


def test_no_assert_statements():
    # runtime checks must survive python -O, which strips assert statements
    found = []
    for module in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [
            "%s:%d" % (module.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert not found, "assert statements in the package: %s" % ", ".join(found)


BUILTIN_ERRORS = {"ValueError", "TypeError", "IndexError", "KeyError", "AttributeError"}


def _raised_name(node):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else None


def test_no_raise_of_builtin_errors():
    # callers catch the package's own classes (errors.py); a bare builtin
    # escapes them and the command line's exit codes
    found = []
    for module in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [
            "%s:%d" % (module.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Raise)
            and node.exc is not None
            and _raised_name(node) in BUILTIN_ERRORS
        ]
    assert not found, "raises of builtin errors in the package: %s" % ", ".join(found)


LIN = fixture("linear2")
CHAIN = ChainPath(0.0, 1.0, 1, [0.3], [2])
NOISE = build_noise(GridSpec(0.0, 1.0, 4), CHAIN, 1, np.random.default_rng(0))
EDGES = GridSpec(0.0, 1.0, 4).finest_times()
TABLE = jump_records(CHAIN, NOISE, EDGES)
# two jumps on [0, 2]: 1 -> 2 at 0.5 and 2 -> 1 at 1.25
PATH = ChainPath(0.0, 2.0, 1, [0.5, 1.25], [2, 1])


def _march(regimes=np.ones((1, 4), dtype=np.int64), table=TABLE):
    # one path on the four windows of EDGES; the first march step runs the checks
    zeros = np.zeros((1, 4, 1))
    y0, hs = np.ones((1, 1)), np.diff(EDGES)
    return next(march(get_scheme("euler"), LIN.coefficients, y0, regimes, hs, zeros, zeros, table))

# inputs on which numpy or attribute lookup would raise a builtin error, or
# a lookup would quietly answer, unless the package checks them first; the
# rule above sees only the package's own raise statements
BAD_CALLS = {
    "fit_order-text-h": (lambda: fit_order([("h", 1.0), (0.5, 0.5), (0.25, 0.2)]), "InvalidGrid"),
    "fit_order-None-mean": (
        lambda: fit_order([(1.0, None), (0.5, 0.5), (0.25, 0.2)]),
        "NonPositiveError",
    ),
    "merge_records-empty": (lambda: merge_records([]), "DimensionMismatch"),
    "states_at-nan": (lambda: ChainPath(0.0, 1.0, 1).states_at([np.nan]), "IntervalOutOfRange"),
    "ModelSpec-swapped": (
        lambda: ModelSpec("m", LIN.coefficients, LIN.generator, x0=[1.0]),
        "InvalidGenerator",
    ),
    "ModelSpec-no-generator": (
        lambda: ModelSpec("m", None, LIN.coefficients, x0=[1.0]),
        "InvalidGenerator",
    ),
    "ModelSpec-generator-as-coefficients": (
        lambda: ModelSpec("m", LIN.generator, LIN.generator, x0=[1.0]),
        "InvalidCoefficients",
    ),
    "ModelSpec-bool-regime": (
        lambda: ModelSpec("m", LIN.generator, LIN.coefficients, x0=[1.0], initial_regime=True),
        "UnknownRegime",
    ),
    "ChainPath-bool-state": (lambda: ChainPath(0.0, 1.0, True), "StateOutOfRange"),
    "sample_path-bool-state": (
        lambda: sample_path(LIN.generator, True, 0.0, 1.0, np.random.default_rng(0)),
        "StateOutOfRange",
    ),
    "march-float-regimes": (lambda: _march(regimes=np.full((1, 4), 1.5)), "UnknownRegime"),
    "march-bool-regimes": (lambda: _march(regimes=np.ones((1, 4), dtype=bool)), "UnknownRegime"),
    "march-float-reg1": (
        lambda: _march(table=replace(TABLE, reg1=TABLE.reg1 + 0.5)),
        "UnknownRegime",
    ),
    "march-float-reg2": (
        lambda: _march(table=replace(TABLE, reg2=TABLE.reg2 + 0.5)),
        "UnknownRegime",
    ),
    "jump_records-reversed-edges": (
        lambda: jump_records(CHAIN, NOISE, EDGES[::-1]),
        "InvalidGrid",
    ),
    "jump_records-repeated-edges": (
        lambda: jump_records(CHAIN, NOISE, EDGES[[0, 1, 1, 2]]),
        "InvalidGrid",
    ),
    "occupation_time-bool-state": (
        lambda: occupation_time(PATH, True, 0.0, 2.0),
        "StateOutOfRange",
    ),
    "occupation_time-float-state": (
        lambda: occupation_time(PATH, 1.5, 0.0, 2.0),
        "StateOutOfRange",
    ),
    "pair_jump_count-bool-state": (
        lambda: pair_jump_count(PATH, 2, True, 0.0, 2.0),
        "StateOutOfRange",
    ),
    "pair_jump_count-zero-state": (
        lambda: pair_jump_count(PATH, 0, 1, 0.0, 2.0),
        "StateOutOfRange",
    ),
    "pair_jump_martingale-bool-state": (
        lambda: pair_jump_martingale(LIN.generator, PATH, True, 1, 0.0, 2.0),
        "StateOutOfRange",
    ),
    "count_jumps-text-time": (lambda: count_jumps(PATH, "a", 1.0), "IntervalOutOfRange"),
    "state_at-text-time": (lambda: PATH.state_at("a"), "IntervalOutOfRange"),
    "states_at-text-times": (lambda: PATH.states_at(["a"]), "IntervalOutOfRange"),
    "ChainPath-text-t0": (lambda: ChainPath("a", 1.0, 1), "IntervalOutOfRange"),
    "sample_path-text-t0": (
        lambda: sample_path(LIN.generator, 1, "a", 1.0, np.random.default_rng(0)),
        "IntervalOutOfRange",
    ),
    "ExperimentPlan-text-t_end": (
        lambda: ExperimentPlan(LIN, ("euler",), "a", (8,), 256, 1, 0),
        "InvalidGrid",
    ),
    "GeneratorMatrix-ragged": (
        lambda: GeneratorMatrix([[-1.0, 1.0], [1.0]]),
        "InvalidGenerator",
    ),
    "validate_word-non-letter": (lambda: validate_word([3], 2, 2), "InvalidComponent"),
    "alphabet-float-m": (lambda: alphabet(2.5, 1), "InvalidComponent"),
    "Component-float-index": (
        lambda: Component(ComponentKind.WIENER, 1.5),
        "InvalidComponent",
    ),
    "Component-bool-index": (
        lambda: Component(ComponentKind.WIENER, True),
        "InvalidComponent",
    ),
    "Component-text-kind": (lambda: Component("time", 1), "InvalidComponent"),
    "Component-text-index": (
        lambda: Component(ComponentKind.WIENER, "a"),
        "InvalidComponent",
    ),
    "word-bool-letter": (lambda: word(True), "InvalidComponent"),
    "alphabet-bool-m": (lambda: alphabet(True, 1), "InvalidComponent"),
    "build_scheme_sets-bool-m": (lambda: build_scheme_sets(1.0, True), "InvalidComponent"),
    "build_scheme_sets-bool-gamma": (lambda: build_scheme_sets(True, 1), "InvalidGamma"),
    "build_scheme_sets-text-gamma": (lambda: build_scheme_sets("a", 1), "InvalidGamma"),
    "build_scheme_sets-inf-gamma": (lambda: build_scheme_sets(np.inf, 1), "InvalidGamma"),
    "GridSpec-bool-n": (lambda: GridSpec(0.0, 1.0, True), "InvalidGrid"),
    "GridSpec-bool-t0": (lambda: GridSpec(True, 2.0, 4), "InvalidGrid"),
    "sample_increments-bool-m": (
        lambda: sample_increments([0.5], True, np.random.default_rng(0)),
        "InvalidGrid",
    ),
    "ChainPath-text-times": (lambda: ChainPath("0", "1", 1), "IntervalOutOfRange"),
    "ChainPath-bool-t0": (lambda: ChainPath(True, 2, 1), "IntervalOutOfRange"),
    "count_jumps-bool-times": (lambda: count_jumps(PATH, False, True), "IntervalOutOfRange"),
    "state_at-numeric-text": (lambda: PATH.state_at("1"), "IntervalOutOfRange"),
    "sample_path-bool-t_end": (
        lambda: sample_path(LIN.generator, 1, 0.0, True, np.random.default_rng(0)),
        "IntervalOutOfRange",
    ),
    "ExperimentPlan-bool-t_end": (
        lambda: ExperimentPlan(LIN, ("euler",), True, (8,), 256, 1, 0),
        "InvalidGrid",
    ),
    "ExperimentPlan-numeric-text-t_end": (
        lambda: ExperimentPlan(LIN, ("euler",), "1", (8,), 256, 1, 0),
        "InvalidGrid",
    ),
    "ExperimentPlan-int-coarse_steps": (
        lambda: ExperimentPlan(LIN, ("euler",), 1.0, 8, 256, 1, 0),
        "InvalidGrid",
    ),
    "fit_order-numeric-text-h": (
        lambda: fit_order([("0.5", 1.0), (0.25, 0.5), (0.125, 0.2)]),
        "InvalidGrid",
    ),
    "fit_order-bool-h": (
        lambda: fit_order([(True, 1.0), (0.5, 0.5), (0.25, 0.2)]),
        "InvalidGrid",
    ),
    "ModelSpec-text-x0": (
        lambda: ModelSpec("m", LIN.generator, LIN.coefficients, x0=["a"]),
        "NonFiniteInput",
    ),
    "ExperimentPlan-int-schemes": (
        lambda: ExperimentPlan(LIN, 5, 1.0, (8,), 256, 1, 0),
        "UnknownScheme",
    ),
    "ExperimentPlan-text-schemes": (
        lambda: ExperimentPlan(LIN, "euler", 1.0, (8,), 256, 1, 0),
        "UnknownScheme",
    ),
    "ExperimentPlan-unhashable-scheme": (
        lambda: ExperimentPlan(LIN, (["euler"],), 1.0, (8,), 256, 1, 0),
        "UnknownScheme",
    ),
    "ExperimentPlan-no-model": (
        lambda: ExperimentPlan(None, ("euler",), 1.0, (8,), 256, 1, 0),
        "InvalidCoefficients",
    ),
    "sample_increments-text-deltas": (
        lambda: sample_increments(["a"], 1, np.random.default_rng(0)),
        "InvalidGrid",
    ),
    "sample_increments-nan-delta": (
        lambda: sample_increments([np.nan], 1, np.random.default_rng(0)),
        "InvalidGrid",
    ),
    "sample_increments-inf-delta": (
        lambda: sample_increments([np.inf], 1, np.random.default_rng(0)),
        "InvalidGrid",
    ),
    "NoisePath-text-times": (lambda: NoisePath(["a", 1.0], [[0.0]], [[0.0]]), "InvalidGrid"),
    "NoisePath-text-dw": (lambda: NoisePath([0.0, 1.0], [["a"]], [[0.0]]), "InvalidGrid"),
    "NoisePath-text-dz": (lambda: NoisePath([0.0, 1.0], [[0.0]], [["a"]]), "InvalidGrid"),
    "NoisePath-nan-dw": (lambda: NoisePath([0.0, 1.0], [[np.nan]], [[0.0]]), "NonFiniteInput"),
    "NoisePath-inf-dz": (lambda: NoisePath([0.0, 1.0], [[0.0]], [[np.inf]]), "NonFiniteInput"),
    "load_noise-nan-dw": (
        lambda: load_noise(io.BytesIO(struct.pack("<QQ4d", 2, 1, 0.0, 1.0, np.nan, 0.0))),
        "NonFiniteInput",
    ),
    "ChainPath-text-jump-times": (
        lambda: ChainPath(0.0, 1.0, 1, ["a"], [2]),
        "IntervalOutOfRange",
    ),
    "ChainPath-ragged-jump-times": (
        lambda: ChainPath(0.0, 1.0, 1, [[0.5], [0.6, 0.7]], [2, 1]),
        "IntervalOutOfRange",
    ),
    "ChainPath-nan-jump-time": (
        lambda: ChainPath(0.0, 1.0, 1, [0.5, np.nan], [2, 1]),
        "IntervalOutOfRange",
    ),
    "ChainPath-text-state": (lambda: ChainPath(0.0, 1.0, 1, [0.5], ["a"]), "StateOutOfRange"),
    "integrate-text-times": (
        lambda: integrate(LIN, "euler", CHAIN, NOISE, ["a", "b"]),
        "InvalidGrid",
    ),
    "integrate-2d-times": (
        lambda: integrate(LIN, "euler", CHAIN, NOISE, EDGES[None]),
        "InvalidGrid",
    ),
    "jump_records-text-edges": (lambda: jump_records(CHAIN, NOISE, ["a", "b"]), "InvalidGrid"),
    "jump_records-ragged-edges": (
        lambda: jump_records(CHAIN, NOISE, [[0.0], [0.5, 1.0]]),
        "InvalidGrid",
    ),
    "check_commutativity-text-points": (
        lambda: check_commutativity(LIN, [["a"]]),
        "NonFiniteInput",
    ),
    "check_commutativity-ragged-points": (
        lambda: check_commutativity(LIN, [[1.0], [1.0, 2.0]]),
        "NonFiniteInput",
    ),
    "grid_indices-text": (lambda: NOISE.grid_indices(["a"]), "NotAGridTime"),
    "step_aggregates-text": (lambda: NOISE.step_aggregates(["a", "b"]), "NotAGridTime"),
    "w_many-ragged": (lambda: NOISE.w_many([[0.0], [0.5, 1.0]]), "NotAGridTime"),
    "jet-above-m0": (
        lambda: LIN.coefficients.jet(np.ones((1, 1)), np.array([3]), 0),
        "UnknownRegime",
    ),
    "march-above-m0": (lambda: _march(regimes=np.full((1, 4), 3)), "UnknownRegime"),
}


@pytest.mark.parametrize("call, error", BAD_CALLS.values(), ids=list(BAD_CALLS))
def test_bad_inputs_raise_package_errors(call, error):
    with pytest.raises(errors.SwitchTaylorError) as caught:
        call()
    assert type(caught.value).__name__ == error


def test_one_module_holds_the_integer_and_real_rules():
    # _values decides what a count, label, time, time grid or array of
    # numbers is; a second copy of a rule drifts from it
    removed = ("_is_label", "_number", "_floats", "_check_state")
    found = []
    for module in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and module.name != "_values.py":
                modules = [alias.name for alias in node.names] + [getattr(node, "module", None)]
                if "numbers" in modules:
                    found.append("%s:%d imports numbers" % (module.name, node.lineno))
            # a definition, an imported name, a name or an attribute
            name = getattr(node, "name", None) or getattr(node, "id", None)
            if (name or getattr(node, "attr", None)) in removed:
                found.append("%s:%d names a removed local rule" % (module.name, node.lineno))
    assert not found, "; ".join(found)


PER_ENTRY_VIEWS = {
    "drift",
    "diffusion",
    "drift_gradient",
    "drift_hessian",
    "diffusion_gradient",
    "diffusion_hessian",
}


def test_coefficients_are_read_through_jet():
    # the package reads a coefficient set through CoefficientSet.jet only;
    # the six per-entry names are views of it that only the benchmark's
    # tracer reads
    found = []
    for module in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [
            "%s:%d" % (module.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in PER_ENTRY_VIEWS
        ]
    assert not found, "per-entry coefficient calls in the package: %s" % ", ".join(found)


def _writes_to_stdout(node):
    # a print(...) call, or any reference to sys.stdout
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id == "print"
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "stdout"
        and isinstance(node.value, ast.Name)
        and node.value.id == "sys"
    )


def test_package_writes_to_stdout_only_in_cli():
    # callers that print their own result last, such as a benchmark's JSON
    # line, need a library that stays off standard output; only the command
    # line front end writes there
    found = []
    for module in sorted(PACKAGE.rglob("*.py")):
        if module.name == "cli.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [
            "%s:%d" % (module.name, node.lineno)
            for node in ast.walk(tree)
            if _writes_to_stdout(node)
        ]
    assert not found, "writes to standard output outside cli.py: %s" % ", ".join(found)
