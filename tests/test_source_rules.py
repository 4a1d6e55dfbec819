"""Rules the package source keeps."""

import ast
import enum
import numbers
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import switchtaylor
from switchtaylor import (
    CallableCoefficients,
    ChainPath,
    DiagonalLinearCoefficients,
    ExperimentPlan,
    GeneratorMatrix,
    GridSpec,
    MeanRevertingCoefficients,
    ModelSpec,
    MultiIndex,
    NoisePath,
    build_hierarchical_set,
    build_noise,
    build_scheme_sets,
    check_commutativity,
    count_jumps,
    errors,
    fit_order,
    fixture,
    fixture_names,
    get_scheme,
    integrate,
    jump_records,
    march,
    merge_records,
    pair_jump_martingale,
    parse_config,
    run,
    sample_increments,
    sample_path,
    strong_error,
    validate_word,
    word,
)
from switchtaylor import _values, model
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


def _march(regimes=np.ones((1, 4), dtype=np.int64), table=TABLE, hs=np.diff(EDGES)):
    # one path on the four windows of EDGES; the first march step runs the checks
    zeros = np.zeros((1, 4, 1))
    y0 = np.ones((1, 1))
    return next(march(get_scheme("euler"), LIN.coefficients, y0, regimes, hs, zeros, zeros, table))

def _kernel(name, h=0.25, dz=np.zeros((1, 1))):
    # one direct kernel call on one linear2 path in regime 1
    kernel = get_scheme(name).kernel
    return kernel(LIN.coefficients, np.ones((1, 1)), np.array([1]), h, np.zeros((1, 1)), dz)


def _callable_jet(label):
    # a CallableCoefficients jet at one state with the given regime label
    coeffs = CallableCoefficients(lambda x, r: [r], lambda x, r: [[0.1]], 1, 1)
    return coeffs.jet(np.ones((1, 1)), np.array([label]), 0)


def _jet(coeffs, states, order=0):
    # a jet of the rows of ``states``, each in regime 1
    return coeffs.jet(states, np.ones(len(states), dtype=np.int64), order)


# constant coefficients in d = 2, whose functions read no state entry
PLANE = CallableCoefficients(lambda x, r: [0.0, 0.0], lambda x, r: np.eye(2), 2, 2)

# an integer too large for a float
BIG = 10**400


def _labels_jet(coeffs, rows, labels):
    # a jet of ``rows`` unit states under the given regime labels
    return coeffs.jet(np.ones((rows, coeffs.d)), labels, 0)


def _exact(x0_rows=1, regimes=((1,),), dt=((1.0,),), width=1):
    # linear2's exact solution on one interval of each path unless varied
    x0 = np.ones((x0_rows, 1))
    dw = np.zeros((len(dt), len(dt[0]), width))
    return LIN.coefficients.exact(x0, np.array(regimes), dt, dw)


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
    "pair_jump_martingale-float-state": (
        lambda: pair_jump_martingale(LIN.generator, PATH, 1.5, 2, 0.0, 2.0),
        "StateOutOfRange",
    ),
    "pair_jump_martingale-zero-state": (
        lambda: pair_jump_martingale(LIN.generator, PATH, 0, 1, 0.0, 2.0),
        "StateOutOfRange",
    ),
    "pair_jump_martingale-bool-state": (
        lambda: pair_jump_martingale(LIN.generator, PATH, True, 1, 0.0, 2.0),
        "StateOutOfRange",
    ),
    "pair_jump_martingale-bool-second-state": (
        lambda: pair_jump_martingale(LIN.generator, PATH, 2, True, 0.0, 2.0),
        "StateOutOfRange",
    ),
    # a path does not know its chain's state count; the generator does
    "pair_jump_martingale-state-above-m0": (
        lambda: pair_jump_martingale(LIN.generator, PATH, 7, 1, 0.0, 2.0),
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
    "jet-float-label": (
        lambda: LIN.coefficients.jet(np.ones((1, 1)), np.array([1.5]), 0),
        "UnknownRegime",
    ),
    "CallableCoefficients-text-value": (
        lambda: CallableCoefficients(lambda x, r: ["a"], lambda x, r: [[0.1]], 1, 1).jet(
            np.ones((1, 1)), np.array([1]), 0
        ),
        "InvalidCoefficients",
    ),
    "DiagonalLinearCoefficients-text-rates": (
        lambda: DiagonalLinearCoefficients(a=[["a"]], c=[[0.1]]),
        "InvalidCoefficients",
    ),
    "DiagonalLinearCoefficients-ragged-rates": (
        lambda: DiagonalLinearCoefficients(a=[[1.0], [1.0]], c=[[0.1], [0.1, 0.2]]),
        "InvalidCoefficients",
    ),
    "MeanRevertingCoefficients-text-table": (
        lambda: MeanRevertingCoefficients(theta=["a"], mean=[0.0], c=[0.1]),
        "InvalidCoefficients",
    ),
    "MeanRevertingCoefficients-ragged-table": (
        lambda: MeanRevertingCoefficients(theta=[1.0], mean=[[0.0], [0.0, 1.0]], c=[0.1]),
        "InvalidCoefficients",
    ),
    "MeanRevertingCoefficients-unequal-tables": (
        lambda: MeanRevertingCoefficients(theta=[1.0, 2.0], mean=[0.0], c=[0.1]),
        "DimensionMismatch",
    ),
    "CallableCoefficients-text-d": (
        lambda: CallableCoefficients(lambda x, r: x, lambda x, r: [[0.1]], "a", 1),
        "InvalidCoefficients",
    ),
    "CallableCoefficients-float-d": (
        lambda: CallableCoefficients(lambda x, r: x, lambda x, r: [[0.1]], 1.5, 1),
        "InvalidCoefficients",
    ),
    "CallableCoefficients-zero-m": (
        lambda: CallableCoefficients(lambda x, r: x, lambda x, r: [[0.1]], 1, 0),
        "InvalidCoefficients",
    ),
    "CallableCoefficients-jet-float-label": (lambda: _callable_jet(1.5), "UnknownRegime"),
    "CallableCoefficients-jet-bool-label": (lambda: _callable_jet(True), "UnknownRegime"),
    "CallableCoefficients-jet-zero-label": (lambda: _callable_jet(0), "UnknownRegime"),
    "CallableCoefficients-jet-negative-label": (lambda: _callable_jet(-1), "UnknownRegime"),
    "march-text-step-sizes": (lambda: _march(hs=["a"] * 4), "InvalidGrid"),
    "euler-kernel-text-h": (lambda: _kernel("euler", h="a"), "InvalidGrid"),
    "milstein-kernel-text-h": (lambda: _kernel("milstein", h="a"), "InvalidGrid"),
    "taylor15-kernel-text-h": (lambda: _kernel("taylor15", h="a"), "InvalidGrid"),
    "taylor15-kernel-no-dz": (lambda: _kernel("taylor15", dz=None), "InvalidGrid"),
    "GeneratorMatrix-positive-diagonal": (
        lambda: GeneratorMatrix([[1.0, 0.0], [0.0, 0.0]]),
        "InvalidGenerator",
    ),
    "ChainPath-more-states-than-jump-times": (
        lambda: ChainPath(0.0, 1.0, 1, [0.5], [2, 1]),
        "StateOutOfRange",
    ),
    "NoisePath-unequal-increment-shapes": (
        lambda: NoisePath([0.0, 1.0], [[0.0]], [[0.0, 0.0]]),
        "InvalidGrid",
    ),
    "MeanRevertingCoefficients-jet-above-m0": (
        lambda: fixture("additive").coefficients.jet(np.ones((1, 1)), np.array([3]), 0),
        "UnknownRegime",
    ),
    "DiagonalLinearCoefficients-exact-above-m0": (
        lambda: LIN.coefficients.exact(
            np.ones((1, 1)), np.array([[3]]), np.ones((1, 1)), np.zeros((1, 1, 1))
        ),
        "UnknownRegime",
    ),
    "DiagonalLinearCoefficients-jet-width-1-of-2": (
        lambda: _jet(fixture("diagonal3").coefficients, np.ones((1, 1))),
        "DimensionMismatch",
    ),
    "DiagonalLinearCoefficients-jet-width-5-of-2": (
        lambda: _jet(fixture("diagonal3").coefficients, np.ones((1, 5))),
        "DimensionMismatch",
    ),
    "DiagonalLinearCoefficients-jet-1d-states": (
        lambda: _jet(LIN.coefficients, np.ones(1)),
        "DimensionMismatch",
    ),
    "MeanRevertingCoefficients-jet-width-2-of-1": (
        lambda: _jet(fixture("additive").coefficients, np.ones((1, 2))),
        "DimensionMismatch",
    ),
    "PolynomialColumnsCoefficients-jet-width-2-of-1": (
        lambda: _jet(fixture("noncommutative").coefficients, np.ones((1, 2))),
        "DimensionMismatch",
    ),
    "CallableCoefficients-jet-width-3-of-2": (
        lambda: _jet(PLANE, np.ones((1, 3)), 1),
        "DimensionMismatch",
    ),
    "CallableCoefficients-jet-width-1-of-2": (
        lambda: _jet(PLANE, np.ones((1, 1)), 1),
        "DimensionMismatch",
    ),
    "DiagonalLinearCoefficients-exact-width-1-of-2": (
        lambda: fixture("diagonal3").coefficients.exact(
            np.ones((1, 1)), np.array([[1]]), np.ones((1, 1)), np.zeros((1, 1, 2))
        ),
        "DimensionMismatch",
    ),
    "build_hierarchical_set-unbounded-time-words": (
        lambda: build_hierarchical_set(
            lambda w: all(c.kind is ComponentKind.TIME for c in w.components), 1, 1
        ),
        "InvalidGamma",
    ),
    "MultiIndex-non-Component-letter": (lambda: MultiIndex((3,)), "InvalidComponent"),
    "ExperimentPlan-oversized-t_end": (
        lambda: ExperimentPlan(LIN, ("euler",), BIG, (8,), 256, 1, 0),
        "InvalidGrid",
    ),
    "GridSpec-oversized-n": (lambda: GridSpec(0.0, 1.0, BIG), "InvalidGrid"),
    # counts held in a float stay exact only up to 2**53
    "ExperimentPlan-step-above-2**1023": (
        lambda: ExperimentPlan(LIN, ("euler",), 1.0, (2**1100,), 2**1104, 1, 0),
        "InvalidGrid",
    ),
    "ExperimentPlan-paths-above-2**53": (
        lambda: ExperimentPlan(LIN, ("euler",), 1.0, (8,), 256, 2**53 + 1, 0),
        "InvalidGrid",
    ),
    "run-steps-above-2**53": (
        lambda: run(
            ExperimentPlan(LIN, ("euler",), 1.0, (2**1000, 2**1001, 2**1002), 2**1006, 1, 0)
        ),
        "InvalidGrid",
    ),
    "strong_error-level-above-2**53": (
        lambda: strong_error(ExperimentPlan(LIN, ("euler",), 1.0, (8,), 256, 1, 0), 2**54),
        "InvalidGrid",
    ),
    "GridSpec-n-above-2**53": (lambda: GridSpec(0.0, 1.0, 2**62), "InvalidGrid"),
    "GridSpec-oversized-t_end": (lambda: GridSpec(0.0, BIG, 4), "InvalidGrid"),
    "GridSpec-oversized-negative-t0": (lambda: GridSpec(-BIG, 1.0, 4), "InvalidGrid"),
    "ChainPath-oversized-t_end": (lambda: ChainPath(0.0, BIG, 1), "IntervalOutOfRange"),
    "sample_path-oversized-t_end": (
        lambda: sample_path(LIN.generator, 1, 0.0, BIG, np.random.default_rng(0)),
        "IntervalOutOfRange",
    ),
    "fit_order-oversized-h": (
        lambda: fit_order([(BIG, 1.0), (0.5, 0.5), (0.25, 0.2)]),
        "InvalidGrid",
    ),
    "sample_increments-oversized-delta": (
        lambda: sample_increments([BIG], 1, np.random.default_rng(0)),
        "InvalidGrid",
    ),
    "build_scheme_sets-oversized-gamma": (lambda: build_scheme_sets(BIG, 1), "InvalidGamma"),
    "count_jumps-oversized-time": (lambda: count_jumps(PATH, 0.0, BIG), "IntervalOutOfRange"),
    "DiagonalLinearCoefficients-jet-two-labels-one-row": (
        lambda: _labels_jet(LIN.coefficients, 1, np.array([1, 2])),
        "DimensionMismatch",
    ),
    "DiagonalLinearCoefficients-jet-scalar-label": (
        lambda: _labels_jet(LIN.coefficients, 1, np.int64(1)),
        "DimensionMismatch",
    ),
    "MeanRevertingCoefficients-jet-one-label-two-rows": (
        lambda: _labels_jet(fixture("additive").coefficients, 2, np.array([1])),
        "DimensionMismatch",
    ),
    "PolynomialColumnsCoefficients-jet-two-labels-one-row": (
        lambda: _labels_jet(fixture("noncommutative").coefficients, 1, np.array([1, 2])),
        "DimensionMismatch",
    ),
    "CallableCoefficients-jet-one-label-two-rows": (
        lambda: _labels_jet(PLANE, 2, np.array([1])),
        "DimensionMismatch",
    ),
    "CallableCoefficients-jet-two-labels-one-row": (
        lambda: _labels_jet(PLANE, 1, np.array([1, 2])),
        "DimensionMismatch",
    ),
    "DiagonalLinearCoefficients-exact-regimes-longer-than-dt": (
        lambda: _exact(regimes=((1, 2),), dt=((1.0, 1.0, 1.0),)),
        "DimensionMismatch",
    ),
    "DiagonalLinearCoefficients-exact-dw-width-2-of-1": (
        lambda: _exact(width=2),
        "DimensionMismatch",
    ),
    "DiagonalLinearCoefficients-exact-more-states-than-intervals": (
        lambda: _exact(x0_rows=2),
        "DimensionMismatch",
    ),
    "DiagonalLinearCoefficients-exact-text-dt": (lambda: _exact(dt=(("a",),)), "InvalidGrid"),
    "fixture-unhashable-name": (lambda: fixture([]), "UnknownFixture"),
    "parse_config-unbalanced-close": (lambda: parse_config("k = [1]]\n"), "ConfigError"),
    "parse_config-unbalanced-open": (lambda: parse_config("k = [[1]\n"), "ConfigError"),
    "exact-negative-label": (lambda: _exact(regimes=((-1,),)), "UnknownRegime"),
    "exact-zero-label": (lambda: _exact(regimes=((0,),)), "UnknownRegime"),
    # march refuses a label above the set's regime count before its first step
    "march-above-m0-before-the-first-step": (
        lambda: march(get_scheme("euler"), LIN.coefficients, None, np.full((1, 4), 3), *[None] * 4),
        "UnknownRegime",
    ),
    "march-reg2-above-m0": (
        lambda: _march(table=replace(TABLE, reg2=TABLE.reg2 + 2)),
        "UnknownRegime",
    ),
    "GridSpec-float-n": (lambda: GridSpec(0.0, 1.0, 16.0), "InvalidGrid"),
    "sample_increments-m-above-2**53": (
        lambda: sample_increments([0.5], 2**53 + 1, np.random.default_rng(0)),
        "InvalidGrid",
    ),
    "CallableCoefficients-d-above-2**53": (
        lambda: CallableCoefficients(lambda x, r: x, lambda x, r: [[0.1]], 2**53 + 1, 1),
        "InvalidCoefficients",
    ),
    # an index set holds at most 2**20 letters, the alphabet included
    "build_scheme_sets-m-above-2**53": (lambda: build_scheme_sets(0.5, 2**70), "InvalidComponent"),
    "build_scheme_sets-m-beyond-the-letter-bound": (
        lambda: build_scheme_sets(0.5, 2**40),
        "InvalidComponent",
    ),
    "build_hierarchical_set-permissive-predicate": (
        lambda: build_hierarchical_set(lambda w: True, 1, 1),
        "InvalidGamma",
    ),
}
# every jet of the built-in sets refuses a label that is no regime; the
# rate-table sets also refuse one above their regime count
for _name in fixture_names():
    _coeffs = fixture(_name).coefficients
    for _label in (-1, 0, True) + (() if _coeffs.m0 is None else (_coeffs.m0 + 1,)):
        BAD_CALLS["jet-%s-label-%r" % (_name, _label)] = (
            lambda c=_coeffs, r=_label: c.jet(np.ones((1, c.d)), np.array([r]), 0),
            "UnknownRegime",
        )


@pytest.mark.parametrize("call, error", BAD_CALLS.values(), ids=list(BAD_CALLS))
def test_bad_inputs_raise_package_errors(call, error):
    with pytest.raises(errors.SwitchTaylorError) as caught:
        call()
    assert type(caught.value).__name__ == error


def test_cli_takes_library_error_keys_from_one_table():
    # cli._KEY_OF names the config key of each library error the command line
    # meets for one key only, and run reports it; a handler elsewhere in
    # cli.py that catches a package error to name its key is a second copy
    package_errors = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, errors.SwitchTaylorError)
    }
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    found = []
    for top in tree.body:
        if isinstance(top, ast.FunctionDef) and top.name == "run":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names = {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node.type)}
                if names & package_errors:
                    found.append("cli.py:%d" % node.lineno)
    assert not found, "package errors caught outside run: %s" % ", ".join(found)


def test_every_leaf_error_class_is_named_by_the_package():
    # a leaf class of errors.py that no other module uses is raised by
    # nothing: the code that raised it was deleted and the class was left;
    # an import alone is no use, so only names and attributes count
    tree = ast.parse((PACKAGE / "errors.py").read_text())
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    used = set()
    for module in sorted(PACKAGE.rglob("*.py")):
        if module.name in ("errors.py", "__init__.py"):
            continue
        for node in ast.walk(ast.parse(module.read_text(), filename=str(module))):
            used.add(getattr(node, "id", None) or getattr(node, "attr", None))
    unused = [node.name for node in classes if node.name not in bases | used]
    assert not unused, "error classes no module names: %s" % ", ".join(unused)


def test_closed_form_merge_places_by_position():
    # convergence._closed_form_states puts every grid point and switch at its
    # merged column from one searchsorted; a sort, or the inverse permutation
    # it needs, redoes what those positions already say
    tree = ast.parse((PACKAGE / "convergence.py").read_text())
    (func,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_closed_form_states"
    ]
    found = [
        "convergence.py:%d" % node.lineno
        for node in ast.walk(func)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None))
        in ("argsort", "sort", "sorted", "lexsort", "put_along_axis")
    ]
    assert not found, "sorting calls in the closed-form merge: %s" % ", ".join(found)


def test_one_module_holds_the_integer_and_real_rules():
    # _values decides what a count, label, time, time grid or array of
    # numbers is; a second copy of a rule drifts from it
    removed = ("_is_label", "_number", "_floats", "_check_state", "_is_int", "_is_count", "_count")
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


def test_fixtures_leave_regime_labels_to_check():
    # CoefficientSet._check refuses every label outside 1..m0 before a jet or
    # exact gathers; a fixture that builds UnknownRegime or catches the
    # gather's IndexError is a second label rule
    tree = ast.parse((PACKAGE / "fixtures.py").read_text())
    found = []
    for node in ast.walk(tree):
        name = getattr(node, "id", getattr(node, "attr", getattr(node, "name", None)))
        if name == "UnknownRegime":
            found.append("fixtures.py:%d names UnknownRegime" % node.lineno)
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            if "IndexError" in {getattr(n, "id", None) for n in ast.walk(node.type)}:
                found.append("fixtures.py:%d catches IndexError" % node.lineno)
    assert not found, "; ".join(found)


def test_only_values_converts_arrays_to_floats():
    # _values reads a caller's numbers and names the package error for text
    # or ragged input; a hand-written np.asarray(..., dtype=float) elsewhere
    # leaks numpy's bare ValueError instead
    found = []
    for module in sorted(PACKAGE.rglob("*.py")):
        if module.name == "_values.py":
            continue
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [
            "%s:%d" % (module.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and any(
                kw.arg == "dtype" and isinstance(kw.value, ast.Name) and kw.value.id == "float"
                for kw in node.keywords
            )
        ]
    assert not found, "float conversions outside _values: %s" % ", ".join(found)


class _Level(enum.IntEnum):
    LOW = 1


def test_integer_and_real_rules_agree_with_the_numbers_abcs():
    # the exact-type shortcuts of is_int and is_real answer as the ABC
    # definitions do, and bool stays refused
    for value in (3, True, np.bool_(True), np.int64(3), 2.5, np.float64(2.5), Fraction(1, 2),
                  Decimal("1.5"), "1", None, _Level.LOW):
        not_bool = not isinstance(value, bool)
        assert _values.is_int(value) == (isinstance(value, numbers.Integral) and not_bool), value
        assert _values.is_real(value) == (isinstance(value, numbers.Real) and not_bool), value


def test_contractions_and_counts_skip_numpy_dispatch():
    # every einsum and count_nonzero of the package goes through the
    # bindings in model, numpy's own implementations of the two functions;
    # an np.<name>(...) call passes numpy's __array_function__ dispatcher
    found = []
    for module in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(module.read_text(), filename=str(module))
        found += [
            "%s:%d" % (module.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("einsum", "count_nonzero")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
        ]
    assert not found, "dispatched einsum or count_nonzero calls: %s" % ", ".join(found)
    assert model._einsum is np.einsum._implementation
    assert model._count_nonzero is np.count_nonzero._implementation


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
