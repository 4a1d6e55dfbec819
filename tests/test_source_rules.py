"""Rules the package source keeps."""

import ast
from pathlib import Path

import numpy as np
import pytest

import switchtaylor
from switchtaylor import ChainPath, ModelSpec, errors, fit_order, fixture, merge_records

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
}


@pytest.mark.parametrize("call, error", BAD_CALLS.values(), ids=list(BAD_CALLS))
def test_bad_inputs_raise_package_errors(call, error):
    with pytest.raises(errors.SwitchTaylorError) as caught:
        call()
    assert type(caught.value).__name__ == error


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
