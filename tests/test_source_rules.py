"""Rules the package source keeps."""

import ast
from pathlib import Path

import switchtaylor

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
    # the six per-entry names are views of it kept for outside callers
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
