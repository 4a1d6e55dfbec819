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
