"""Rules the package sources keep, checked on their syntax trees."""

import ast
import pathlib

import mtcover

SRC = pathlib.Path(mtcover.__file__).parent


def test_the_package_has_no_assert_statements():
    # python -O strips assert statements, so a check written as one would
    # vanish from optimized runs; checks raise typed errors instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []
