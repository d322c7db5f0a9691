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


_ENVIRONMENT_NAMES = {"environ", "environb", "getenv", "getenvb"}


def test_the_package_reads_no_environment_variable():
    # every setting is a config key or a flag, so a run is described by its
    # config and command line alone; this finds os.environ, os.getenv and
    # their from-imports
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT_NAMES
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name}:{node.lineno} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name}:{node.lineno} from os import {alias.name}"
                          for alias in node.names if alias.name in _ENVIRONMENT_NAMES]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


def test_the_cli_imports_no_private_name_of_the_package():
    # the CLI runs the library's public pipeline (measure_constants, then
    # verify_expansion), so a command is the library's two steps and needs
    # no private hand-off; this finds underscore-prefixed names in relative
    # and mtcover from-imports of cli.py
    path = SRC / "cli.py"
    found = [f"{path.name}:{node.lineno} {alias.name}"
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.ImportFrom)
             and (node.level > 0 or (node.module or "").split(".")[0] == "mtcover")
             for alias in node.names if alias.name.startswith("_")]
    assert found == []
