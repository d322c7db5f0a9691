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


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _from_small(node) -> bool:
    """True for a from-import of the _small module, relative or absolute."""
    return isinstance(node, ast.ImportFrom) and (
        (node.level == 1 and node.module == "_small") or node.module == "mtcover._small")


def test_small_imports_nothing_from_the_package():
    # _small is the bottom layer: every module may use its kernels, and it
    # is numpy only
    path = SRC / "_small.py"
    found = [f"{path.name}:{node.lineno}" for node in ast.walk(_tree(path))
             if (isinstance(node, ast.ImportFrom)
                 and (node.level > 0 or (node.module or "").split(".")[0] == "mtcover"))
             or (isinstance(node, ast.Import)
                 and any(alias.name.split(".")[0] == "mtcover" for alias in node.names))]
    assert found == []


def test_no_module_imports_a_private_name_of_small():
    # the path rules (the 2 x 2 entry forms, the closed-form dimensions) stay
    # inside _small, so no caller learns which path a kernel took
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_small.py":
            continue
        for node in ast.walk(_tree(path)):
            if _from_small(node):
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                  and isinstance(node.value, ast.Name) and node.value.id == "_small"):
                found.append(f"{path.name}:{node.lineno} _small.{node.attr}")
    assert found == []


_SMALL_ONLY = {"eigvalsh", "svd", "cholesky"}


def test_only_small_calls_the_per_point_factorizations():
    # every per-point eigenvalue, singular value and Cholesky factor goes
    # through _small's kernels, which run closed form where they can; this
    # finds linalg.<name> references and from-imports of numpy.linalg
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "_small.py":
            continue
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute) and node.attr in _SMALL_ONLY
                    and isinstance(node.value, ast.Attribute) and node.value.attr == "linalg"):
                found.append(f"{path.name}:{node.lineno} linalg.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found += [f"{path.name}:{node.lineno} {alias.name}"
                          for alias in node.names if alias.name in _SMALL_ONLY]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert found == []


_VIEWS = {"apply": 0, "jacobian": 1}


def _is_jet_view(fn: ast.FunctionDef, index: int) -> bool:
    """True for `def view(self, x): return self.jet(x)[index]`."""
    args = [a.arg for a in fn.args.args]
    return (len(args) == 2 and len(fn.body) == 1 and isinstance(fn.body[0], ast.Return)
            and ast.unparse(fn.body[0].value) == f"{args[0]}.jet({args[1]})[{index}]")


def test_every_torus_map_is_evaluated_through_its_jet():
    # jet is the one evaluation a torus map implements, so a Newton inverse
    # checks its conditioning on every read and a composite walks its tree
    # once; apply and jacobian, wherever a class defines them, are views
    classes = {node.name: (path.name, node)
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(_tree(path)) if isinstance(node, ast.ClassDef)}
    maps = {"TorusMapHandle"}
    while True:
        subclasses = {name for name, (_, node) in classes.items()
                      if any(ast.unparse(base).split(".")[-1] in maps for base in node.bases)}
        if subclasses <= maps:
            break
        maps |= subclasses
    found = []
    for name in sorted(maps):
        module, node = classes[name]
        methods = {fn.name: fn for fn in node.body if isinstance(fn, ast.FunctionDef)}
        if "jet" not in methods:
            found.append(f"{module} {name} defines no jet")
        for view, index in _VIEWS.items():
            if view in methods and not _is_jet_view(methods[view], index):
                found.append(f"{module}:{methods[view].lineno} {name}.{view} is no view of jet")
    assert len(maps) >= 7
    assert found == []


_SEAM_READERS = {"MultiMappingTorus.normalize_raw", "MultiMappingTorus._inverse",
                 "MultiMappingTorus.distance"}


def _gluing_reads(node, scope=()):
    """(scope, line) of every x.gluings[...] item read under node, scope
    being the dotted names of the classes and functions around it."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = scope + (node.name,)
    if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "gluings"):
        yield ".".join(scope), node.lineno
    for child in ast.iter_child_nodes(node):
        yield from _gluing_reads(child, scope)


def test_only_normalize_raw_crosses_a_seam():
    # a seam is crossed by one rule: normalize_raw applies the gluing (and
    # _inverse inverts it for the way back); distance compares two sides of
    # one seam through it.  check_seams and everything else read the upper
    # side of a seam from normalize_raw, so no second seam table can drift
    reads = [(path.name, line, scope) for path in sorted(SRC.glob("*.py"))
             for scope, line in _gluing_reads(_tree(path))]
    assert [f"{name}:{line} {scope}" for name, line, scope in reads
            if scope not in _SEAM_READERS] == []
    # the rule still sees the readers it allows
    assert {scope for _, _, scope in reads} == _SEAM_READERS


_PROCESS_CALLS = {"fork", "pipe"}


def test_only_expansion_forks_or_opens_pipes():
    # one worker mechanism: the sweep's worker group in expansion.py; this
    # finds os.fork and os.pipe references and their from-imports
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if (isinstance(node, ast.Attribute) and node.attr in _PROCESS_CALLS
                    and isinstance(node.value, ast.Name) and node.value.id == "os"):
                found.append(f"{path.name} os.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                found += [f"{path.name} from os import {alias.name}"
                          for alias in node.names if alias.name in _PROCESS_CALLS]
    assert len(list(SRC.glob("*.py"))) >= 10
    assert {entry for entry in found if not entry.startswith("expansion.py ")} == set()
    # the rule still sees the calls it allows
    assert {"expansion.py os.fork", "expansion.py os.pipe"} <= set(found)


_COVER_CLASSES = {"MultiMappingTorus", "CompositeCovering"}


def _calls(node, match, scope=()):
    """(scope, name) of every call under node whose callee's name passes
    match, scope being the dotted names of the classes and functions around it."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
        scope = scope + (node.name,)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if match(name):
            yield ".".join(scope), name
    for child in ast.iter_child_nodes(node):
        yield from _calls(child, match, scope)


def _is_construction(name: str) -> bool:
    """A chart space, composite or stage class."""
    return name in _COVER_CLASSES or name.startswith("Stage")


def test_only_coverings_builds_spaces_and_stage_chains():
    # one construction per run: the three build functions of coverings.py make
    # every chart space, stage and composite, and mapping_torus is the one
    # shorthand for a single-segment space
    calls = {(path.name, scope, name) for path in sorted(SRC.glob("*.py"))
             for scope, name in _calls(_tree(path), _is_construction)}
    outside = {call for call in calls if call[0] != "coverings.py"}
    assert outside == {("manifolds.py", "mapping_torus", "MultiMappingTorus")}
    # the rule still sees the build functions it allows
    assert {("coverings.py", "build_qm", "StageR"),
            ("coverings.py", "fiber_stages", "StageH"),
            ("coverings.py", "build_stage_inventory", "CompositeCovering")} <= calls


def _callers(name: str) -> set:
    """(module, scope) of every call of name in the package sources."""
    return {(path.name, scope) for path in sorted(SRC.glob("*.py"))
            for scope, _ in _calls(_tree(path), lambda callee: callee == name)}


def test_the_sampling_decision_stays_in_sample():
    # one sampling plan: manifolds.py decides how a sample's slices and its
    # read-only grid are laid out (Sample), measure_constants picks a run's
    # grid and builds its one Sample, and jacobian_sup_norm keeps a grid of
    # its own for the diffeotopy check of a field; those two ask a field for
    # its unused axes and unit_grid for their quotient, so no sweep
    # quotients its own points.  The CSV dump alone also asks both, to
    # broadcast the run's values onto the tensor grid.  No grid is sorted
    # into its quotient or built by np.meshgrid
    assert {module for module, _ in _callers("linspace")} == {"manifolds.py"}
    assert {module for module, _ in _callers("_run_grid")} == {"manifolds.py"}
    assert _callers("unit_grid") == {("expansion.py", "measure_constants"),
                                     ("fields.py", "jacobian_sup_norm"),
                                     ("cli.py", "_dump_conorm_csv")}
    assert _callers("Sample") == {("expansion.py", "measure_constants")}
    assert _callers("unused_axes") == {("expansion.py", "measure_constants"),
                                       ("fields.py", "jacobian_sup_norm"),
                                       ("cli.py", "_dump_conorm_csv")}
    assert _callers("unique") == _callers("meshgrid") == set()
