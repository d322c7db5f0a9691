"""The names the benchmark's tracer wraps exist where it looks for them.

perfbench/tracing.py looks up every entry of its _TARGETS list by name and
wraps it: a module-level function through the module, a method through
its own class's __dict__.  A renamed, moved or aliased target crashes
traced benchmark runs (--trace 1) or merges two spans into one, so these
tests read the list (the file is loaded, never changed) and check it.
"""

import importlib
import importlib.util
import os

TRACING = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                       "perfbench", "tracing.py")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._TARGETS


def test_every_traced_target_exists():
    missing = []
    for mod_name, cls_name, attr in _targets():
        module = importlib.import_module(f"mtcover.{mod_name}")
        if cls_name is None:
            found = callable(getattr(module, attr, None))
        else:
            cls = getattr(module, cls_name, None)
            found = cls is not None and attr in vars(cls)
        if not found:
            missing.append(".".join(p for p in (mod_name, cls_name, attr) if p))
    assert not missing


def test_traced_functions_are_distinct_objects():
    # the tracer rebinds functions by identity, so an alias would share a span
    functions = [getattr(importlib.import_module(f"mtcover.{mod_name}"), attr)
                 for mod_name, cls_name, attr in _targets() if cls_name is None]
    assert len({id(fn) for fn in functions}) == len(functions)
