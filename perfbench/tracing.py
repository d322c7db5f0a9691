"""Outside-in span tracing of mtcover's layers, and the per-layer metrics.

`instrument` replaces public functions and methods of mtcover with timing
wrappers, in every mtcover module namespace that binds them, and returns a
function that puts the originals back.  Nothing in src/mtcover is edited.
Each call records a span: name, start, end and parent span.  Spans stay in
memory (compact arrays) until the run ends.  Tracing assumes one thread.

Self time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
from array import array
from time import perf_counter

import numpy as np

_MODULES = ("mtcover", "mtcover.cli", "mtcover.coverings", "mtcover.expansion",
            "mtcover.fields", "mtcover.lifting", "mtcover.manifolds",
            "mtcover.torus_maps")

# (module, class or None, attribute) of every traced callable.
_TARGETS = [
    ("fields", "TrigDisplacementField", "evaluate"),
    ("fields", "TrigDisplacementField", "jacobian"),
    *[("torus_maps", cls, attr)
      for cls in ("TrigDisplacementMap", "HomothetyMap", "CompositeMap",
                  "NewtonInverseMap")
      for attr in ("apply", "jacobian")],
    ("torus_maps", None, "newton_invert"),
    ("lifting", "NaturalLiftMap", "apply"),
    ("lifting", "NaturalLiftMap", "jacobian"),
    ("lifting", None, "tower_from_field"),
    ("manifolds", "MetricG", "fiber_gram"),
    ("manifolds", "MultiMappingTorus", "normalize_raw"),
    ("manifolds", "MultiMappingTorus", "distance"),
    ("coverings", "CompositeCovering", "frame"),
    ("coverings", "CompositeCovering", "fiber_handle_at"),
    *[("coverings", f"Stage{s}", "frame") for s in "HFPRSTQ"],
    ("coverings", None, "preimages"),
    ("expansion", None, "estimate_metric_equiv"),
    ("expansion", None, "estimate_cq"),
    ("expansion", None, "estimate_C"),
    ("expansion", None, "verify_vertical_expansion"),
    ("expansion", None, "estimate_K"),
    ("expansion", None, "verify_finsler_expansion"),
    ("expansion", None, "build_adapted_metric"),
    ("cli", None, "load_config"),
    ("cli", None, "emit_json"),
    ("cli", None, "cmd_degree"),
]

_APPLY = tuple(f"torus_maps.{cls}.apply" for cls in
               ("TrigDisplacementMap", "HomothetyMap", "CompositeMap",
                "NewtonInverseMap")) + ("lifting.NaturalLiftMap.apply",)
_COMPOSITE_FRAME = "coverings.CompositeCovering.frame"
_F_FRAME = _COMPOSITE_FRAME + "[f]"  # frames of the composite self-cover f

# metric -> (unit, reduction, span-name prefixes).  "calls" counts spans,
# "self_s" sums self time and "incl_s" sums whole durations.
PER_LAYER = {
    "fields.evaluate.calls": ("count", "calls", ("fields.TrigDisplacementField.evaluate",)),
    "fields.evaluate.self_s": ("s", "self_s", ("fields.TrigDisplacementField.evaluate",)),
    "fields.jacobian.calls": ("count", "calls", ("fields.TrigDisplacementField.jacobian",)),
    "fields.jacobian.self_s": ("s", "self_s", ("fields.TrigDisplacementField.jacobian",)),
    "torus_maps.apply.calls": ("count", "calls", _APPLY[:-1]),
    "torus_maps.apply.self_s": ("s", "self_s", _APPLY[:-1]),
    "torus_maps.jacobian.calls": ("count", "calls", tuple(
        f"torus_maps.{c}.jacobian" for c in ("TrigDisplacementMap", "HomothetyMap", "CompositeMap"))),
    "torus_maps.jacobian.self_s": ("s", "self_s", tuple(
        f"torus_maps.{c}.jacobian" for c in ("TrigDisplacementMap", "HomothetyMap", "CompositeMap"))),
    "torus_maps.newton_invert.calls": ("count", "calls", ("torus_maps.newton_invert",)),
    "torus_maps.newton_invert.self_s": ("s", "self_s", ("torus_maps.newton_invert",)),
    "torus_maps.newton_iters": ("count", "newton_iters", ()),
    "torus_maps.inverse_jacobian.self_s": ("s", "self_s", ("torus_maps.NewtonInverseMap.jacobian",)),
    "lifting.tower_from_field.self_s": ("s", "self_s", ("lifting.tower_from_field",)),
    "lifting.natural_lift.calls": ("count", "calls", ("lifting.NaturalLiftMap.",)),
    "manifolds.fiber_gram.calls": ("count", "calls", ("manifolds.MetricG.fiber_gram",)),
    "manifolds.fiber_gram.self_s": ("s", "self_s", ("manifolds.MetricG.fiber_gram",)),
    "manifolds.normalize_raw.calls": ("count", "calls", ("manifolds.MultiMappingTorus.normalize_raw",)),
    "manifolds.normalize_raw.self_s": ("s", "self_s", ("manifolds.MultiMappingTorus.normalize_raw",)),
    "manifolds.distance.calls": ("count", "calls", ("manifolds.MultiMappingTorus.distance",)),
    "manifolds.distance.self_s": ("s", "self_s", ("manifolds.MultiMappingTorus.distance",)),
    "coverings.frame.calls": ("count", "calls", (_COMPOSITE_FRAME,)),
    "coverings.frame.self_s": ("s", "self_s", (_COMPOSITE_FRAME,)),
    "coverings.stage_frame.self_s": ("s", "self_s", tuple(
        f"coverings.Stage{s}.frame" for s in "HFPRSTQ")),
    "coverings.frame.f.calls": ("count", "calls", (_F_FRAME,)),
    "coverings.distinct_frame_share": ("ratio", "distinct_frames", ()),
    "coverings.fiber_handle_at.calls": ("count", "calls", ("coverings.CompositeCovering.fiber_handle_at",)),
    "coverings.preimages.self_s": ("s", "self_s", ("coverings.preimages",)),
    "expansion.c_eq_s": ("s", "incl_s", ("expansion.estimate_metric_equiv",)),
    "expansion.c_q_s": ("s", "incl_s", ("expansion.estimate_cq",)),
    "expansion.C_s": ("s", "incl_s", ("expansion.estimate_C",)),
    "expansion.C.calls": ("count", "calls", ("expansion.estimate_C",)),
    "expansion.vertical_s": ("s", "incl_s", ("expansion.verify_vertical_expansion",)),
    "expansion.K_s": ("s", "incl_s", ("expansion.estimate_K",)),
    "expansion.finsler_s": ("s", "incl_s", ("expansion.verify_finsler_expansion",)),
    "expansion.adapted_s": ("s", "incl_s", ("expansion.build_adapted_metric",)),
    "expansion.finsler.self_s": ("s", "self_s", ("expansion.verify_finsler_expansion",)),
    "expansion.adapted.self_s": ("s", "self_s", ("expansion.build_adapted_metric",)),
    "cli.load_config_s": ("s", "incl_s", ("cli.load_config",)),
    "cli.emit_json_s": ("s", "incl_s", ("cli.emit_json",)),
    "cli.cmd_degree.self_s": ("s", "self_s", ("cli.cmd_degree",)),
}
# Computed by the worker: traced over untraced time of the 1-thread commands.
OVERHEAD = "trace.overhead"


class Tracer:
    """In-memory span store; one instance per traced run."""

    def __init__(self):
        self.name_ids: dict = {}
        self.names = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: list = []
        self.frame_keys: set = set()
        self.frame_covers: dict = {}  # keeps hashed covers alive, so ids stay unique

    def _id(self, name: str) -> int:
        return self.name_ids.setdefault(name, len(self.name_ids))

    def wrap(self, fn, name, name_of=None, on_call=None):
        """Timing wrapper; name_of(args) refines the span name per call."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        stack = self.stack
        fixed_id = self._id(name)
        span_id = self._id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args)
            idx = len(names)
            names.append(span_id(name_of(args)) if name_of else fixed_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return traced

    def _record_frame_input(self, args):
        """Key the inputs of each frame of f, for coverings.distinct_frame_share."""
        cover, t, x = args[0], args[1], args[2]
        if cover.name != "f":
            return
        side = args[3] if len(args) > 3 else +1
        digest = hashlib.blake2b(np.ascontiguousarray(x, dtype=float).tobytes(),
                                 digest_size=16).digest()
        self.frame_covers[id(cover)] = cover
        self.frame_keys.add((id(cover), float(t), side, digest))

    def mark(self) -> int:
        """Span count so far; spans after a mark belong to a new window."""
        self.frame_keys = set()
        return len(self.names)

    def metrics(self, first: int) -> dict:
        """Per-layer metrics over spans recorded since mark() returned first."""
        # slicing copies, so no numpy view pins the arrays against growth
        ids = np.frombuffer(self.names[first:], dtype=np.int32)
        parents = np.frombuffer(self.parents[first:], dtype=np.int64) - first
        dur = (np.frombuffer(self.ends[first:], dtype=np.float64)
               - np.frombuffer(self.starts[first:], dtype=np.float64))
        inner = parents >= 0
        covered = np.bincount(parents[inner], weights=dur[inner], minlength=len(dur))
        self_time = dur - covered
        by_name = {name: ids == i for name, i in self.name_ids.items()}

        def select(prefixes):
            mask = np.zeros(len(ids), dtype=bool)
            for name, hit in by_name.items():
                if name.startswith(prefixes):
                    mask |= hit
            return mask

        frames = int(select((_F_FRAME,)).sum())
        out = {}
        for metric, (unit, kind, prefixes) in PER_LAYER.items():
            if kind == "calls":
                value = int(select(prefixes).sum())
            elif kind == "self_s":
                value = float(self_time[select(prefixes)].sum())
            elif kind == "incl_s":
                value = float(dur[select(prefixes)].sum())
            elif kind == "newton_iters":
                in_newton = select(("torus_maps.newton_invert",))
                has_parent = inner & select(_APPLY)
                value = int(in_newton[parents[has_parent]].sum())
            else:  # distinct_frames
                value = len(self.frame_keys) / frames if frames else 0.0
            out[metric] = {"value": value, "unit": unit}
        return out

    def write(self, path: str):
        """Every span as CSV: index, parent, name, start_s, end_s."""
        names = {i: name for name, i in self.name_ids.items()}
        with open(path, "w") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (nid, parent, start, end) in enumerate(
                    zip(self.names, self.parents, self.starts, self.ends)):
                fh.write(f"{i},{parent},{names[nid]},{start!r},{end!r}\n")


def instrument(tracer: Tracer):
    """Install the wrappers; returns a function that removes them."""
    modules = [importlib.import_module(m) for m in _MODULES]
    undo = []
    for mod_name, cls_name, attr in _TARGETS:
        module = importlib.import_module(f"mtcover.{mod_name}")
        name = ".".join(p for p in (mod_name, cls_name, attr) if p)
        if cls_name is None:
            original = getattr(module, attr)
            wrapper = tracer.wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
            continue
        cls = getattr(module, cls_name)
        original = cls.__dict__[attr]
        if name == _COMPOSITE_FRAME:
            wrapper = tracer.wrap(original, name,
                                  name_of=lambda args: f"{_COMPOSITE_FRAME}[{args[0].name}]",
                                  on_call=tracer._record_frame_input)
        else:
            wrapper = tracer.wrap(original, name)
        setattr(cls, attr, wrapper)
        undo.append((cls, attr, original))

    def remove():
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)

    return remove
