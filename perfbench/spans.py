"""Per-layer spans and counters, installed from outside the program.

`install` replaces every public function and method of the seven layer
modules with a wrapper, in every layer module that binds it, so calls made
through `from .quivrep import hom_basis` are seen too.  A wrapper opens a
span when its caller is in another layer (or when no span is open); a call
within the same layer only counts, so the overhead stays at the layer
boundaries.  A layer's self time is the time of its spans minus the time of
their child spans.  Spans are aggregated in memory as they close, because
one round opens about a million of them; the trace file holds the
aggregates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

LAYERS = ("exactfield", "quivrep", "homext", "excat", "recol", "fixtures", "cli")

# dunder methods that are real work rather than bookkeeping
_DUNDERS = ("__init__", "__matmul__", "__add__", "__sub__", "__neg__")

# metric name -> (kind, function or layer); units follow from the kind
PER_LAYER = {
    "exactfield.self_s": ("self", "exactfield"),
    "exactfield.rref.calls": ("calls", "exactfield.Mat.rref"),
    "exactfield.solve.calls": ("calls", "exactfield.Mat.solve"),
    "exactfield.Mat.constructions": ("calls", "exactfield.Mat.__init__"),
    "quivrep.self_s": ("self", "quivrep"),
    "quivrep.hom_basis.calls": ("calls", "quivrep.hom_basis"),
    "quivrep.hom_basis.distinct_args": ("distinct", "quivrep.hom_basis"),
    "quivrep.enumerate_indecomposables.s": ("inclusive", "quivrep.enumerate_indecomposables"),
    "quivrep.split_off_summand.calls": ("calls", "quivrep.split_off_summand"),
    "quivrep.find_isomorphism.calls": ("calls", "quivrep.find_isomorphism"),
    "quivrep.find_isomorphism.s": ("inclusive", "quivrep.find_isomorphism"),
    "quivrep.Catalog.decompose.calls": ("calls", "quivrep.Catalog.decompose"),
    "quivrep.decompose.calls": ("calls", "quivrep.decompose"),
    "homext.self_s": ("self", "homext"),
    "homext.lift_through_surjection.calls": ("calls", "homext.lift_through_surjection"),
    "homext.lift_through_surjection.distinct_args": ("distinct", "homext.lift_through_surjection"),
    "homext.ext_pull.calls": ("calls", "homext.ext_pull"),
    "homext.realize.calls": ("calls", "homext.Ext1Space.realize"),
    "homext.ext1_space.calls": ("calls", "homext.ext1_space"),
    "homext.Ext1Space.builds": ("calls", "homext.Ext1Space.__init__"),
    "homext.presentation.calls": ("calls", "homext.presentation"),
    "homext.all_conflations.s": ("inclusive", "homext.all_conflations"),
    "excat.self_s": ("self", "excat"),
    "excat.ExCat.s": ("inclusive", "excat.ExCat.__init__"),
    "excat.verify_torsion_pair.calls": ("calls", "excat.verify_torsion_pair"),
    "excat.verify_torsion_pair.s": ("inclusive", "excat.verify_torsion_pair"),
    "excat.is_cluster_tilting.s": ("inclusive", "excat.is_cluster_tilting"),
    "recol.self_s": ("self", "recol"),
    "recol.six_functors.s": ("inclusive", "recol.six_functors"),
    "recol.check_recollement.s": ("inclusive", "recol.check_recollement"),
    "recol.classify_functor.calls": ("calls", "recol.classify_functor"),
    "recol.classify_functor.s": ("inclusive", "recol.classify_functor"),
    "fixtures.self_s": ("self", "fixtures"),
    "fixtures.build_example51.s": ("inclusive", "fixtures.build_example51"),
    "cli.self_s": ("self", "cli"),
}

UNITS = {"self": "s", "inclusive": "s", "calls": "count", "distinct": "count"}


class Tracer:
    """Counts, inclusive and self seconds of the wrapped layer functions."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.inclusive: dict[str, float] = {}
        self.self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.args_seen: dict[str, set] = {}
        self._stack: list[list] = []  # open spans: [layer, seconds of child spans]

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        timed = {target for kind, target in PER_LAYER.values() if kind == "inclusive"}
        distinct = {target for kind, target in PER_LAYER.values() if kind == "distinct"}
        modules = {layer: importlib.import_module(f"extriang.{layer}") for layer in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                qual = f"{layer}.{name}"
                wrapper = self._wrap(obj, qual, layer, qual in timed, qual in distinct)
                for other in modules.values():
                    if vars(other).get(name) is obj:
                        setattr(other, name, wrapper)
            for cname, cls in list(vars(mod).items()):
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                if issubclass(cls, BaseException):
                    continue
                for name, attr in list(vars(cls).items()):
                    if name.startswith("_") and name not in _DUNDERS:
                        continue
                    qual = f"{layer}.{cname}.{name}"
                    if isinstance(attr, staticmethod):
                        fn = self._wrap(attr.__func__, qual, layer, qual in timed, False)
                        setattr(cls, name, staticmethod(fn))
                    elif inspect.isfunction(attr):
                        setattr(cls, name, self._wrap(attr, qual, layer, qual in timed, False))

    def _wrap(self, fn, qual: str, layer: str, timed: bool, distinct: bool):
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls
        inclusive = self.inclusive
        self_s = self.self_s
        calls[qual] = 0
        if timed:
            inclusive[qual] = 0.0
        seen = self.args_seen.setdefault(qual, set()) if distinct else None
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[qual] += 1
            if seen is not None:
                seen.add(args)
            open_same = bool(stack) and stack[-1][0] == layer
            if open_same and not timed:
                return fn(*args, **kwargs)
            frame = None
            if not open_same:
                frame = [layer, 0.0]
                stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                depth[0] -= 1
                if timed and depth[0] == 0:
                    inclusive[qual] += dt
                if frame is not None:
                    stack.pop()
                    self_s[layer] += dt - frame[1]
                    if stack:
                        stack[-1][1] += dt

        return wrapper

    # -- results -----------------------------------------------------------

    def snapshot(self) -> dict:
        """Plain-data aggregates, summable across processes with `merge`."""
        return {
            "calls": dict(self.calls),
            "inclusive": dict(self.inclusive),
            "self_s": dict(self.self_s),
            "distinct": {k: len(v) for k, v in self.args_seen.items()},
        }


def empty_snapshot() -> dict:
    return {"calls": {}, "inclusive": {}, "self_s": {}, "distinct": {}}


def merge(total: dict, part: dict) -> None:
    for section, values in part.items():
        into = total[section]
        for key, value in values.items():
            into[key] = into.get(key, 0) + value


def per_layer_metrics(snap: dict) -> dict:
    table = {"self": snap["self_s"], "inclusive": snap["inclusive"],
             "calls": snap["calls"], "distinct": snap["distinct"]}
    out = {}
    for metric, (kind, target) in PER_LAYER.items():
        value = table[kind].get(target, 0)
        out[metric] = {"value": value if kind in ("self", "inclusive") else int(value),
                       "unit": UNITS[kind]}
    return out
