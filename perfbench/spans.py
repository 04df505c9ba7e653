"""Span tracing of horoflow's public functions, installed from outside the package.

Every public function and method of the layer modules is replaced, at every
name it is reached through, by a wrapper that records a span: its key
(``<layer>.<name>`` or ``<layer>.<Class>.<method>``), its duration and the
span that called it. Spans are folded into per-key and per-edge aggregates as
they close, so a run with a million calls keeps a few hundred records in
memory. Self time is a span's duration minus the part its child spans cover.

The package itself is not edited: the wrappers are installed by assignment
after import, and only in the traced run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("manifold", "busemann", "transport", "locus", "numerics", "verify")


def _batch(coords) -> int:
    """Number of points in a chart-coordinate argument (a single point is 1)."""
    shape = np.shape(coords)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _coords_points(fn, args, kwargs, result) -> int:
    # methods taking (self, coords, ...)
    return _batch(args[1] if len(args) > 1 else kwargs["coords"])


def _result_size(fn, args, kwargs, result) -> int:
    return int(np.size(result))


def _coarea_points(fn, args, kwargs, result) -> int:
    # the slice rule evaluates t_nodes planes of x_nodes^(n-1) points each
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    field = bound.arguments["field"]
    return bound.arguments["t_nodes"] * bound.arguments["x_nodes"] ** (field.model.dim - 1)


# What each traced key counts besides calls: points, nodes or samples.
# numerics.ode_integrate counts field evaluations (see Tracer.wrap).
COUNTERS = {
    "manifold.ModelSpace.distance": _result_size,
    "busemann.BusemannField.value": _coords_points,
    "busemann.BusemannField.grad_chart": _coords_points,
    "busemann.coarea_slice_integral": _coarea_points,
    "transport.PairFlow.vector": _coords_points,
    "transport.VolumePreservingMap.apply_coords": _coords_points,
    "numerics.mc_integrate_box": lambda fn, a, k, r: int(r.samples),
    "numerics.sphere_rule": lambda fn, a, k, r: int(r.weights.size),
    "locus.parametrize_locus": lambda fn, a, k, r: int(r.sphere_weights.size),
    "locus.IntersectionLocus.beta_values": _result_size,
}


class Tracer:
    """Aggregated spans of one process; single-threaded use only."""

    def __init__(self):
        # key -> [calls, self_s, total_s, count]
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])
        # (parent key, key) -> [calls, total_s]
        self.edges = defaultdict(lambda: [0, 0.0])
        self._stack = []  # [key, child seconds] of the open spans

    def wrap(self, key: str, fn):
        counter = COUNTERS.get(key)
        stats, edges, stack = self.stats, self.edges, self._stack
        clock = time.perf_counter
        count_field = key == "numerics.ode_integrate"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            evals = None
            if count_field:
                # the field is the first argument: count its evaluations
                evals = [0]
                field = args[0] if args else kwargs["field"]

                def counted(x):
                    evals[0] += 1
                    return field(x)

                if args:
                    args = (counted,) + args[1:]
                else:
                    kwargs["field"] = counted
            parent = stack[-1][0] if stack else None
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = stats[key]
                rec[0] += 1
                rec[1] += elapsed - frame[1]
                rec[2] += elapsed
                if evals is not None:
                    rec[3] += evals[0]
                elif counter is not None and result is not None:
                    rec[3] += counter(fn, args, kwargs, result)
                edge = edges[(parent, key)]
                edge[0] += 1
                edge[1] += elapsed

        return traced

    def install(self, package) -> None:
        """Wrap the public functions and methods of every layer module of
        ``package``."""
        originals = {}  # id(original function) -> wrapper
        for layer in LAYERS:
            module = sys.modules[f"{package.__name__}.{layer}"]
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    originals[id(obj)] = self.wrap(f"{layer}.{name}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # rebind each function wherever a module holds it, e.g. both
        # numerics.sphere_rule and locus.sphere_rule, and in suite registries
        for modname, module in list(sys.modules.items()):
            if modname != package.__name__ and not modname.startswith(package.__name__ + "."):
                continue
            for name, obj in list(vars(module).items()):
                if name.startswith("__"):
                    continue
                if id(obj) in originals and inspect.isfunction(obj):
                    setattr(module, name, originals[id(obj)])
                elif isinstance(obj, dict):
                    for seq in obj.values():
                        if isinstance(seq, list):
                            seq[:] = [originals.get(id(f), f) if inspect.isfunction(f) else f
                                      for f in seq]

    def _wrap_methods(self, layer: str, cls) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            key = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                setattr(cls, attr, self.wrap(key, val))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self.wrap(key, val.__func__)))

    def summary(self) -> dict:
        return {
            "spans": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2], "count": v[3]}
                      for k, v in sorted(self.stats.items())},
            "edges": [{"parent": p, "key": k, "calls": v[0], "total_s": v[1]}
                      for (p, k), v in sorted(self.edges.items(), key=lambda e: (str(e[0][0]), e[0][1]))],
        }
