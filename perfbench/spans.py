"""In-memory spans around every call into the package's public functions.

``Tracer.install()`` replaces each public function of each flowbif module at
every module binding that refers to it (``bifurcation`` and ``topology``
import ``find_singular_points`` by name, ``cli`` imports ``analyze`` and
``render_portrait``, the package re-exports everything).  Polynomial and
field evaluations are too frequent for a span each; they are counted on the
innermost open span instead, which is how tracer and Newton evaluations are
told apart.  ``uninstall()`` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

import numpy as np

MODULES = (
    "poly", "field", "winding", "singular", "bifurcation",
    "topology", "fieldfile", "render", "cli",
)
# counters kept per span
SCALAR, ARRAY, POINTS, EVAL_S, FIELD, JAC = range(6)


class Span:
    __slots__ = ("name", "parent", "start", "end", "child_s", "counts", "info", "box")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.child_s = 0.0
        self.counts = [0, 0, 0, 0.0, 0, 0]
        self.info = None  # small fact about the result, see SUMMARIES
        self.box = None  # search box, for the Newton polishes inside a search

    @property
    def self_s(self):
        return self.end - self.start - self.child_s


def _newton_accepted(span, arguments, result):
    """Would the search keep this polish as a candidate (same rule as it)?"""
    pt, res = result
    box = span.parent.box
    if res > arguments["opts"].res_tol:
        return 0
    if box is None:
        return 1
    x0, y0, x1, y1 = box
    slack = 1e-9 * max(x1 - x0, y1 - y0)
    return int(x0 - slack <= pt[0] <= x1 + slack and y0 - slack <= pt[1] <= y1 + slack)


def _samples(span, arguments, result):
    return getattr(result, "samples", 0)


def _orbit_vertices(span, arguments, result):
    orbits = result if isinstance(result, list) else [result]
    return sum(len(o.points) for o in orbits)


def _portrait_bytes(span, arguments, result):
    return (len(result.svg.encode()), len(result.csv.encode()))


def _rungs(span, arguments, result):
    ver = getattr(result, "verification", result)
    return 0 if ver is None else len(ver.eps_list)


# small per-span facts, taken when the call returns (spans keep no results)
SUMMARIES = {
    "singular.newton_polish": _newton_accepted,
    "singular.find_singular_points": lambda span, arguments, result: len(result),
    "winding.winding_index": _samples,
    "winding.index_on_box": _samples,
    "topology.separatrices": _orbit_vertices,
    "topology.integrate_streamline": _orbit_vertices,
    "render.render_portrait": _portrait_bytes,
    "bifurcation.analyze": _rungs,
    "bifurcation.verify": _rungs,
}


class Tracer:
    def __init__(self, package):
        self.layers = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        self.hosts = [package, *self.layers.values()]
        self.spans: list[Span] = []
        self.root = Span("bench", None)
        self.stack = [self.root]
        self._restore = []

    # -- installation ---------------------------------------------------

    def install(self):
        for layer, mod in self.layers.items():
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not callable(fn) or isinstance(fn, type):
                    continue
                if getattr(fn, "__module__", None) != mod.__name__:
                    continue
                wrapped = self._wrap_function(fn, f"{layer}.{name}")
                for host in self.hosts:
                    if vars(host).get(name) is fn:
                        self._patch(host, name, wrapped)
        poly2 = self.layers["poly"].Poly2
        self._patch(poly2, "__call__", self._wrap_poly(poly2.__call__))
        vf = self.layers["field"].PolyVectorField
        self._patch(vf, "__call__", self._wrap_count(vf.__call__, FIELD))
        self._patch(vf, "jacobian", self._wrap_count(vf.jacobian, JAC))
        self._patch(vf, "in_frame", self._wrap_function(vf.in_frame, "field.in_frame"))

    def uninstall(self):
        for host, name, old in reversed(self._restore):
            setattr(host, name, old)
        self._restore.clear()

    def _patch(self, host, name, new):
        self._restore.append((host, name, vars(host)[name]))
        setattr(host, name, new)

    # -- wrappers ---------------------------------------------------------

    def _wrap_function(self, fn, span_name):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter
        summarize = SUMMARIES.get(span_name)
        is_search = span_name == "singular.find_singular_points"
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            span = Span(span_name, parent)
            if summarize is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                if is_search:
                    span.box = tuple(float(b) for b in bound.arguments["box"])
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
                if summarize is not None:
                    span.info = summarize(span, bound.arguments, result)
                return result
            finally:
                span.end = clock()
                stack.pop()
                parent.child_s += span.end - span.start
                spans.append(span)

        return wrapper

    def _wrap_poly(self, fn):
        stack = self.stack
        clock = time.perf_counter
        ndarray = np.ndarray

        @functools.wraps(fn)
        def wrapper(self_, x, y):
            t0 = clock()
            out = fn(self_, x, y)
            c = stack[-1].counts
            c[EVAL_S] += clock() - t0
            if isinstance(x, ndarray) or isinstance(y, ndarray):
                c[ARRAY] += 1
                c[POINTS] += int(np.broadcast(x, y).size)
            else:
                c[SCALAR] += 1
            return out

        return wrapper

    def _wrap_count(self, fn, slot):
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack[-1].counts[slot] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- output -----------------------------------------------------------

    def write(self, path):
        """One JSON object per span, in completion order."""
        ids = {id(s): i for i, s in enumerate(self.spans)}
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i,
                    "parent": ids.get(id(s.parent)),
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.self_s,
                    "counts": s.counts,
                }) + "\n")


def _outermost(spans, layer):
    """Spans of a layer not nested in another span of the same layer."""
    return [s for s in spans if s.name.startswith(layer) and not s.parent.name.startswith(layer)]


def layer_metrics(tracer):
    """Per-layer metrics of the spans recorded so far."""
    S = tracer.spans
    everything = S + [tracer.root]

    def named(*names):
        return [s for s in S if s.name in names]

    def info(items):  # calls that raised have no summary
        return [s.info for s in items if s.info is not None]

    def total(items, slot):
        return sum(s.counts[slot] for s in items)

    def self_s(items):
        return sum(s.self_s for s in items)

    def dur(items):
        return sum(s.end - s.start for s in items)

    newton = named("singular.newton_polish")
    tracing = named("topology.separatrices", "topology.integrate_streamline")
    rhs = total(tracing, FIELD)
    vertices = sum(info(tracing))
    winding = [s for s in S if s.name.startswith("winding.")]
    ladders = [s for s in named("bifurcation.analyze", "bifurcation.verify") if s.info]
    portraits = named("render.render_portrait")
    m = {
        "poly.scalar_evals": (total(everything, SCALAR), "count"),
        "poly.array_evals": (total(everything, ARRAY), "count"),
        "poly.array_points": (total(everything, POINTS), "count"),
        "poly.eval_s": (total(everything, EVAL_S), "s"),
        "field.jacobian_calls": (total(everything, JAC), "count"),
        "field.transform_calls": (len(named("field.in_frame")), "count"),
        "field.transform_s": (dur(named("field.in_frame")), "s"),
        "winding.calls": (len(_outermost(S, "winding.")), "count"),
        "winding.samples": (sum(info(winding)), "count"),
        "winding.self_s": (self_s(winding), "s"),
        "search.calls": (len(named("singular.find_singular_points")), "count"),
        "search.self_s": (self_s(named("singular.find_singular_points")), "s"),
        "search.roots": (sum(info(named("singular.find_singular_points"))), "count"),
        "newton.calls": (len(newton), "count"),
        "newton.self_s": (self_s(newton), "s"),
        "newton.accept_frac": (sum(info(newton)) / len(newton) if newton else 0.0, "ratio"),
        "classify.calls": (len(named("singular.classify_point")), "count"),
        "extract.calls": (len(named("singular.extract_degeneracy")), "count"),
        "extract.self_s": (self_s(named("singular.extract_degeneracy")), "s"),
        "ladder.calls": (len(ladders), "count"),
        "ladder.rungs": (sum(info(ladders)), "count"),
        "ladder.self_s": (self_s([s for s in S if s.name.startswith("bifurcation.")]), "s"),
        "separatrix.calls": (len(named("topology.separatrices")), "count"),
        "separatrix.self_s": (self_s(named("topology.separatrices")), "s"),
        "trace.rhs_evals": (rhs, "count"),
        "trace.vertices": (vertices, "count"),
        "trace.rhs_per_vertex": (rhs / vertices if vertices else 0.0, "ratio"),
        "signature.calls": (len(named("topology.signature", "topology.separatrix_portrait")), "count"),
        "signature.self_s": (self_s(named("topology.signature", "topology.separatrix_portrait")), "s"),
        "equivalent.self_s": (self_s(named("topology.equivalent")), "s"),
        "render.self_s": (self_s([s for s in S if s.name.startswith("render.")]), "s"),
        "render.svg_bytes": (sum(b[0] for b in info(portraits)), "bytes"),
        "render.csv_bytes": (sum(b[1] for b in info(portraits)), "bytes"),
        "fieldfile.parse_s": (dur(_outermost(S, "fieldfile.")), "s"),
        "cli.self_s": (self_s([s for s in S if s.name.startswith("cli.")]), "s"),
    }
    return m
