"""Span recording around hilbertgeo's public functions.

The library has no tracing of its own, so the benchmark wraps, from the
outside, the public functions of each layer (module) and a few public
ConvexDomain methods.  A wrapper is installed under every name that any
hilbertgeo module binds to the original function, so calls the library
makes internally (hilbert_ball calling distance, a suite calling
classify_2d) are recorded as well.

A span is (name, start, end, parent index, op id, error).  error is the
exception type name when the span is where a GeometryError originated,
else None.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Public ConvexDomain methods that answer a question (chart helpers such as
# to_local are left out: they run several times inside every distance).
DOMAIN_METHODS = ("chord_through", "chord_params", "cross_section",
                  "boundary_face_of", "minimal_cone_at", "ray",
                  "opposite_faces", "join_region", "find_extreme_line",
                  "find_extreme_simplex")

LAYERS = ("convex", "metric", "cones", "isometries", "suites", "domain_io",
          "svgfig", "cli")

OP = "op"  # name prefix of the spans the benchmark opens around each op
SPAN_FIELDS = ["name", "start", "end", "parent", "op", "error", "note"]


def _polytope_note(args, result):
    """(points given, vertices kept, faces in the lattice)."""
    return (len(args[0]), len(result.vertices), len(result.face_lattice()))


NOTES = {"convex.build_polytope": _polytope_note}


class Tracer:
    def __init__(self):
        self.spans = []
        self.notes = {}  # span index -> note recorded from a call's result
        self.op_id = -1  # -1 while setting up
        self._stack = []
        self._last_error = None
        self._patches = []  # (owner, attribute, original)

    # ------------------------------------------------------------ recording

    def _wrap(self, name, fn, note=None):
        from hilbertgeo.errors import GeometryError

        spans, stack, notes = self.spans, self._stack, self.notes
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            err = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except GeometryError as exc:
                if exc is not self._last_error:
                    self._last_error = exc
                    err = type(exc).__name__
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, self.op_id, err)
            if note is not None:
                notes[idx] = note(args, result)
            return result

        return traced

    def op(self, op_id, kind):
        """Context manager opening the root span of one op."""
        self.op_id = op_id
        return _OpSpan(self, f"{OP}.{kind}")

    # --------------------------------------------------------- installation

    def install(self):
        import hilbertgeo  # noqa: F401  (loads every submodule)
        from hilbertgeo import convex, suites

        modules = {n: m for n, m in sys.modules.items()
                   if n == "hilbertgeo" or n.startswith("hilbertgeo.")}
        targets = []
        for layer in LAYERS:
            mod = modules.get(f"hilbertgeo.{layer}")
            if mod is None:
                continue
            if layer == "cli":
                names = ["main"]
            elif layer == "suites":
                names = []
            else:
                names = getattr(mod, "__all__", [])
            for attr in names:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn):
                    targets.append((f"{layer}.{attr}", fn))
        for name, fn in targets:
            wrapped = self._wrap(name, fn, NOTES.get(name))
            for mod in modules.values():
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        self._patch(mod, attr, wrapped)
        for attr in DOMAIN_METHODS:
            fn = getattr(convex.ConvexDomain, attr, None)
            if inspect.isfunction(fn):
                self._patch(convex.ConvexDomain, attr,
                            self._wrap(f"convex.{attr}", fn))
        for name, fn in list(suites.SUITES.items()):
            self._patch_item(suites.SUITES, name,
                             self._wrap(f"suites.{name}", fn))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def _patch_item(self, mapping, key, value):
        self._patches.append((mapping, key, mapping[key], True))
        mapping[key] = value

    def uninstall(self):
        for owner, attr, original, item in reversed(self._patches):
            if item:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ---------------------------------------------------------------- output

    def dump(self, path):
        """Write the spans as JSON lines, one array per span after a
        header line naming the fields; span i is on line i + 2."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for i, s in enumerate(self.spans):
                fh.write(json.dumps([*s, self.notes.get(i)]) + "\n")


class _OpSpan:
    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.idx = len(t.spans)
        t.spans.append(None)
        t._stack.append(self.idx)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t1 = time.perf_counter()
        t = self.tracer
        t._stack.pop()
        t.spans[self.idx] = (self.name, self.t0, t1, -1, t.op_id,
                             exc_type.__name__ if exc_type else None)
        return False
