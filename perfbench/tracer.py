"""Span tracer that instruments galilei from outside the library.

``Tracer.install()`` replaces every public function of each layer module
(and the public methods of its public classes, plus the arithmetic
dunders that carry the layer metrics) with a wrapper that records a
span: name, start, end and parent span.  ``GRat`` arithmetic and
construction get plain counters instead of spans, because they run
millions of times per pass.  ``restore()`` puts every original back and
raises if any wrapper is still reachable.

Spans live in flat ``array`` columns in memory; ``write()`` stores them
once, at the end, and ``summary()`` derives the per-layer numbers (self
time = span duration minus the time covered by its child spans).
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("poly", "matrix", "weyl", "reps", "beta", "appendix", "catalog", "spin",
          "covariance", "interaction", "cli")

# dunders traced as spans: the ring products the layer metrics are about
SPAN_DUNDERS = ("__mul__", "__rmul__", "__matmul__", "__pow__")

SCALAR_OPS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
              "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inverse")

MARK = "__perfbench_original__"

# span names (layer-qualified __qualname__) that feed named metrics
MATMUL = "matrix.Matrix.__matmul__"
RREF = "matrix.rref"
DET = "matrix.det"
POLY_MUL = "poly.Poly.__mul__"
WEYL_MUL = "weyl.WeylElement.__mul__"
SOLVE = "beta.solve_beta4_space"
REDUCE = "interaction.reduce_coupled"


def _terms(x):
    terms = getattr(x, "terms", None)
    return len(terms) if terms is not None else 1


def _product_size(args):
    return _terms(args[0]) * _terms(args[1]) if len(args) == 2 else 0


def _rref_size(args):
    m = args[0] if args else None
    return getattr(m, "rows", 0) * getattr(m, "cols", 0)


SIZERS = {RREF: _rref_size, POLY_MUL: _product_size, WEYL_MUL: _product_size}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.size = array.array("q")
        self.stack = [-1]
        self.scalar_ops = [0]
        self.scalar_new = [0]
        self.solves: list = []  # (span index, key, unknowns)
        self._patches: list = []  # (owner, attribute, original value)

    # -- wrappers ---------------------------------------------------------------

    def _span(self, fn, name):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end, size = (self.name_of, self.parent, self.start,
                                             self.end, self.size)
        stack, clock = self.stack, time.perf_counter_ns
        sizer = SIZERS.get(name)
        solves = self.solves if name == SOLVE else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1])
            size.append(sizer(args) if sizer else 0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if solves is not None:
                solves.append((i, *_solve_key(out)))
            return out

        setattr(wrapper, MARK, fn)
        return wrapper

    @staticmethod
    def _counter(fn, cell):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, MARK, fn)
        return wrapper

    # -- install / restore ------------------------------------------------------

    def install(self):
        wrapped = {}  # id(original function) -> wrapper, shared by aliases
        for layer in LAYERS:
            mod = _import(layer)
            if mod is None:
                continue
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = (obj, self._span(obj, f"{layer}.{obj.__qualname__}"))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj, wrapped)
        scalars = _import("scalars")
        grat = getattr(scalars, "GRat", None) if scalars else None
        if grat is not None:
            # a construction runs __new__ or, failing that, __init__: count one
            new_attr = "__new__" if "__new__" in vars(grat) else "__init__"
            for attr in SCALAR_OPS + (new_attr,):
                fn = vars(grat).get(attr)
                cell = self.scalar_new if attr == new_attr else self.scalar_ops
                if isinstance(fn, staticmethod):
                    self._patch(grat, attr, staticmethod(self._counter(fn.__func__, cell)))
                elif inspect.isfunction(fn):
                    self._patch(grat, attr, self._counter(fn, cell))
        # rebind every module-level reference (including ``from x import f``)
        for mod in _galilei_modules():
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, name, hit[1])

    def _wrap_class(self, layer, cls, wrapped):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") and attr not in SPAN_DUNDERS:
                continue
            kind = None
            if isinstance(obj, (staticmethod, classmethod)):
                kind, fn = type(obj), obj.__func__
            elif inspect.isfunction(obj):
                fn = obj
            else:
                continue  # properties, constants, nested classes
            hit = wrapped.get(id(fn))
            if hit is None or hit[0] is not fn:
                hit = (fn, self._span(fn, f"{layer}.{fn.__qualname__}"))
                wrapped[id(fn)] = hit
            self._patch(cls, attr, kind(hit[1]) if kind else hit[1])

    def _patch(self, owner, attr, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        bad = [f"{getattr(o, '__name__', o)}.{a}" for o, a, orig in self._patches
               if vars(o)[a] is not orig]
        for mod in _galilei_modules():
            for name, obj in vars(mod).items():
                if _is_wrapper(obj):
                    bad.append(f"{mod.__name__}.{name}")
                elif isinstance(obj, type):
                    bad += [f"{mod.__name__}.{name}.{a}" for a, v in vars(obj).items()
                            if _is_wrapper(v)]
        if bad:
            raise RuntimeError(f"tracer left wrappers in place: {sorted(set(bad))}")
        self._patches = []

    # -- output -----------------------------------------------------------------

    def write(self, path):
        """Store the spans: one JSON header line, then the raw columns."""
        header = {"names": self.names, "count": len(self.start),
                  "columns": ["name", "parent", "start_ns", "end_ns", "size"],
                  "itemsizes": [a.itemsize for a in self._columns()]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in self._columns():
                col.tofile(fh)

    def _columns(self):
        return (self.name_of, self.parent, self.start, self.end, self.size)

    def summary(self) -> dict:
        """Per-layer calls, total and self time, and the named metrics."""
        n = len(self.start)
        layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
        span_layer = [layer_ids[nm.split(".", 1)[0]] for nm in self.names]
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0] * n
        mask = [0] * n  # bit set: layers among the span's ancestors
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
                mask[i] = mask[p] | (1 << span_layer[self.name_of[p]])
        layers = {layer: [0, 0, 0] for layer in LAYERS}  # calls, total_ns, self_ns
        named = {nm: [0, 0, 0] for nm in (MATMUL, RREF, DET, POLY_MUL, WEYL_MUL, SOLVE,
                                          REDUCE)}  # calls, ns, size
        for i in range(n):
            nid = self.name_of[i]
            lid = span_layer[nid]
            acc = layers[LAYERS[lid]]
            acc[0] += 1
            acc[2] += dur[i] - child[i]
            if not mask[i] >> lid & 1:
                acc[1] += dur[i]
            nm = named.get(self.names[nid])
            if nm is not None:
                nm[0] += 1
                nm[1] += dur[i]
                nm[2] += self.size[i]
        return {
            "layers": layers,
            "named": named,
            "solves": [[key, dur[i], unknowns] for i, key, unknowns in self.solves],
            "scalar_ops": self.scalar_ops[0],
            "scalar_new": self.scalar_new[0],
            "spans": n,
        }


def _solve_key(space):
    """(left, right, hermitian) key and unknown count of a solution space."""
    key = repr((getattr(space, "left", None), getattr(space, "right", None),
                getattr(space, "hermitian", None)))
    (nl, nr), (ml, mr) = getattr(space, "r_shape", (0, 0)), getattr(space, "e_shape", (0, 0))
    # blocks R, F, H are N x N'; E, G are M x M'; M is N x M'; N is M x N'
    return key, 3 * nl * nr + 2 * ml * mr + nl * mr + ml * nr


def _import(name):
    try:
        return importlib.import_module(f"galilei.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"galilei.{name}":
            raise
        return None


def _galilei_modules():
    return [m for k, m in list(sys.modules.items())
            if m is not None and (k == "galilei" or k.startswith("galilei."))]


def _is_wrapper(obj):
    if isinstance(obj, (staticmethod, classmethod)):
        obj = obj.__func__
    return callable(obj) and MARK in getattr(obj, "__dict__", {})
