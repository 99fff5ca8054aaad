"""Spans around the program's public functions, installed from outside.

Every public module-level function of gf2poly, field, scan, poly,
permtest and gnq is replaced by a wrapper that records one span: name,
start, end and parent span.  A function that another module imported by
name is replaced there too, so calls through either name are seen.  Two
methods are wrapped as well: DensePolyF2.eval_on_field and
DensePolyF2.__mul__.

Left unwrapped, so their time counts as their caller's self time:
generator functions, whose body runs after the call returns, and the
per-point helpers in SCALAR, which run once per field element inside
scans (a span each would cost more than the work it records).
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

import numpy as np

MODULES = ("gf2poly", "field", "scan", "poly", "permtest", "gnq")
METHODS = (("poly", "DensePolyF2", "eval_on_field"), ("poly", "DensePolyF2", "__mul__"))
SCALAR = frozenset({
    "field.frobenius_q", "field.frob2_inverse", "field.eval_S",
    "field.trace_to_subfield", "field.trace_absolute", "field.in_subfield",
    "poly.expr_eval", "poly.reduce_exponent",
})
# whole-field scans take no array; their element count is the field order
WHOLE_FIELD = frozenset({"scan.field_values", "scan.values_equal"})


class Tracer:
    """In-memory span store: [name, start, end, parent index, elements]."""

    def __init__(self):
        self.spans: list[list] = []
        self.search_hits = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        ndarray = np.ndarray
        from permpoly.field import FieldContext
        whole_field = name in WHOLE_FIELD
        is_search = name == "gnq.search_desirable"

        def traced(*args, **kwargs):
            given = (*args, *kwargs.values()) if kwargs else args
            if whole_field:
                elements = next(a.order for a in given if isinstance(a, FieldContext))
            else:
                elements = sum(a.size for a in given if isinstance(a, ndarray))
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, elements]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if is_search:
                self.search_hits += len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "permpoly") -> None:
        mods = {short: importlib.import_module(f"{package}.{short}") for short in MODULES}
        wrappers = {}
        for short, mod in mods.items():
            for attr, fn in vars(mod).items():
                name = f"{short}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or name in SCALAR
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[fn] = self.wrap(name, fn)
        for mod in (importlib.import_module(package), *mods.values()):
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
        for short, cls_name, meth in METHODS:
            cls = getattr(mods[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))

    def clear(self) -> None:
        self.spans.clear()
        self.search_hits = 0

    def layers(self) -> dict:
        """Per-name self time (s), calls and elements, plus the search counts."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        table: dict[str, dict] = {}
        searched = 0
        for i, (name, start, end, parent, elements) in enumerate(self.spans):
            row = table.setdefault(name, {"s": 0.0, "calls": 0, "elements": 0})
            row["s"] += end - start - child[i]
            row["calls"] += 1
            row["elements"] += elements
            if (name == "gnq.gnq_recurrence" and parent >= 0
                    and self.spans[parent][0] == "gnq.search_desirable"):
                searched += 1
        search = table.setdefault("gnq.search_desirable", {"s": 0.0, "calls": 0, "elements": 0})
        search.update(n=searched, hits=self.search_hits)
        return table

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
