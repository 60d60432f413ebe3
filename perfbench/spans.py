"""Span recorder installed into the zzstrips modules from outside.

``Recorder.install()`` wraps the public functions listed in ``TARGETS``
in every ``zzstrips`` module namespace that holds them, so calls made
through imported names are seen too. Each call becomes a span with a
name, start, end, parent span and request id. A generator is timed
across its iteration: the span accumulates the time spent inside each
resumption, not the time between them. Self time is the time a span is
active minus what its child spans cover, and the recorder's own
bookkeeping is charged to neither. Spans stay in memory and are written
once, at the end of the pass. Nothing under ``src/`` changes, and an
untraced run never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter


class Span:
    __slots__ = ("id", "name", "parent", "request", "start", "end", "active", "child")

    def __init__(self, span_id, name, parent, request, start):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.request = request
        self.start = start
        self.end = start
        self.active = 0.0
        self.child = 0.0


def _count_words(rec, span, args, items):
    rec.counts["extension_engine.words"] += len(items)


def _count_word_groups(rec, span, args, items):
    # Words evaluated one by one: extension records consumed by the
    # per-word binomial sum.
    parent = span.parent
    if parent is not None and parent.name == "order_polynomials.extended_poly_extension_formula":
        rec.counts["order_polynomials.terms_evaluated"] += len(items)
        rec.groups[span.id].update((r.des, r.fix) for r in items)


def _count_form_groups(rec, span, args, items):
    form = args[0]
    rec.counts["order_polynomials.terms_evaluated"] += len(form.groups)
    rec.groups[span.id].update((d, f) for d, f, _ in form.groups)


def _count_structures(rec, span, args, items):
    rec.counts["kekule_bijection.structures"] += len(items)
    for om, ka in items:
        subsets = rec.subsets[span.id]
        if not subsets:
            rec.counts["kekule_bijection.masks"] += 1 << len(ka.elements)
        subsets.add(om.elements)


def _counter(name):
    def count(rec, span, args, items):
        rec.counts[name] += len(items)
    return count


PACKAGE = "zzstrips"

# (module, attribute, counter hook). A hook gets the returned sequence,
# or each yielded item as a 1-tuple when the call returns a generator.
TARGETS = (
    ("strip_geometry", "validate", None),
    ("strip_geometry", "build_graph", None),
    ("dib_poset", "build_poset", None),
    ("dib_poset", "natural_labeling", None),
    ("extension_engine", "linear_extensions", _count_words),
    ("extension_engine", "fixed_labels", None),
    ("extension_engine", "extension_records", _count_word_groups),
    ("order_polynomials", "zz_polynomial", None),
    ("order_polynomials", "closed_form", None),
    ("order_polynomials", "extended_poly_extension_formula", None),
    ("order_polynomials", "ClosedForm.evaluate", _count_form_groups),
    ("kekule_bijection", "enumerate_kekule", _count_structures),
    ("kekule_bijection", "generate_clar_covers", _counter("kekule_bijection.clar_records")),
    ("kekule_bijection", "map_from_kekule", None),
    ("oracle", "enumerate_perfect_matchings", _counter("oracle.matchings")),
    ("oracle", "enumerate_clar_covers", _counter("oracle.clar_covers")),
    ("oracle", "zz_from_matchings", None),
    ("cli", "main", None),
)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.request = -1
        self.counts: dict[str, int] = defaultdict(int)
        self.groups: dict[int, set] = defaultdict(set)
        self.subsets: dict[int, set] = defaultdict(set)
        self.missing: list[str] = []
        self._next_id = 0

    def install(self) -> None:
        """Wrap every target; targets the package no longer has are
        listed in ``missing``."""
        for module_name, attr, hook in TARGETS:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, method, self.wrap(name, cls.__dict__[method], hook))
                    continue
                original = getattr(module, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def _open(self, name: str, start: float) -> Span:
        parent = self.stack[-1] if self.stack else None
        self._next_id += 1
        span = Span(self._next_id, name, parent, self.request, start)
        self.stack.append(span)
        return span

    def _leave(self, span: Span, since: float) -> None:
        now = perf_counter()
        self.stack.pop()
        span.active += now - since
        span.end = now

    def exclude(self, seconds: float) -> None:
        """Treat time spent outside the program, such as a reference
        slice, as covered by a child of the running span."""
        if self.stack:
            self.stack[-1].child += seconds

    def _charge(self, since: float) -> None:
        # The caller's span treats everything from the wrapper's entry
        # to now, bookkeeping included, as covered by a child.
        if self.stack:
            self.stack[-1].child += perf_counter() - since

    def wrap(self, name, fn, hook):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            span = rec._open(name, t0)
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec._leave(span, t1)
                rec.spans.append(span)
                rec._charge(t0)
                raise
            rec._leave(span, t1)
            if inspect.isgenerator(result):
                result = rec._iterate(span, result, args, hook)
            else:
                if hook is not None:
                    hook(rec, span, args, result)
                rec.spans.append(span)
            rec._charge(t0)
            return result

        return traced

    def _iterate(self, span, gen, args, hook):
        try:
            while True:
                t0 = perf_counter()
                self.stack.append(span)
                t1 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._leave(span, t1)
                    self._charge(t0)
                if hook is not None:
                    t3 = perf_counter()
                    hook(self, span, args, (item,))
                    self._charge(t3)
                yield item
        finally:
            gen.close()
            self.spans.append(span)

    def summary(self) -> dict:
        """Per-layer totals for the pass: calls and self seconds per
        span name, plus the counts the hooks recorded."""
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span in self.spans:
            calls[span.name] += 1
            self_s[span.name] += span.active - span.child
        out = {f"{name}.calls": n for name, n in calls.items()}
        out.update({f"{name}.self_s": s for name, s in self_s.items()})
        out.update(self.counts)
        out["order_polynomials.groups"] = sum(len(g) for g in self.groups.values())
        out["kekule_bijection.subsets"] = sum(len(s) for s in self.subsets.values())
        return out

    def write(self, path) -> None:
        """One JSON array per span: id, name, start, end, parent id,
        request id, active seconds, self seconds."""
        with open(path, "w") as handle:
            for s in self.spans:
                parent = s.parent.id if s.parent is not None else None
                handle.write(json.dumps([s.id, s.name, s.start, s.end, parent, s.request,
                                         s.active, s.active - s.child]) + "\n")
