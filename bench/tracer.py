"""Spans and work counters around siglogic's public functions.

`Tracer.install` wraps each traced function under every name a caller
looks it up by (`siglogic.answer`, `siglogic.kb.answer`, and
`siglogic.kb.compile_signature` as well as `siglogic.logic.compile_signature`,
since `kb` imports that name directly).  Each call records a span: name,
start, end, parent span and op id.  Spans stay in memory in flat arrays
and are written out once, when the run ends.  `FactStore.facts` is
counted, not spanned: a candidate is a fact it returns while an `answer`
span is open.
"""

from __future__ import annotations

import gzip
from array import array
from collections import Counter, defaultdict
from time import perf_counter

# Traced functions as (module, attribute); the metric prefix is module.attribute.
FUNCTIONS = (
    ("dsl", "parse_signature"),
    ("dsl", "print_signature"),
    ("normalizer", "normalize"),
    ("logic", "compile_signature"),
    ("kb", "ingest_signature"),
    ("kb", "answer"),
    ("kb", "answer_equiv"),
    ("kb", "reconstruct_signature"),
    ("kb", "dump_facts"),
    ("cli", "run"),
)
METHODS = (("EquivStore", "add_eq"), ("EquivStore", "class_of"))
SHAPES = ("point", "scan", "join", "equiv")

# Per-layer metrics in report order: (name, unit, better).
PER_LAYER = (
    [("kb.answer.calls", "count", "lower"), ("kb.answer.self_s", "s", "lower")]
    + [("kb.answer.candidates_per_query.%s" % s, "count", "lower") for s in SHAPES]
    + [("kb.answer.results_per_candidate.%s" % s, "ratio", "higher") for s in SHAPES]
    + [
        ("kb.answer_equiv.calls", "count", "lower"),
        ("kb.answer_equiv.self_s", "s", "lower"),
        ("kb.EquivStore.class_of.calls", "count", "lower"),
        ("kb.EquivStore.class_of.self_s", "s", "lower"),
        ("kb.EquivStore.class_of.members", "count", "lower"),
        ("kb.EquivStore.add_eq.calls", "count", "lower"),
        ("kb.EquivStore.add_eq.self_s", "s", "lower"),
        ("dsl.parse_signature.calls", "count", "lower"),
        ("dsl.parse_signature.self_s", "s", "lower"),
        ("logic.compile_signature.calls", "count", "lower"),
        ("logic.compile_signature.self_s", "s", "lower"),
        ("kb.ingest_signature.calls", "count", "lower"),
        ("kb.ingest_signature.self_s", "s", "lower"),
        ("kb.ingest_signature.facts_added", "count", "lower"),
        ("kb.ingest_signature.noop", "count", "lower"),
        ("normalizer.normalize.calls", "count", "lower"),
        ("normalizer.normalize.self_s", "s", "lower"),
        ("dsl.print_signature.calls", "count", "lower"),
        ("dsl.print_signature.self_s", "s", "lower"),
        ("kb.dump_facts.calls", "count", "lower"),
        ("kb.dump_facts.self_s", "s", "lower"),
        ("kb.dump_facts.lines", "count", "lower"),
        ("kb.reconstruct_signature.calls", "count", "lower"),
        ("kb.reconstruct_signature.self_s", "s", "lower"),
        ("kb.FactStore.size", "count", "lower"),
        ("cli.run.calls", "count", "lower"),
        ("cli.run.self_s", "s", "lower"),
    ]
)


class Tracer:
    def __init__(self, sl):
        self.sl = sl
        self.modules = [sl] + [getattr(sl, m) for m in ("dsl", "normalizer", "logic", "kb", "cli")]
        self.names = []
        self.name_ids = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.stack = []
        self.op = -1  # op id of the request in flight; -1 during set-up
        self.shape = None  # query shape of that request, if it has one
        self.answer_depth = 0
        self.count = Counter()
        self.candidates = Counter()
        self.results = Counter()
        self.answers = Counter()
        self.store_size = 0
        self._stores = []
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        sl = self.sl
        hooks = {
            "kb.answer": self._on_answer,
            "kb.ingest_signature": self._on_ingest,
            "kb.dump_facts": lambda r: self.count.update({"kb.dump_facts.lines": len(r)}),
            "kb.EquivStore.class_of": lambda r: self.count.update({"kb.EquivStore.class_of.members": len(r)}),
        }
        for module, attr in FUNCTIONS:
            name = "%s.%s" % (module, attr)
            orig = getattr(getattr(sl, module), attr)
            wrapper = self._spanned(name, orig, hooks.get(name), answer=(name == "kb.answer"))
            for mod in self.modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, key, wrapper)
        for cls_name, attr in METHODS:
            cls = getattr(sl.kb, cls_name)
            name = "kb.%s.%s" % (cls_name, attr)
            self._patch(cls, attr, self._spanned(name, getattr(cls, attr), hooks.get(name)))
        store_cls = sl.kb.FactStore
        facts, init = store_cls.facts, store_cls.__init__
        tracer = self

        def counted_facts(store, pred, first=None):
            found = facts(store, pred, first)
            if tracer.answer_depth:
                tracer.candidates[tracer.shape] += len(found)
            return found

        def tracked_init(store):
            init(store)
            tracer._stores.append(store)

        self._patch(store_cls, "facts", counted_facts)
        self._patch(store_cls, "__init__", tracked_init)

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def _patch(self, owner, key, value):
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def _spanned(self, name, fn, on_result=None, answer=False):
        name_id = self.name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        stack, start, end = self.stack, self.span_start, self.span_end
        parent, op, names = self.span_parent, self.span_op, self.span_name
        count, calls = self.count, name + ".calls"

        def wrapper(*args, **kwargs):
            index = len(start)
            names.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.op)
            end.append(0.0)
            stack.append(index)
            count[calls] += 1
            if answer:
                self.answer_depth += 1
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = perf_counter()
                stack.pop()
                if answer:
                    self.answer_depth -= 1
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _on_answer(self, result):
        self.answers[self.shape] += 1
        self.results[self.shape] += len(result)

    def _on_ingest(self, added):
        self.count["kb.ingest_signature.facts_added"] += added
        self.count["kb.ingest_signature.noop"] += added == 0

    def begin_op(self, op_id, shape):
        self.op, self.shape = op_id, shape

    def end_op(self):
        """Record the size of the stores the finished request loaded."""
        for store in self._stores:
            self.store_size = max(self.store_size, len(store))
        self._stores.clear()
        self.op, self.shape = -1, None

    # -- results ----------------------------------------------------------

    def self_times(self):
        """Seconds per span name: duration minus the time child spans cover."""
        child = [0.0] * len(self.span_start)
        for i, p in enumerate(self.span_parent):
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        totals = defaultdict(float)
        for i, name_id in enumerate(self.span_name):
            totals[self.names[name_id]] += self.span_end[i] - self.span_start[i] - child[i]
        return totals

    def metrics(self):
        self_s = self.self_times()
        values = dict(self.count)
        for name in self.names:
            values[name + ".self_s"] = self_s.get(name, 0.0)
        for shape in SHAPES:
            cands = self.candidates[shape]
            values["kb.answer.candidates_per_query.%s" % shape] = (
                cands / self.answers[shape] if self.answers[shape] else 0
            )
            values["kb.answer.results_per_candidate.%s" % shape] = (
                self.results[shape] / cands if cands else 0
            )
        values["kb.FactStore.size"] = self.store_size
        return {
            name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in PER_LAYER
        }

    def write_spans(self, path):
        """All spans as gzipped TSV: name, start, end, parent index, op id."""
        with gzip.open(path, "wt", encoding="utf-8") as out:
            out.write("name\tstart\tend\tparent\top\n")
            for i, name_id in enumerate(self.span_name):
                out.write("%s\t%.9f\t%.9f\t%d\t%d\n" % (
                    self.names[name_id], self.span_start[i], self.span_end[i],
                    self.span_parent[i], self.span_op[i],
                ))
