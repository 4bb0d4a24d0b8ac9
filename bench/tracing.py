"""Layer tracing of one benchmark pass, from outside the library.

``Tracer.install`` replaces the public functions of ``nlstar.words``,
``regex``, ``automaton``, ``teacher``, ``learner`` and ``oracle`` with
timing wrappers, at every place that holds them: modules that did
``from .words import is_legal`` keep their own reference, so each
module namespace is searched for the original object.  ``uninstall``
puts the originals back.

Coarse boundaries (``run_nlstar``, the table methods, compile,
determinize, ...) are recorded as spans with a parent id and the
request (target) id.  Hot leaves (the ``words`` scans, ``accepts`` and
``membership``, which run once per word) are only aggregated as a call
count and nanoseconds.  A layer's self time is its duration minus the
time covered by the wrapped calls made inside it, so the self times of
all layers plus the harness's own time add up to the pass's wall time.
Everything is held in memory until the pass ends.
"""

from __future__ import annotations

import itertools
import json
import time

import nlstar
from nlstar import automaton, learner, oracle, regex, teacher, words

MODULES = (nlstar, words, regex, automaton, teacher, learner, oracle)

# (owner, attribute, layer metric prefix, recorded as a span)
MODULE_FUNCTIONS = (
    (words, "is_legal", "words.is_legal", False),
    (words, "concat", "words.concat", False),
    (words, "reg", "words.reg", False),
    (words, "depth", "words.depth", False),
    (words, "serialize_word", "words.serialize_word", False),
    (regex, "canonicalize", "regex.canonicalize", True),
    (regex, "denote_bounded", "regex.denote_bounded", True),
    (automaton, "compile", "automaton.compile", True),
    (automaton, "determinize", "automaton.determinize", True),
    (automaton, "minimize", "automaton.minimize", True),
    (automaton, "equivalence", "automaton.equivalence", True),
    (automaton, "accepts", "automaton.accepts", False),
    (automaton, "to_json", "automaton.to_json", True),
    (learner, "run_nlstar", "learner.run_nlstar", True),
    (oracle, "enumerate_legal", "oracle.enumerate_legal", True),
    (oracle, "brute_equivalence", "oracle.brute_equivalence", True),
)
METHODS = (
    (words.Alphabet, "__init__", "words.Alphabet", False),
    (learner.ObservationTable, "fill", "learner.fill", True),
    (learner.ObservationTable, "check_closed", "learner.check_closed", True),
    (learner.ObservationTable, "check_consistent", "learner.check_consistent", True),
    (learner.ObservationTable, "to_automaton", "learner.to_automaton", True),
    (learner.ObservationTable, "handle_counterexample", "learner.handle_counterexample", True),
    (teacher.Teacher, "membership", "teacher.membership", False),
    (teacher.Teacher, "equivalence", "teacher.equivalence", True),
)
LAYERS = tuple(name for _, _, name, _ in MODULE_FUNCTIONS + METHODS)


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter_ns
        # name -> [calls, total ns, ns covered by wrapped calls inside]
        self.stats = {name: [0, 0, 0] for name in LAYERS}
        # (span id, parent span id, request id, name, start ns, end ns)
        self.spans = []
        # Open frames, innermost last: [ns covered by children, span id].
        # The bottom frame is the pass itself, span id 0.
        self.stack = [[0, 0]]
        self.request = None
        self.counts = {
            "automaton.determinize.states_out": 0,
            "oracle.enumerate_legal.words": 0,
            "learner.check_closed.hits": 0,
            "learner.check_consistent.hits": 0,
        }
        self._ids = itertools.count(1)
        self._undo = []

    def _observer(self, name):
        counts = self.counts
        if name == "automaton.determinize":
            def observe(result):
                counts["automaton.determinize.states_out"] += len(result.layers)
        elif name == "oracle.enumerate_legal":
            def observe(result):
                counts["oracle.enumerate_legal.words"] += len(result)
        elif name in ("learner.check_closed", "learner.check_consistent"):
            key = name + ".hits"

            def observe(result):
                if result is not None:
                    counts[key] += 1
        else:
            return None
        return observe

    def _wrap(self, name, fn, span):
        stat = self.stats[name]
        stack = self.stack
        spans = self.spans
        clock = self.clock
        ids = self._ids
        observe = self._observer(name)
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            sid = next(ids) if span else parent[1]
            frame = [0, sid]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                parent[0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += frame[0]
                if span:
                    spans.append((sid, parent[1], tracer.request, name, start, end))
            if observe is not None:
                observe(result)
            return result

        return wrapper

    def install(self):
        for owner, attr, name, span in MODULE_FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, span)
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._undo.append((module, key, original))
        for cls, attr, name, span in METHODS:
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original, span))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def covered_ns(self):
        """Time covered by the outermost wrapped calls of the pass."""
        return self.stack[0][0]

    def layer_metrics(self):
        out = {}
        for name, (calls, total, inner) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = (total - inner) / 1e9
        for name in ("learner.check_closed", "learner.check_consistent"):
            calls = self.stats[name][0]
            out[f"{name}.hit_ratio"] = self.counts[name + ".hits"] / calls if calls else 0.0
        out["automaton.determinize.states_out"] = self.counts["automaton.determinize.states_out"]
        out["oracle.enumerate_legal.words"] = self.counts["oracle.enumerate_legal.words"]
        return out

    def write_spans(self, path):
        with open(path, "w") as handle:
            for sid, parent, request, name, start, end in self.spans:
                record = {"id": sid, "parent": parent, "request": request,
                          "name": name, "start_ns": start, "end_ns": end}
                handle.write(json.dumps(record) + "\n")
