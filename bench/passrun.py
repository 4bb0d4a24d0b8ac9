"""One cold benchmark pass, run by ``run.py`` in a fresh interpreter.

Reads a job as JSON on stdin and prints one JSON result line.  The job
names the workload, the targets as ``[index, expression text]`` pairs
in the order to run them, and whether to trace.

* Set-up (timed as ``setup_s``): import the library, then parse,
  ``canonicalize``, ``compile`` and ``determinize`` every target, and
  build its ``Teacher`` on the learn workloads.
* The pass (timed as ``wall_s``), one target at a time:
  - learn: ``run_nlstar`` with the shortest-counterexample strategy and
    the CLI's default configuration;
  - verify: from the parsed expression, ``canonicalize`` -> ``compile``
    -> ``determinize`` -> ``minimize`` -> ``equivalence(minimal,
    compiled)`` -> ``brute_equivalence(compiled, cne, EnumBound(L, θ))``.
* Checks, untimed and untraced: a learned machine must be equivalent
  to its target; both verify checks must answer None.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def learn_step(teacher):
    from nlstar import automaton as am
    from nlstar import learner

    learned, stats = learner.run_nlstar(teacher, learner.LearnConfig())
    fields = {
        "mq": stats.membership_queries,
        "eq": stats.equivalence_queries,
        "s": stats.s_size,
        "e": stats.e_size,
        "n": stats.n,
        "states": am.state_count(learned),
        "cex": [r.answer for r in stats.rounds if r.answer != "yes"],
        "cells": stats.cells,
        "rounds": len(stats.rounds),
        "log": len(teacher.log),
    }
    return fields, (learned, teacher.target)


def learn_check(learned, target):
    from nlstar import automaton as am

    witness = am.equivalence(learned, target)
    return witness, "learned machine differs from the target"


def verify_step(node, letters, oracle_len):
    from nlstar import automaton as am
    from nlstar import oracle
    from nlstar import regex as rx

    cne = rx.canonicalize(node)
    compiled = am.compile(cne, letters)
    determinized = am.determinize(compiled)
    minimal = am.minimize(determinized)
    exact = am.equivalence(minimal, compiled)
    brute = oracle.brute_equivalence(compiled, cne, oracle.EnumBound(oracle_len, rx.theta(cne)))
    fields = {
        "compiled": am.state_count(compiled),
        "determinized": am.state_count(determinized),
        "minimal": am.state_count(minimal),
    }
    return fields, (exact, brute)


def verify_check(exact, brute):
    if exact is not None:
        return exact, "minimal machine differs from the compiled one"
    return brute, "compiled machine differs from the denotation"


def run_targets(prepared, step, tracer, clock):
    """Run every target in turn; returns (record, kept for the check) pairs."""
    out = []
    for index, item in prepared:
        if tracer is not None:
            tracer.request = index
        record = {"i": index}
        start = clock()
        try:
            fields, kept = step(item)
        except Exception as exc:  # a failed target is counted, the pass goes on
            fields, kept = {"error": f"{type(exc).__name__}: {exc}"}, None
        record["ms"] = (clock() - start) / 1e6
        record.update(fields)
        out.append((record, kept))
    return out


def run_job(job):
    clock = time.perf_counter_ns
    start = clock()
    sys.path.insert(0, str(ROOT / "src"))
    from nlstar import automaton as am
    from nlstar import regex as rx
    from nlstar import teacher as tm

    letters = tuple(job["letters"])
    learn = job["kind"] == "learn"
    prepared = []
    for index, text in job["targets"]:
        node = rx.parse_regex(text, letters)
        machine = am.determinize(am.compile(rx.canonicalize(node), letters))
        if learn:
            prepared.append((index, tm.Teacher(machine, am.Strategy.SHORTEST)))
        else:
            prepared.append((index, node))
    setup_ns = clock() - start

    tracer = None
    if job["traced"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    if learn:
        step, check = learn_step, learn_check
    else:
        def step(node):
            return verify_step(node, letters, job["oracle_len"])

        check = verify_check
    start = clock()
    try:
        records = run_targets(prepared, step, tracer, clock)
    finally:
        wall_ns = clock() - start
        if tracer is not None:
            tracer.uninstall()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    from nlstar.words import serialize_word

    for record, kept in records:
        if kept is not None:
            witness, problem = check(*kept)
            record["ok"] = witness is None
            if witness is not None:
                record["error"] = f"{problem} on {serialize_word(witness)!r}"
    result = {
        "setup_s": setup_ns / 1e9,
        "wall_s": wall_ns / 1e9,
        "peak_rss_mb": peak_kib / 1024,
        "records": [record for record, _ in records],
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["harness_self_s"] = (wall_ns - tracer.covered_ns()) / 1e9
        if job.get("spans_out"):
            tracer.write_spans(job["spans_out"])
    return result


if __name__ == "__main__":
    print(json.dumps(run_job(json.load(sys.stdin))))
