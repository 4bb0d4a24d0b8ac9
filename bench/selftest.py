#!/usr/bin/env python3
"""Self-tests of the benchmark.  Run from anywhere; takes about a minute:

    python3 bench/selftest.py

* The generator reproduces the acceptance corpus draw for draw.
* Every pool target survives the text round trip the passes rely on.
* Two untraced passes in different orders and one traced pass give the
  same query counts, table sizes, counterexamples and state counts,
  and those equal the committed baseline.
* The traced pass's self times plus the harness's own time add up to
  its wall time; learner and teacher layers see no calls on ``verify``,
  and the oracle and ``minimize`` see none on the learn workloads.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import gen  # noqa: E402
import run  # noqa: E402
from nlstar import automaton as am  # noqa: E402
from nlstar import regex as rx  # noqa: E402
from tests.corpus import corpus_targets  # noqa: E402


def check_generator():
    letters = ("a", "b")
    expected = corpus_targets(gen.ACCEPTANCE_SEED, 20)
    got = []
    for node in gen.stream(gen.ACCEPTANCE_SEED, letters, 2, (3, 8)):
        cne = rx.canonicalize(node)
        # The corpus filters by minimal state count; so must this check.
        if am.state_count(am.minimize(am.determinize(am.compile(cne, letters)))) >= 2:
            got.append(cne)
            if len(got) == len(expected):
                break
    assert got == expected, "generator does not reproduce corpus_targets(20250808, 20)"


def check_round_trip():
    for workload in gen.WORKLOADS.values():
        for node in gen.pool(workload):
            parsed = rx.parse_regex(rx.format_regex(node), workload.letters)
            assert rx.canonicalize(parsed) == rx.canonicalize(node), rx.format_regex(node)


def check_passes(workload):
    texts = gen.texts(workload)
    baseline = json.loads(run.BASELINE.read_text())["workloads"][workload.name]
    passes = [
        run.run_pass(workload, texts, gen.run_order(len(texts), seed), traced, None)
        for seed, traced in ((1, False), (2, False), (3, True))
    ]

    def behaviour(result):
        return {
            record["i"]: {key: record.get(key) for key in run.BEHAVIOUR[workload.kind]}
            for record in result["records"]
        }

    first = behaviour(passes[0])
    assert all(behaviour(other) == first for other in passes[1:]), "passes disagree"
    for result in passes:
        bad = run.failures(workload.kind, result["records"], baseline)
        assert not bad, f"targets {bad} failed or drifted from the baseline"

    traced = passes[2]
    layers = traced["layers"]
    self_total = sum(value for name, value in layers.items() if name.endswith(".self_s"))
    assert abs(self_total + traced["harness_self_s"] - traced["wall_s"]) < 1e-6, "self times"
    if workload.kind == "learn":
        idle = [name for name in layers if name.startswith("oracle.")]
        idle.append("automaton.minimize.calls")
    else:
        idle = [name for name in layers if name.startswith(("learner.", "teacher."))]
    idle = [name for name in idle if name.endswith(".calls")]
    assert all(layers[name] == 0 for name in idle), f"unexpected calls: {idle}"


def main():
    checks = [("generator", check_generator), ("round trip", check_round_trip)]
    checks += [
        (f"passes {name}", lambda workload=workload: check_passes(workload))
        for name, workload in gen.WORKLOADS.items()
    ]
    failed = 0
    for name, check in checks:
        try:
            check()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
