#!/usr/bin/env python3
"""Compare counterexample strategies on a corpus of random targets.

The teacher can hand back the shortest difference, or (among the
shortest) the one that opens the most or the fewest binders.  This
measures how that choice shifts the query counts while the learned
language stays fixed.
"""

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from nlstar import automaton as am  # noqa: E402
from nlstar.automaton import Strategy  # noqa: E402
from nlstar.learner import run_nlstar  # noqa: E402
from nlstar.regex import canonicalize, format_regex  # noqa: E402
from nlstar.teacher import Teacher  # noqa: E402
from tests.corpus import SIGMA, random_nominal  # noqa: E402

SEED = 7
COUNT = 12


def targets():
    rng = random.Random(SEED)
    out = []
    while len(out) < COUNT:
        cne = canonicalize(random_nominal(rng, size=rng.randint(4, 8)))
        machine = am.minimize(am.determinize(am.compile(cne, SIGMA)))
        if am.state_count(machine) >= 3:
            out.append(cne)
    return out


def mixed_targets():
    """Languages whose shortest differences tie between letter-only and
    binder-opening words, so the strategies actually part ways."""
    from nlstar.regex import infer_sigma, parse_regex

    texts = ["aaa + <n.n>", "aa b + <n. n b>", "bb + <n.n> + <n. <m. m n>>"]
    return [canonicalize(parse_regex(text, infer_sigma(text))) for text in texts]


def run_corpus(corpus):
    print(f"{'target':44s} {'strategy':9s} member  equiv  counterexamples")
    for cne in corpus:
        machines = {}
        for strategy in Strategy:
            teacher = Teacher(am.determinize(am.compile(cne, SIGMA)), strategy)
            learned, stats = run_nlstar(teacher)
            machines[strategy] = learned
            picked = [s.answer for s in stats.rounds if s.answer != "yes"]
            print(
                f"{format_regex(cne)[:44]:44s} {strategy.value:9s} "
                f"{stats.membership_queries:6d} {stats.equivalence_queries:6d}  "
                + "; ".join(repr(c) for c in picked)
            )
        pairs = list(machines.values())
        assert all(am.equivalence(pairs[0], other) is None for other in pairs[1:]), \
            "strategies must agree on the learned language"
        print()


def main():
    print("# handpicked targets with ties between flat and binder-opening words")
    run_corpus(mixed_targets())
    print("# random targets")
    run_corpus(targets())


if __name__ == "__main__":
    main()
