#!/usr/bin/env python3
"""Compare counterexample strategies on a corpus of random targets.

The teacher can hand back the shortest difference, or (among the
shortest) the one that opens the most or the fewest binders.  This
measures how that choice shifts the query counts while the learned
language stays fixed.
"""

import random

from nlstar import automaton as am
from nlstar.automaton import Strategy
from nlstar.learner import run_nlstar
from nlstar.regex import Binder, Concat, Empty, Epsilon, Letter, Name, Star, Sum, canonicalize, format_regex
from nlstar.teacher import Teacher

SIGMA = ("a", "b")
SEED = 7
COUNT = 12


def random_closed(rng, size, names=(), depth_left=2):
    if size <= 1:
        pool = [Epsilon()] + [Letter(s) for s in SIGMA] * 2
        pool += [Name(nm) for nm in names] * 3
        pool.append(Empty())
        return rng.choice(pool)
    ops = ["sum", "concat", "concat", "star"]
    if depth_left > 0:
        ops += ["binder", "binder"]
    op = rng.choice(ops)
    if op == "star":
        return Star(random_closed(rng, size - 1, names, depth_left))
    if op == "binder":
        name = f"x{len(names)}"
        return Binder(name, random_closed(rng, size - 1, names + (name,), depth_left - 1))
    cut = rng.randint(1, size - 2) if size > 2 else 1
    left = random_closed(rng, cut, names, depth_left)
    right = random_closed(rng, size - 1 - cut, names, depth_left)
    return (Sum if op == "sum" else Concat)(left, right)


def targets():
    rng = random.Random(SEED)
    out = []
    while len(out) < COUNT:
        cne = canonicalize(random_closed(rng, size=rng.randint(4, 8)))
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
