"""Deterministic random target generation, and the environment of CLI
child processes, shared by the test modules."""

import itertools
import os
import random
from pathlib import Path

from nlstar import automaton as am
from nlstar import regex as rx

SIGMA = ("a", "b")

# Seeds the acceptance stream, whose first 60 draws are the verify bench pool.
ACCEPTANCE_SEED = 20250808

# ``python -m nlstar.cli`` children import the package under test from
# its source tree, whether or not the test process got it by PYTHONPATH.
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": str(Path(am.__file__).parents[1]),
    "PYTHONIOENCODING": "utf-8",
}


def random_nominal(rng, size, letters=SIGMA, names=(), depth_left=2):
    """Random closed expression over ``letters`` with at most ``size`` AST
    nodes and binder nesting at most ``depth_left``."""
    if size <= 1:
        pool = [rx.Epsilon()] + [rx.Letter(s) for s in letters] * 2
        pool += [rx.Name(nm) for nm in names] * 3
        pool.append(rx.Empty())
        return rng.choice(pool)
    ops = ["sum", "concat", "concat", "star"]
    if depth_left > 0:
        ops += ["binder", "binder"]
    op = rng.choice(ops)
    if op == "star":
        return rx.Star(random_nominal(rng, size - 1, letters, names, depth_left))
    if op == "binder":
        name = f"x{len(names)}"
        return rx.Binder(name, random_nominal(rng, size - 1, letters, names + (name,), depth_left - 1))
    left_size = rng.randint(1, size - 2) if size > 2 else 1
    left = random_nominal(rng, left_size, letters, names, depth_left)
    right = random_nominal(rng, size - 1 - left_size, letters, names, depth_left)
    return (rx.Sum if op == "sum" else rx.Concat)(left, right)


def draws(seed, max_theta=2, letters=SIGMA, sizes=(3, 8)):
    """Endless seeded stream of canonical expressions whose AST sizes are
    drawn from ``sizes``; seeded with ``ACCEPTANCE_SEED`` and the other
    defaults it is the acceptance stream."""
    rng = random.Random(seed)
    while True:
        yield rx.canonicalize(random_nominal(rng, rng.randint(*sizes), letters, depth_left=max_theta))


def corpus_targets(seed, count, max_theta=2, min_states=2):
    """The first ``count`` draws whose minimal machine has at least
    ``min_states`` states.  The floor rules out the two degenerate
    one-state languages, for which the very first equivalence query
    already exceeds the query budget the size bounds promise."""
    kept = (
        cne
        for cne in draws(seed, max_theta)
        if am.state_count(am.minimize(am.determinize(am.compile(cne, SIGMA)))) >= min_states
    )
    return list(itertools.islice(kept, count))
