"""Seeded random targets for the benchmark workloads.

One generator, parameterised by letters, binder nesting bound and AST
size.  On the letters ``("a", "b")`` it makes the same draws as
``tests/corpus.py:random_nominal``, so a stream seeded like the
acceptance corpus yields the acceptance corpus (``selftest.py`` checks
this).

Each workload runs a fixed pool of targets taken from one stream with a
fixed seed.  The pool is fixed so that query counts repeat exactly and
can be compared with the committed per-target baseline; the benchmark's
``--seed`` only sets the order in which the pool is run.

Filters use the determinized state count, never ``minimize``: the
seed's ``minimize`` needs 40 s on item 167 of the acceptance stream.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from nlstar import automaton as am
from nlstar import regex as rx

ACCEPTANCE_SEED = 20250808


def random_nominal(rng, size, letters, names=(), depth_left=2):
    """Random closed expression with at most ``size`` AST nodes and binder
    nesting at most ``depth_left``; bound names are ``x0``, ``x1``, ..."""
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
        body = random_nominal(rng, size - 1, letters, names + (name,), depth_left - 1)
        return rx.Binder(name, body)
    left_size = rng.randint(1, size - 2) if size > 2 else 1
    left = random_nominal(rng, left_size, letters, names, depth_left)
    right = random_nominal(rng, size - 1 - left_size, letters, names, depth_left)
    return (rx.Sum if op == "sum" else rx.Concat)(left, right)


def stream(seed, letters, max_theta, ast_size):
    """Endless stream of random expressions; sizes drawn from ``ast_size``."""
    rng = random.Random(seed)
    low, high = ast_size
    while True:
        yield random_nominal(rng, rng.randint(low, high), letters, depth_left=max_theta)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "learn" or "verify"
    letters: tuple
    max_theta: int
    ast_size: tuple
    seed: int
    count: int
    # Keep a target only if its determinized machine has at least this
    # many states; None keeps the stream unfiltered.
    min_states: "int | None" = None
    # Word length bound of the brute-force check (verify only).
    oracle_len: int = 0


WORKLOADS = {
    w.name: w
    for w in (
        # The acceptance-corpus generator; the floor of 2 states is the
        # acceptance corpus's, applied to the determinized machine.
        Workload("learn-small", "learn", ("a", "b"), 2, (3, 8), ACCEPTANCE_SEED, 200, 2),
        # The scaled corpus: wide tables and long label-suffix words.
        Workload("learn-scaled", "learn", tuple("abcdef"), 4, (25, 35), 1, 10, 2),
        # An unfiltered prefix of the acceptance stream; it stops well
        # before item 167, whose minimize takes 40 s on the seed.
        Workload("verify", "verify", ("a", "b"), 2, (3, 8), ACCEPTANCE_SEED, 60, None, 6),
    )
}


def pool(workload: Workload):
    """The workload's targets, uncanonicalized, in stream order."""
    out = []
    for node in stream(workload.seed, workload.letters, workload.max_theta, workload.ast_size):
        if len(out) == workload.count:
            break
        if workload.min_states is not None:
            machine = am.determinize(am.compile(rx.canonicalize(node), workload.letters))
            if am.state_count(machine) < workload.min_states:
                continue
        out.append(node)
    return out


def texts(workload: Workload):
    """The workload's targets as the expression text the program parses."""
    return [rx.format_regex(node) for node in pool(workload)]


def run_order(count, seed):
    """The order in which one run visits a pool of ``count`` targets."""
    order = list(range(count))
    random.Random(seed).shuffle(order)
    return order
