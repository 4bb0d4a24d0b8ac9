import random
import sys
from functools import lru_cache
from itertools import islice

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlstar import automaton as am
from nlstar.oracle import EnumBound, brute_equivalence, brute_membership, enumerate_legal
from nlstar.regex import Epsilon, canonicalize, denote_bounded, letters_of, parse_regex, theta
from nlstar.words import CLOSE, OPEN, is_legal, letter_set, prefixes

from .corpus import ACCEPTANCE_SEED, SIGMA, draws

AB = frozenset({"a", "b"})


def test_enum_bound_validates():
    # Each bound is a non-negative, non-bool int, and the error names it.
    for bad in (-1, True, 2.5, "2"):
        with pytest.raises(ValueError, match="max_len"):
            EnumBound(bad, 0)
        with pytest.raises(ValueError, match="max_depth"):
            EnumBound(2, bad)
    assert EnumBound(max_len=2, max_depth=0) == EnumBound(2, 0)
    with pytest.raises(ValueError, match="max_len"):
        EnumBound(2, 0)._replace(max_len=-1)


def test_enumerate_single_letter_depth_one():
    got = enumerate_legal({"a"}, EnumBound(2, 1))
    assert got == [
        (),
        ("a",),
        (OPEN,),
        ("a", "a"),
        ("a", OPEN),
        (OPEN, "a"),
        (OPEN, 1),
        (OPEN, CLOSE),
    ]


def test_enumerate_zero_bound():
    assert enumerate_legal(AB, EnumBound(0, 0)) == [()]


def count_legal(letters, max_len, max_depth):
    # Independent counting recursion over (remaining length, open binders).
    @lru_cache(maxsize=None)
    def exact(length, count):
        if length == 0:
            return 1
        total = letters * exact(length - 1, count)
        total += count * exact(length - 1, count)
        if count < max_depth:
            total += exact(length - 1, count + 1)
        if count > 0:
            total += exact(length - 1, count - 1)
        return total

    return sum(exact(length, 0) for length in range(max_len + 1))


def test_enumeration_count_matches_recursive_count():
    got = enumerate_legal(AB, EnumBound(3, 1))
    assert len(got) == count_legal(2, 3, 1)
    assert len(got) == len(set(got))


@given(st.integers(0, 4), st.integers(0, 2))
def test_enumeration_is_prefix_complete(max_len, max_depth):
    emitted = set(enumerate_legal({"a"}, EnumBound(max_len, max_depth)))
    for word in emitted:
        for prefix in prefixes(word):
            assert prefix in emitted


def test_brute_membership_worked_target():
    cne = canonicalize(parse_regex("ab<n.n*>", AB))
    assert brute_membership(cne, ("a", "b", OPEN, CLOSE))
    assert not brute_membership(cne, ("a", "b"))


def test_brute_membership_epsilon_language():
    assert not brute_membership(Epsilon(), ("a",))
    assert brute_membership(Epsilon(), ())


def test_brute_equivalence_empty_machine_vs_epsilon():
    machine = am.NominalAutomaton(AB, 0, {"q0": 0}, "q0", [], [])
    assert brute_equivalence(machine, Epsilon(), EnumBound(2, 0)) == ()


def test_brute_equivalence_compile_agrees():
    for text in ["ab<n.n*>", "a* + b", "<n. <m.m>* n <k.k*> n>"]:
        cne = canonicalize(parse_regex(text, AB))
        machine = am.compile(cne, AB)
        assert brute_equivalence(machine, cne, EnumBound(7, 3)) is None


def test_brute_equivalence_detects_planted_difference():
    good = canonicalize(parse_regex("a b", AB))
    wrong = am.compile(canonicalize(parse_regex("a b + b", AB)), AB)
    assert brute_equivalence(wrong, good, EnumBound(4, 0)) == ("b",)


@pytest.mark.parametrize("bound", [(3, 1), [3, 1], None])
@pytest.mark.parametrize(
    "call",
    [
        lambda bound: brute_equivalence(am.compile(Epsilon(), AB), Epsilon(), bound),
        lambda bound: enumerate_legal({"a"}, bound),
    ],
    ids=["brute_equivalence", "enumerate_legal"],
)
def test_a_bound_that_is_not_an_enum_bound_is_a_value_error(call, bound):
    with pytest.raises(ValueError, match="bound must be an EnumBound"):
        call(bound)


class RowCounter:
    """A machine that counts the ``row`` calls made on it."""

    def __init__(self, machine):
        self.machine = machine
        self.rows = 0

    def __getattr__(self, name):
        return getattr(self.machine, name)

    def row(self, states):
        self.rows += 1
        return self.machine.row(states)


def test_the_walk_extends_only_prefixes_that_can_still_mismatch():
    # The full walk reads one row per extended prefix: 652,373 of them here.
    cne = canonicalize(parse_regex("ab<n.n*>", AB))
    machine = RowCounter(am.compile(cne, AB))
    assert brute_equivalence(machine, cne, EnumBound(10, 2)) is None
    assert 0 < machine.rows < 1_000  # 76


def test_pruning_keeps_the_witness_of_a_machine_with_only_dead_states():
    # No final state, so every state, the non-final trap loop too, is dead.
    trap = am.NominalAutomaton(
        AB, 1, {"q0": 0, "trap": 0}, "q0", [],
        [("q0", "a", "trap"), ("q0", "b", "q0"), ("trap", "a", "trap"), ("trap", "b", "trap")],
    )
    bound = EnumBound(6, 1)
    for text, expected in [("0", None), ("eps", ()), ("b b <n. n>", ("b", "b", OPEN, 1, CLOSE))]:
        cne = canonicalize(parse_regex(text, AB))
        assert brute_equivalence(trap, cne, bound) == expected
        assert reference_brute_equivalence(trap, cne, bound) == expected


def test_pruning_counts_eps_edges_towards_liveness():
    # The one path to the final state runs through eps edges: the start
    # state q0 and the states q2, q4 have no other way out.
    chain = am.NominalAutomaton(
        AB, 0, {f"q{i}": 0 for i in range(6)}, "q0", ["q5"],
        [("q0", am.EPS, "q1"), ("q1", "a", "q2"), ("q2", am.EPS, "q3"),
         ("q3", "b", "q4"), ("q4", am.EPS, "q5")],
    )
    bound = EnumBound(5, 0)
    for text, expected in [("0", ("a", "b")), ("a b", None), ("a a + a b", ("a", "a"))]:
        cne = canonicalize(parse_regex(text, AB))
        assert brute_equivalence(chain, cne, bound) == expected
        assert reference_brute_equivalence(chain, cne, bound) == expected


# ---------------------------------------------------------------------------
# the walk against the scan it replaced

@lru_cache(maxsize=8)
def reference_enumerate_legal(sigma, bound):
    """Every legal word within ``bound``, built level by level as a list."""
    letters = sorted(letter_set(sigma))
    out = [()]
    level = [((), 0)]  # (word, open count)
    for _ in range(bound.max_len):
        succ = []
        for word, count in level:
            for letter in letters:
                succ.append((word + (letter,), count))
            for idx in range(1, count + 1):
                succ.append((word + (idx,), count))
            if count < bound.max_depth:
                succ.append((word + (OPEN,), count + 1))
            if count > 0:
                succ.append((word + (CLOSE,), count - 1))
        out.extend(word for word, _ in succ)
        level = succ
    return tuple(out)


def reference_brute_equivalence(m, cne, bound):
    """The first enumerated word on which a from-scratch ``is_legal`` and
    ``accepts`` disagree with the denotation, or None."""
    denoted = denote_bounded(cne, bound.max_len)
    for word in reference_enumerate_legal(m.sigma | letters_of(cne), bound):
        accepted = is_legal(word, m.alphabet) and am.accepts(m, word)
        if accepted != (word in denoted):
            return word
    return None


@pytest.mark.parametrize(
    "sigma, bound",
    [
        ((), EnumBound(5, 2)),
        (("a",), EnumBound(5, 3)),
        (("b", "a", "c"), EnumBound(4, 1)),
        (AB, EnumBound(3, 0)),
    ],
)
def test_enumerate_legal_matches_the_reference(sigma, bound):
    assert enumerate_legal(sigma, bound) == list(reference_enumerate_legal(sigma, bound))


def test_walk_matches_the_reference_on_the_verify_pool():
    # The bench's verify pool: the first 60 draws of the acceptance stream.
    for cne in islice(draws(ACCEPTANCE_SEED), 60):
        machine = am.compile(cne, SIGMA)
        bound = EnumBound(6, theta(cne))
        assert brute_equivalence(machine, cne, bound) == reference_brute_equivalence(machine, cne, bound)


def test_walk_matches_the_reference_on_mismatched_pairs():
    targets = list(islice(draws(ACCEPTANCE_SEED), 100))
    rng = random.Random(13)
    witnesses = 0
    for _ in range(200):
        left, right = rng.sample(targets, 2)
        machine = am.compile(left, SIGMA)
        if rng.random() < 0.5:  # and on deterministic machines without eps edges
            machine = am.minimize(am.determinize(machine))
        # The depth bound may exceed the machine's own register bound.
        bound = EnumBound(6, max(theta(left), theta(right)))
        witness = brute_equivalence(machine, right, bound)
        assert witness == reference_brute_equivalence(machine, right, bound)
        witnesses += witness is not None
    assert witnesses >= 150  # 191 of the 200 pairs differ within the bound


def test_walk_matches_the_reference_on_eps_edges_and_fewer_letters():
    target = canonicalize(parse_regex("a* + <n. n b>", AB))
    with_eps = am.compile(canonicalize(parse_regex("a* + <n. n a>", AB)), AB)
    assert any(label is am.EPS for _, label, _ in with_eps.transitions)
    a_only = am.compile(canonicalize(parse_regex("a*", {"a"})))
    assert a_only.sigma == {"a"} and a_only.n == 0
    cases = [
        (with_eps, target, (OPEN, 1, "a", CLOSE)),
        (a_only, target, (OPEN, 1, "b", CLOSE)),
    ]
    bound = EnumBound(6, 2)
    for machine, cne, expected in cases:
        assert brute_equivalence(machine, cne, bound) == expected
        assert reference_brute_equivalence(machine, cne, bound) == expected


def test_walk_does_not_use_the_python_stack():
    cne = canonicalize(parse_regex("a*", {"a"}))
    machine = am.compile(cne)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        witness = brute_equivalence(machine, cne, EnumBound(300, 0))
        words = enumerate_legal({"a"}, EnumBound(300, 0))
    finally:
        sys.setrecursionlimit(limit)
    assert witness is None
    assert words == [("a",) * length for length in range(301)]
