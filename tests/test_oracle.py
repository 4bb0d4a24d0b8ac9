from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nlstar import automaton as am
from nlstar.oracle import EnumBound, brute_equivalence, brute_membership, enumerate_legal
from nlstar.regex import Epsilon, canonicalize, parse_regex
from nlstar.words import CLOSE, OPEN, prefixes

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
