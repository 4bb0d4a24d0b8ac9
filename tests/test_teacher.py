import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlstar import automaton as am
from nlstar.automaton import AlphabetMismatchError, Strategy
from nlstar.oracle import EnumBound, brute_membership, enumerate_legal
from nlstar.regex import canonicalize, parse_regex, theta
from nlstar.teacher import Answer, Teacher
from nlstar.words import CLOSE, OPEN, Alphabet, IllegalWordError, is_legal, prefixes

from .corpus import random_nominal

AB = frozenset({"a", "b"})


def worked_teacher(strategy=Strategy.SHORTEST):
    return Teacher.from_regex("ab<n.n*>", AB, strategy)


def test_membership_initial_table_values():
    teacher = worked_teacher()
    assert teacher.membership(()) is Answer.P
    assert teacher.membership(("a",)) is Answer.P
    assert teacher.membership(("b",)) is Answer.ZERO


def test_membership_one_on_member():
    assert worked_teacher().membership(("a", "b", OPEN, CLOSE)) is Answer.ONE


def test_membership_open_prefix_is_p():
    teacher = worked_teacher()
    assert teacher.membership(("a", "b", OPEN)) is Answer.P
    assert teacher.membership(("a", "b", OPEN, 1)) is Answer.P
    assert teacher.membership(("a", "b", OPEN, "a")) is Answer.ZERO
    assert teacher.membership((OPEN,)) is Answer.ZERO


def test_membership_counts_and_log():
    teacher = worked_teacher()
    teacher.membership(())
    teacher.membership(("a",))
    assert teacher.membership_queries == 2
    assert teacher.log == [("member", (), Answer.P), ("member", ("a",), Answer.P)]


def test_membership_rejects_illegal_word():
    with pytest.raises(IllegalWordError):
        worked_teacher().membership((CLOSE,))
    teacher = worked_teacher()
    with pytest.raises(IllegalWordError):
        teacher.membership((None,))
    assert teacher.membership_queries == 0 and teacher.log == []


def test_equivalence_yes_on_target_itself():
    teacher = worked_teacher()
    assert teacher.equivalence(teacher.target) is None
    assert teacher.equivalence_queries == 1
    assert teacher.log == [("equiv", teacher.target, None)]


def test_equivalence_counterexample_for_first_hypothesis():
    teacher = worked_teacher()
    hypothesis = am.NominalAutomaton(
        AB,
        0,
        {"q0": 0, "q1": 0},
        "q0",
        [],
        [("q0", "a", "q0"), ("q0", "b", "q1"), ("q1", "a", "q1"), ("q1", "b", "q1")],
    )
    assert teacher.equivalence(hypothesis) == ("a", "b", OPEN, CLOSE)
    assert teacher.log == [("equiv", hypothesis, ("a", "b", OPEN, CLOSE))]


def test_equivalence_alphabet_mismatch():
    teacher = worked_teacher()
    foreign = am.compile(canonicalize(parse_regex("a", {"a"})), {"a"})
    with pytest.raises(AlphabetMismatchError):
        teacher.equivalence(foreign)


def test_partial_target_answers_zero_off_the_map():
    # A target need not be total: missing transitions read as rejection.
    only_empty_word = am.NominalAutomaton(AB, 0, {"q0": 0}, "q0", ["q0"], [])
    teacher = Teacher(only_empty_word)
    assert teacher.membership(()) is Answer.ONE
    assert teacher.membership(("a",)) is Answer.ZERO


def test_strategies_affect_counterexample_depth():
    cne = "aaa + <n.n>"
    nothing = am.compile(canonicalize(parse_regex("0", {"a"})), {"a"})
    assert Teacher.from_regex(cne, {"a"}, Strategy.SHORTEST).equivalence(nothing) == ("a", "a", "a")
    assert Teacher.from_regex(cne, {"a"}, Strategy.MAX_FRESH).equivalence(nothing) == (OPEN, 1, CLOSE)
    assert Teacher.from_regex(cne, {"a"}, Strategy.MIN_FRESH).equivalence(nothing) == ("a", "a", "a")


nominal = st.integers(0, 10**9).map(
    lambda seed: random_nominal(random.Random(seed), size=7)
)


@given(nominal)
@settings(deadline=None, max_examples=20)
def test_answers_match_the_denotation(node):
    cne = canonicalize(node)
    teacher = Teacher(am.determinize(am.compile(cne, AB)))
    for word in enumerate_legal(AB, EnumBound(4, theta(cne))):
        answer = teacher.membership(word)
        assert (answer is Answer.ONE) == brute_membership(cne, word)
        if answer is Answer.ZERO:
            # no extension within the probe bound reaches the language
            for extension in enumerate_legal(AB, EnumBound(4, theta(cne))):
                joined = word + extension
                if is_legal(joined, Alphabet(AB, theta(cne))):
                    assert not brute_membership(cne, joined)


@given(nominal)
@settings(deadline=None, max_examples=20)
def test_answer_coherence_along_prefixes(node):
    cne = canonicalize(node)
    teacher = Teacher(am.determinize(am.compile(cne, AB)))
    for word in enumerate_legal(AB, EnumBound(4, theta(cne))):
        if teacher.membership(word) is Answer.ONE:
            for prefix in prefixes(word)[:-1]:
                assert teacher.membership(prefix) in (Answer.ONE, Answer.P)


@given(nominal, nominal)
@settings(deadline=None, max_examples=20)
def test_counterexamples_really_disagree(target_node, probe_node):
    target = canonicalize(target_node)
    probe = canonicalize(probe_node)
    teacher = Teacher(am.determinize(am.compile(target, AB)))
    hypothesis = am.determinize(am.compile(probe, AB))
    witness = teacher.equivalence(hypothesis)
    if witness is not None:
        in_target = brute_membership(target, witness)
        legal_for_probe = is_legal(witness, hypothesis.alphabet)
        in_probe = legal_for_probe and am.accepts(hypothesis, witness)
        assert in_target != in_probe
