import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlstar import automaton as am
from nlstar.automaton import AlphabetMismatchError, NondeterministicInputError, Strategy
from nlstar.oracle import EnumBound, brute_membership, enumerate_legal
from nlstar.regex import canonicalize, parse_regex, theta
from nlstar.teacher import Answer, Teacher
from nlstar.words import CLOSE, OPEN, Alphabet, IllegalWordError, is_legal, prefixes, serialize_word

from .corpus import random_nominal

AB = frozenset({"a", "b"})


def worked_teacher(strategy=Strategy.SHORTEST):
    return Teacher.from_regex("ab<n.n*>", AB, strategy)


def test_teacher_needs_a_deterministic_target():
    compiled = am.compile(canonicalize(parse_regex("ab<n.n*>", AB)), AB)
    with pytest.raises(NondeterministicInputError):
        Teacher(compiled)


@pytest.mark.parametrize("strategy", ["max-fresh", "shortest", None, 7, Strategy])
def test_a_strategy_that_is_no_member_is_rejected(strategy):
    target = am.determinize(am.compile(canonicalize(parse_regex("aaa + <n.n>", {"a"})), {"a"}))
    empty = am.NominalAutomaton({"a"}, 0, {"q0": 0}, "q0", [], [])
    # The member picks the deepest shortest witness; its value would pick min-fresh.
    assert am.equivalence(target, empty, Strategy.MAX_FRESH) == (OPEN, 1, CLOSE)
    message = f"strategy must be a Strategy member, got {strategy!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        am.equivalence(target, empty, strategy)
    # Before any search: the letters of these two machines differ.
    with pytest.raises(ValueError, match=re.escape(message)):
        am.equivalence(target, am.compile(canonicalize(parse_regex("b", {"b"}))), strategy)
    with pytest.raises(ValueError, match=re.escape(message)):
        Teacher(target, strategy)


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
    words = enumerate_legal(AB, EnumBound(4, theta(cne)))
    alphabet = Alphabet(AB, theta(cne))
    for word in words:
        answer = teacher.membership(word)
        assert (answer is Answer.ONE) == brute_membership(cne, word)
        if answer is Answer.ZERO:
            # no extension within the probe bound reaches the language
            for extension in words:
                joined = word + extension
                if is_legal(joined, alphabet):
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


class StrToken(str):
    pass


class IntToken(int):
    pass


# Tokens that a target's edges may carry.
TOKENS = ["a", "b", OPEN, CLOSE, 1, 2]
# A letter outside sigma, registers out of range, values that compare equal
# to register 1 (True == 1.0 == 1) but are no token, and subclasses of the
# token types, which are tokens.
ODD_TOKENS = ["c", -1, 0, 3, 4, True, False, 1.0, None, StrToken("a"), IntToken(1)]


@st.composite
def token_words(draw):
    """Words over TOKENS, half of them with one token swapped for an odd one."""
    word = draw(st.lists(st.sampled_from(TOKENS), max_size=6))
    if word and draw(st.booleans()):
        word[draw(st.integers(0, len(word) - 1))] = draw(st.sampled_from(ODD_TOKENS))
    return tuple(word)


def live_states(target):
    """States from which a final state can be reached."""
    live = set(target.finals)
    while True:
        grown = live | {src for src, _, dst in target.transitions if dst in live}
        if grown == live:
            return live
        live = grown


def reference_membership(target, word, log):
    """Reference answer: ``is_legal`` first, then the walk."""
    if not is_legal(word, target.alphabet):
        raise IllegalWordError(f"membership query for illegal word {serialize_word(word)!r}")
    delta = {(src, label): dst for src, label, dst in target.transitions}
    state = target.initial
    for tok in word:
        state = delta.get((state, tok))
        if state is None:
            break
    if state in target.finals:
        answer = Answer.ONE
    elif state in live_states(target):
        answer = Answer.P
    else:
        answer = Answer.ZERO
    log.append(("member", word, answer))
    return answer


WORKED_WORDS = [("a", "b", OPEN, tok) for tok in [1] + ODD_TOKENS] + [("a", StrToken("b")), ()]


@given(nominal, st.booleans(), st.lists(token_words(), min_size=20, max_size=60))
@example(parse_regex("ab<n.n*>", AB), False, WORKED_WORDS)
@example(parse_regex("ab<n.n*>", AB), True, WORKED_WORDS + [("b",), ("b", OPEN, 1), ("b", OPEN, True)])
@settings(deadline=None, max_examples=60)
def test_membership_matches_the_legality_first_reference(node, partial, queries):
    target = am.determinize(am.compile(canonicalize(node), AB))
    if partial:
        # Drop the edges into dead states, so the walk stops on legal words too.
        live = live_states(target)
        target = am.NominalAutomaton(
            target.sigma, target.n, target.layers, target.initial, target.finals,
            [edge for edge in target.transitions if edge[2] in live],
        )
    teacher = Teacher(target)
    log = []
    for word in queries:
        try:
            expected = reference_membership(target, word, log)
        except IllegalWordError as exc:
            with pytest.raises(IllegalWordError) as raised:
                teacher.membership(word)
            assert str(raised.value) == str(exc)
        else:
            assert teacher.membership(word) is expected
        assert teacher.membership_queries == len(log)
        assert teacher.log == log
