import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlstar import automaton as am
from nlstar.automaton import Strategy
from nlstar.learner import (
    CounterexampleError,
    LearnConfig,
    NotClosedOrConsistentError,
    ObservationTable,
    RoundLimitError,
    init_table,
    run_nlstar,
)
from nlstar.oracle import EnumBound, brute_equivalence
from nlstar.regex import canonicalize, parse_regex, theta
from nlstar.teacher import Answer, Teacher
from nlstar.words import CLOSE, OPEN, Alphabet, IllegalWordError, concat, is_legal, reg

from .corpus import corpus_targets, draws, random_nominal

AB = frozenset({"a", "b"})


def worked_teacher(strategy=Strategy.SHORTEST):
    return Teacher.from_regex("ab<n.n*>", AB, strategy)


def table_at_t2(teacher):
    table = init_table(teacher)
    table.extend_close(table.check_closed(), teacher)
    return table


def table_at_t3(teacher):
    table = table_at_t2(teacher)
    table.handle_counterexample(("a", "b", OPEN, CLOSE), teacher)
    return table


def test_init_table_matches_t1():
    teacher = worked_teacher()
    table = init_table(teacher)
    assert table.cell((), ()) is Answer.P
    assert table.cell(("a",), ()) is Answer.P
    assert table.cell(("b",), ()) is Answer.ZERO
    assert teacher.membership_queries == 1 + len(AB)


def test_init_table_empty_language():
    teacher = Teacher.from_regex("0", AB)
    table = init_table(teacher)
    assert all(table.cell(x, ()) is Answer.ZERO for x in table.labels())


def test_t1_not_closed_with_witness_b():
    table = init_table(worked_teacher())
    assert table.check_closed() == ("b",)


def test_t1_consistent():
    assert init_table(worked_teacher()).check_consistent() is None


def test_t2_closed_and_consistent():
    table = table_at_t2(worked_teacher())
    assert table.check_closed() is None
    assert table.check_consistent() is None
    assert table.s_words == [(), ("b",)]


def test_t2_hypothesis_two_states_over_letters():
    table = table_at_t2(worked_teacher())
    machine = table.to_automaton()
    assert am.state_count(machine) == 2
    assert machine.n == 0
    assert not machine.finals
    labels = {label for _, label, _ in machine.transitions}
    assert labels == {"a", "b"}


def test_counterexample_grows_alphabet():
    teacher = worked_teacher()
    table = table_at_t3(teacher)
    for prefix in [(), ("a",), ("a", "b"), ("a", "b", OPEN), ("a", "b", OPEN, CLOSE)]:
        assert prefix in table.s_words
    assert table.n == 1
    assert table.alphabet.tokens() == ("a", "b", 1, OPEN, CLOSE)


def test_depth_zero_counterexample_keeps_alphabet():
    teacher = worked_teacher()
    table = table_at_t2(teacher)
    table.handle_counterexample(("a", "a"), teacher)
    assert table.n == 0
    assert table.alphabet.tokens() == ("a", "b")


def test_t3_closedness_witness_is_bare_open():
    table = table_at_t3(worked_teacher())
    assert table.check_closed() == (OPEN,)


def test_t3_has_inconsistency_among_p_rows():
    # row(eps), row(a) and row(ab) coincide at this point; scanning tokens
    # in the fixed order reports the a-successor split first.
    table = table_at_t3(worked_teacher())
    table.extend_close(table.check_closed(), worked_teacher())
    column = table.check_consistent()
    assert column == ("a",)


def test_bottom_cells_appear_once_binders_exist():
    teacher = worked_teacher()
    table = table_at_t3(teacher)
    table.extend_close((OPEN,), teacher)
    table.extend_consistent((OPEN,), teacher)
    assert table.cell(("a", "b", OPEN), (OPEN,)) is Answer.BOTTOM
    assert table.cell((OPEN,), (OPEN,)) is Answer.BOTTOM
    assert table.cell(("a", "b"), (OPEN,)) is Answer.P


def test_deeper_counterexample_rebuilds_stored_rows():
    teacher = Teacher.from_regex("<n. <m. m a> n>", AB)
    table = init_table(teacher)
    table.handle_counterexample((OPEN, CLOSE), teacher)
    table.extend_consistent((OPEN,), teacher)
    assert table.cell((OPEN,), (OPEN,)) is Answer.BOTTOM  # depth 2 > n = 1
    table.handle_counterexample((OPEN, OPEN, CLOSE, CLOSE), teacher)
    assert table.cell((OPEN,), (OPEN,)) is Answer.P
    assert table.row((OPEN,)) == ((Answer.P, Answer.P), 1)


def test_extension_never_returns_same_witness():
    teacher = worked_teacher()
    table = init_table(teacher)
    witness = table.check_closed()
    table.extend_close(witness, teacher)
    assert table.check_closed() != witness
    table2 = table_at_t3(teacher)
    w2 = table2.check_closed()
    table2.extend_close(w2, teacher)
    assert table2.check_closed() != w2
    column = table2.check_consistent()
    table2.extend_consistent(column, teacher)
    assert table2.check_consistent() != column


def test_table_rejects_repeated_labels_and_illegal_counterexamples():
    teacher = worked_teacher()
    table = init_table(teacher)
    with pytest.raises(ValueError, match="already a row label in S"):
        table.extend_close((), teacher)
    with pytest.raises(ValueError, match="already a column label in E"):
        table.extend_consistent((), teacher)
    with pytest.raises(IllegalWordError, match="illegal counterexample"):
        table.handle_counterexample(("a", CLOSE), teacher)


def test_illegal_labels_have_bottom_rows_and_no_state():
    teacher = worked_teacher()
    table = table_at_t3(teacher)
    illegal = ("a", "b", OPEN, OPEN)
    assert illegal in table.labels()
    assert table.row(illegal) is None
    assert table.cell(illegal, ()) is Answer.BOTTOM
    assert table.state_of(illegal) is None


def test_to_automaton_requires_ready_table():
    with pytest.raises(NotClosedOrConsistentError):
        init_table(worked_teacher()).to_automaton()


def test_to_automaton_rejects_closed_but_inconsistent_table():
    # The repair loop on the worked example, stepped by hand: after the
    # counterexample and one closing step, rows eps and a are equal but
    # their a-extensions are not.
    teacher = worked_teacher()
    table = table_at_t3(teacher)
    table.extend_close(table.check_closed(), teacher)
    assert table.check_closed() is None
    assert table.check_consistent() == ("a",)
    with pytest.raises(NotClosedOrConsistentError, match="not consistent at 'a a'"):
        table.to_automaton()


def test_to_automaton_single_state_all_zero():
    teacher = Teacher.from_regex("0", AB)
    table = init_table(teacher)
    machine = table.to_automaton()
    assert am.state_count(machine) == 1
    assert not machine.finals


def test_run_on_epsilon_target_single_round():
    teacher = Teacher.from_regex("eps", AB)
    learned, stats = run_nlstar(teacher)
    assert stats.equivalence_queries == 1
    assert am.accepts(learned, ())
    assert not am.accepts(learned, ("a",))


def test_run_worked_example():
    teacher = worked_teacher()
    learned, stats = run_nlstar(teacher)
    assert am.state_count(learned) == 7
    assert stats.equivalence_queries == 2
    assert stats.n == 1
    assert stats.rounds[0].hypothesis_states == 2
    assert stats.rounds[0].answer == "a b <<1. >>"
    assert am.equivalence(learned, teacher.target) is None
    cne = canonicalize(parse_regex("ab<n.n*>", AB))
    assert brute_equivalence(learned, cne, EnumBound(10, theta(cne) + 1)) is None


def test_counterexample_classified_by_next_hypothesis():
    teacher = worked_teacher()
    run_nlstar(teacher)
    rounds = [(hypothesis, answer) for kind, hypothesis, answer in teacher.log if kind == "equiv"]
    assert len(rounds) == 2
    for (_, counterexample), (hypothesis, _) in zip(rounds, rounds[1:]):
        want = am.accepts(teacher.target, counterexample)
        assert am.accepts(hypothesis, counterexample) == want


def test_round_cap_raises():
    with pytest.raises(RoundLimitError) as err:
        run_nlstar(worked_teacher(), LearnConfig(max_rounds=1))
    assert err.value.stats.equivalence_queries == 1


class FixedAnswerTeacher(Teacher):
    """Answers every equivalence query with the same word."""

    def __init__(self, target, counterexample, member=None):
        super().__init__(target)
        self.counterexample = counterexample
        self.member = member

    def membership(self, word):
        return super().membership(word) if self.member is None else self.member

    def equivalence(self, hypothesis):
        self.equivalence_queries += 1
        return self.counterexample


def test_correctly_classified_counterexample_is_rejected():
    # The first hypothesis rejects everything, and "b" is not in the language.
    teacher = FixedAnswerTeacher(worked_teacher().target, ("b",))
    with pytest.raises(CounterexampleError, match="'b'"):
        run_nlstar(teacher, LearnConfig(max_rounds=20))
    assert teacher.equivalence_queries == 1


def test_hypothesis_that_stops_growing_is_rejected():
    # Every word is claimed a member, so "<<" is misclassified by each
    # hypothesis (finals need register 0), yet the second hypothesis has
    # nothing left to split and the third repeats it.
    teacher = FixedAnswerTeacher(worked_teacher().target, (OPEN,), member=Answer.ONE)
    with pytest.raises(CounterexampleError, match="<<1."):
        run_nlstar(teacher, LearnConfig(max_rounds=20))
    assert teacher.equivalence_queries == 2


def test_hypothesis_hook_sees_ready_tables():
    # The callback receives the live table, so inspect it on the spot.
    calls = []

    def check(table, hypothesis):
        assert table.check_closed() is None
        assert table.check_consistent() is None
        assert am.state_count(hypothesis) == len(table.state_map())
        calls.append(am.state_count(hypothesis))

    run_nlstar(worked_teacher(), LearnConfig(on_hypothesis=check))
    assert calls == [2, 7]


def test_tables_stay_prefix_and_suffix_closed():
    def check(table, _):
        s_set = set(table.s_words)
        for s in table.s_words:
            for i in range(len(s)):
                assert s[:i] in s_set
        e_set = set(table.e_words)
        for e in table.e_words:
            for i in range(1, len(e) + 1):
                assert e[i:] in e_set

    run_nlstar(worked_teacher(), LearnConfig(on_hypothesis=check))


def test_learner_only_queries_legal_words():
    teacher = worked_teacher()
    _, stats = run_nlstar(teacher)
    # Legal at the learner's own final bound, not only at the target's.
    alphabet = Alphabet(teacher.sigma, stats.n)
    words = [word for kind, word, _ in teacher.log if kind == "member"]
    assert len(words) == stats.membership_queries
    assert all(is_legal(word, alphabet) for word in words)


def full_refill(table, teacher, labels=None):
    """Drop every stored row and refill every label; the answer memo stays."""
    table._states = None
    table._rows = {}
    for label in table.labels():
        if not is_legal(label, table.alphabet):
            table._rows[label] = None
            continue
        values = []
        for suffix in table.e_words:
            word = concat(label, suffix, table.alphabet)
            if word is None:
                values.append(Answer.BOTTOM)
                continue
            if word not in table._answers:
                table._answers[word] = teacher.membership(word)
            values.append(table._answers[word])
        table._rows[label] = (tuple(values), reg(label))


def test_fills_ask_the_queries_of_a_full_refill(monkeypatch):
    targets = [worked_teacher().target]
    targets += [am.determinize(am.compile(cne, AB)) for cne in corpus_targets(31, 40)]

    def runs():
        out = []
        for target in targets:
            for strategy in Strategy:
                teacher = Teacher(target, strategy)
                learned, stats = run_nlstar(teacher)
                log = [(kind, am.to_json(query) if kind == "equiv" else query, answer)
                       for kind, query, answer in teacher.log]
                out.append((am.to_json(learned), stats, log))
        return out

    stored = runs()
    monkeypatch.setattr(ObservationTable, "fill", full_refill)
    assert runs() == stored


nominal = st.integers(0, 10**9).map(
    lambda seed: random_nominal(random.Random(seed), size=6)
)


@given(nominal)
@settings(deadline=None, max_examples=15)
def test_random_targets_learned_correctly(node):
    cne = canonicalize(node)
    teacher = Teacher(am.determinize(am.compile(cne, AB)))
    learned, stats = run_nlstar(teacher, LearnConfig(max_rounds=50))
    assert am.equivalence(learned, teacher.target) is None
    assert brute_equivalence(learned, cne, EnumBound(6, theta(cne) + 1)) is None
    assert stats.n <= theta(cne)


def test_scaled_targets_learned_correctly_by_the_brute_force_check():
    # Differential test: six letters, theta <= 3 and 25 to 35 AST nodes,
    # each learned machine checked against the denotation alone.
    letters = tuple("abcdef")
    checked = 0
    for cne in draws(1, max_theta=3, letters=letters, sizes=(25, 35)):
        target = am.determinize(am.compile(cne, letters))
        if am.state_count(target) < 2:
            continue
        learned, _ = run_nlstar(Teacher(target))
        assert brute_equivalence(learned, cne, EnumBound(8, theta(cne))) is None
        checked += 1
        if checked == 10:
            break
