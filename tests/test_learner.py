import hashlib
import itertools
import json
import random
import re
import time

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
from nlstar.words import CLOSE, OPEN, Alphabet, IllegalWordError, concat, is_legal, reg, serialize_word

from .corpus import ACCEPTANCE_SEED, corpus_targets, draws, random_nominal

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
    # ("a",) has the row of epsilon, so it is no closedness witness.
    with pytest.raises(ValueError, match="or has the row of one"):
        table.extend_close(("a",), teacher)
    # A label with no row, never filled or illegal, would be a state without one.
    with pytest.raises(ValueError, match="has no row"):
        table.extend_close(("b", "a"), teacher)
    with pytest.raises(ValueError, match="has no row"):
        table_at_t3(teacher).extend_close((CLOSE,), teacher)
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


@pytest.mark.parametrize(
    "config, message",
    [
        *[pytest.param(LearnConfig(max_rounds=bad), f"max_rounds must be a non-negative int, got {bad!r}", id=str(bad))
          for bad in (-1, True, 1.5, "3")],
        # A callback that cannot be called would fail only at the first hypothesis.
        pytest.param(LearnConfig(on_hypothesis=5), "on_hypothesis must be None or callable, got 5", id="callback-5"),
        pytest.param(
            LearnConfig(on_hypothesis="print"), "on_hypothesis must be None or callable, got 'print'", id="callback-str"
        ),
        pytest.param({"max_rounds": 3}, "config must be a LearnConfig, got {'max_rounds': 3}", id="dict"),
        pytest.param({}, "config must be a LearnConfig, got {}", id="empty-dict"),
        pytest.param((3, None), "config must be a LearnConfig, got (3, None)", id="tuple"),
    ],
)
def test_bad_round_cap_is_rejected_before_any_query(config, message):
    teacher = worked_teacher()
    with pytest.raises(ValueError, match=re.escape(message)):
        run_nlstar(teacher, config)
    assert teacher.membership_queries == 0


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


@pytest.mark.parametrize("counterexample, message", [
    ("ab", "illegal counterexample 'ab': a word is a tuple of tokens"),
    (["a", "b"], r"illegal counterexample \['a', 'b'\]: a word is a tuple of tokens"),
    (5, "illegal counterexample 5: a word is a tuple of tokens"),
    (("a", ["b"]), r"illegal counterexample: \"a \['b'\]\""),
])
def test_counterexample_that_is_no_word_is_a_typed_error(counterexample, message):
    teacher = FixedAnswerTeacher(worked_teacher().target, counterexample)
    with pytest.raises(IllegalWordError, match=f"^{message}$"):
        run_nlstar(teacher)
    assert teacher.equivalence_queries == 1


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


class reference_table(ObservationTable):
    """The table on tuple rows: each label's row is ``(values, count)``,
    legality comes from summarizing the label, and closedness,
    consistency and the hypothesis hash and compare those tuples.  The
    labels, the state map and ``extend_close`` work from the S list
    alone, without the table's index of S."""

    def _set_depth(self, n):
        super()._set_depth(n)
        self._rows = {}

    def labels(self):
        labels = dict.fromkeys(self.s_words)
        for s in self.s_words:
            labels.update(dict.fromkeys(s + (tok,) for tok in self._tokens))
        return list(labels)

    def fill(self, teacher, labels=None):
        self._states = None
        legal, rows, width = self._legal, self._rows, len(self.e_words)
        for suffix in self.e_words[len(legal[0]):]:
            tail = self._summary(suffix)
            for count, fits in enumerate(legal):
                fits.append(tail is not None and tail.fits(self.n, count))
        for label in self.labels() if labels is None else labels:
            row = rows.get(label, ())  # () for a label not seen yet
            if row is None or row and len(row[0]) == width:
                continue
            if row:
                values, count = list(row[0]), row[1]
            else:
                head = self._summary(label)
                if head is None or not head.fits(self.n):
                    rows[label] = None
                    continue
                values, count = [], head.final
            fits = legal[count]
            for j in range(len(values), width):
                if not fits[j]:
                    values.append(Answer.BOTTOM)
                    continue
                word = label + self.e_words[j]
                answer = self._answers.get(word)
                if answer is None:
                    answer = self._answers[word] = teacher.membership(word)
                values.append(answer)
            rows[label] = (tuple(values), count)

    def extend_close(self, witness, teacher):
        if witness in self.s_words:
            raise ValueError(f"{witness!r} is already a row label in S")
        self.s_words.append(witness)
        self.fill(teacher, [witness + (tok,) for tok in self._tokens])

    def row(self, label):
        return self._rows[label]

    def values(self, label):
        row = self._rows[label]
        return (Answer.BOTTOM,) * len(self.e_words) if row is None else row[0]

    def check_closed(self):
        rows, ids = self._rows, self.state_map()
        extensions = self.labels()[len(self.s_words):]
        return next((x for x in extensions if rows[x] is not None and rows[x] not in ids), None)

    def check_consistent(self):
        groups = {}
        for s in self.s_words:
            if self._rows[s] is not None:
                groups.setdefault(self._rows[s], []).append(s)
        clashes = [members for members in groups.values() if len(members) > 1]
        for tok in self._tokens:
            splits = []
            for members in clashes:
                base, *others = [self.values(s + (tok,)) for s in members]
                for cells in others:
                    if cells != base:
                        splits.append(next(i for i, x in enumerate(base) if x is not cells[i]))
            if splits:
                return (tok,) + self.e_words[min(splits)]
        return None

    def state_map(self):
        if self._states is None:
            self._states = {}
            for s in self.s_words:
                key = self._rows[s]
                if key is not None and key not in self._states:
                    self._states[key] = f"q{len(self._states)}"
        return self._states

    def state_of(self, label):
        key = self._rows[label]
        return None if key is None else self.state_map().get(key)

    def to_automaton(self):
        ids = self.state_map()
        layers = {state: register for (_, register), state in ids.items()}
        finals = [state for (values, register), state in ids.items()
                  if values[0] is Answer.ONE and register == 0]
        delta = {}
        for s in self.s_words:
            src = ids[self._rows[s]]
            for tok in self._tokens:
                succ = self._rows[s + (tok,)]
                if succ is None:
                    continue
                dst = ids.get(succ)
                if dst is None or delta.setdefault((src, tok), dst) != dst:
                    broken = "closed" if dst is None else "consistent"
                    raise NotClosedOrConsistentError(
                        f"table is not {broken} at {serialize_word(s + (tok,))!r}")
        transitions = [(src, tok, dst) for (src, tok), dst in delta.items()]
        initial = ids[self._rows[()]]
        return am.NominalAutomaton(self.sigma, self.n, layers, initial, finals, transitions)


def hypothesis_or_error(table):
    try:
        return am.to_json(table.to_automaton())
    except NotClosedOrConsistentError as exc:
        return str(exc)


def assert_tables_agree(table, reference):
    labels = table.labels()
    assert labels == reference.labels()
    assert [table.row(x) for x in labels] == [reference.row(x) for x in labels]
    assert [table.values(x) for x in labels] == [reference.values(x) for x in labels]
    assert table.check_closed() == reference.check_closed()
    assert table.check_consistent() == reference.check_consistent()
    # Every S word has a row, so each is a state of the index.
    assert None not in [table.state_of(s) for s in table.s_words]
    # The new table numbers row ids, not row tuples, and names the same states.
    assert all(type(row) is int for row in table.state_map())
    assert list(table.state_map().values()) == list(reference.state_map().values())
    assert [table.state_of(x) for x in labels] == [reference.state_of(x) for x in labels]
    assert hypothesis_or_error(table) == hypothesis_or_error(reference)


def learn_beside_the_reference(target, strategy=Strategy.SHORTEST):
    """Run ``run_nlstar``'s repair loop on a table and on the reference
    table, each with its own teacher, and compare them after every step."""
    teacher, reference_teacher = Teacher(target, strategy), Teacher(target, strategy)
    table, reference = ObservationTable(target.sigma), reference_table(target.sigma)
    table.fill(teacher)
    reference.fill(reference_teacher)
    assert_tables_agree(table, reference)
    while True:
        witness = table.check_closed()
        if witness is not None:
            table.extend_close(witness, teacher)
            reference.extend_close(witness, reference_teacher)
            assert_tables_agree(table, reference)
        column = table.check_consistent()
        if column is not None:
            table.extend_consistent(column, teacher)
            reference.extend_consistent(column, reference_teacher)
            assert_tables_agree(table, reference)
        if witness is None and column is None:
            counterexample = teacher.equivalence(table.to_automaton())
            if counterexample is None:
                break
            table.handle_counterexample(counterexample, teacher)
            reference.handle_counterexample(counterexample, reference_teacher)
            assert_tables_agree(table, reference)
    assert [entry for entry in teacher.log if entry[0] == "member"] == reference_teacher.log


def scaled_pool():
    """The learn-scaled bench pool: the first 10 six-letter theta <= 4
    draws of AST 25 to 35 whose determinized machine has 2 states or more."""
    letters = tuple("abcdef")
    machines = (am.determinize(am.compile(cne, letters)) for cne in draws(1, 4, letters, (25, 35)))
    return list(itertools.islice((m for m in machines if am.state_count(m) >= 2), 10))


def test_row_ids_agree_with_the_tuple_row_reference_on_the_acceptance_corpus():
    for cne in corpus_targets(ACCEPTANCE_SEED, 20):
        for strategy in Strategy:
            learn_beside_the_reference(am.determinize(am.compile(cne, AB)), strategy)


def test_row_ids_agree_with_the_tuple_row_reference_on_the_scaled_pool():
    for target in scaled_pool():
        learn_beside_the_reference(target)


def test_row_ids_agree_with_the_tuple_row_reference_on_long_closedness_runs():
    # The k-th letter from the end has 2^(k+1) states, nearly all of them
    # found by closedness repairs, so the cursor, the pairs and the state
    # numbering are checked after each of about 230 extend_close steps.
    targets = [("(a+b)*a" + "(a+b)" * k, AB) for k in range(1, 7)]
    targets.append(("<n. (a+n)* n (a+n)(a+n)(a+n)>", {"a"}))
    for text, sigma in targets:
        learn_beside_the_reference(Teacher.from_regex(text, sigma).target)


def test_long_repair_run_is_linear_in_the_table():
    # (a+b)* a (a+b)^10 has 2,048 states.  Rebuilding the state map and
    # the extension labels from all of S on every repair step took 5 to
    # 9 s on a 2-core machine; keeping them up to date takes about 0.2 s.
    teacher = Teacher.from_regex("(a+b)*a" + "(a+b)" * 10, AB)
    started = time.monotonic()
    learned, stats = run_nlstar(teacher)
    assert time.monotonic() - started < 2.0
    assert (am.state_count(learned), stats.membership_queries, stats.s_size) == (2048, 24587, 2048)


def full_refill(table, teacher, labels=None):
    """Drop every stored row and row id and refill every label; the answer
    memo stays.  A row's id is found by walking the hash-consing dict from
    the empty row of the label's count, one cell at a time, and the
    index of S is rebuilt from the new ids."""
    table._rows, table._child = {}, {}
    by_id = table._by_id = table._by_id[: table.n + 1]
    for label in table.labels():
        if not is_legal(label, table.alphabet):
            table._rows[label] = None
            continue
        row = reg(label)
        for suffix in table.e_words:
            word = concat(label, suffix, table.alphabet)
            if word is None:
                answer = Answer.BOTTOM
            else:
                if word not in table._answers:
                    table._answers[word] = teacher.membership(word)
                answer = table._answers[word]
            if (row, answer) not in table._child:
                table._child[row, answer] = len(by_id)
                by_id.append((by_id[row][0] + (answer,), reg(label)))
            row = table._child[row, answer]
        table._rows[label] = row
    table._index()


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


# One SHA-256 over every run of the acceptance pool under the three
# strategies, recorded before machines were walked through their edge maps.
POOL_DIGEST = "641e420017b97c255380babb43afe07604788f3c64550e179ce1a9c81ba482cd"


def run_record(teacher, learned, stats):
    """A learning run as JSON text: the learned machine, the ``RunStats``
    fields and the teacher's log, words serialized and hypotheses as JSON."""
    log = [
        [kind, serialize_word(query), answer.value] if kind == "member"
        else [kind, am.to_json(query), None if answer is None else serialize_word(answer)]
        for kind, query, answer in teacher.log
    ]
    return json.dumps([am.to_json(learned), stats._replace(rounds=[list(r) for r in stats.rounds]), log])


def test_acceptance_pool_runs_match_the_recorded_digest():
    # Query order, witnesses, hypotheses and statistics of 600 runs; CI
    # runs this under two hash seeds, so an order leaking from a set fails.
    digest = hashlib.sha256()
    for cne in corpus_targets(ACCEPTANCE_SEED, 200):
        target = am.determinize(am.compile(cne, AB))
        for strategy in Strategy:
            teacher = Teacher(target, strategy)
            learned, stats = run_nlstar(teacher)
            digest.update(run_record(teacher, learned, stats).encode())
    assert digest.hexdigest() == POOL_DIGEST


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
