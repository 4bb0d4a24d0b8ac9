"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``criterion N ...: PASS/FAIL`` line (run with
``pytest -s`` to see them live) and asserts the criterion at its stated
tolerance.  Expensive artefacts (the random corpus and its learning
runs) are built once per module.
"""

import json
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from nlstar import automaton as am
from nlstar.automaton import Strategy
from nlstar.learner import LearnConfig, run_nlstar
from nlstar.oracle import EnumBound, brute_equivalence, brute_membership, enumerate_legal
from nlstar.regex import canonicalize, parse_regex, theta
from nlstar.teacher import Answer, Teacher
from nlstar.words import CLOSE, OPEN, concat, is_legal, parse_word, reg

from .corpus import ACCEPTANCE_SEED, CHILD_ENV, SIGMA, corpus_targets

AB = frozenset(SIGMA)
BINDER_FREE_SEED = 97
WORKED_TEXT = "ab<n.n*>"
INTRO_TEXT = "<n. <m.m>* n <k.k*> n>"


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({description}): FAIL")
        raise
    print(f"criterion {number} ({description}): PASS")


def table_agreement_violations(table, hypothesis, teacher):
    """Count mismatches between the table and its hypothesis machine:
    the run of every row label must land on that row's state, and
    acceptance of label+suffix must equal the cell being ONE.  Every
    stored row must also equal the row recomputed with
    is_legal/concat and the teacher's logged answers."""
    violations = 0
    answers = {word: answer for kind, word, answer in teacher.log if kind == "member"}
    delta = {(src, label): dst for src, label, dst in hypothesis.transitions}
    for label in table.labels():
        if not is_legal(label, table.alphabet):
            violations += table.row(label) is not None
            continue
        state = hypothesis.initial
        for tok in label:
            state = delta.get((state, tok))
            if state is None:
                break
        if state != table.state_of(label):
            violations += 1
        rebuilt = []
        for suffix in table.e_words:
            word = concat(label, suffix, table.alphabet)
            rebuilt.append(Answer.BOTTOM if word is None else answers[word])
            if word is None:
                continue
            accepted = am.accepts(hypothesis, word)
            if accepted != (table.cell(label, suffix) is Answer.ONE):
                violations += 1
        violations += table.row(label) != (tuple(rebuilt), reg(label))
    return violations


def learn_with_audit(target_machine, strategy=Strategy.SHORTEST):
    """Run the learner, folding the per-hypothesis table checks into the run."""
    teacher = Teacher(target_machine, strategy)
    audit = {"violations": 0, "hypotheses": 0}

    def on_hypothesis(table, hypothesis):
        audit["violations"] += table_agreement_violations(table, hypothesis, teacher)
        audit["hypotheses"] += 1

    learned, stats = run_nlstar(
        teacher, LearnConfig(max_rounds=200, on_hypothesis=on_hypothesis)
    )
    return teacher, learned, stats, audit


@pytest.fixture(scope="module")
def worked_run():
    cne = canonicalize(parse_regex(WORKED_TEXT, AB))
    compiled = am.compile(cne, AB)
    teacher, learned, stats, audit = learn_with_audit(am.determinize(compiled))
    return {"cne": cne, "compiled": compiled, "teacher": teacher,
            "learned": learned, "stats": stats, "audit": audit}


@pytest.fixture(scope="module")
def intro_run():
    started = time.monotonic()
    cne = canonicalize(parse_regex(INTRO_TEXT, frozenset()))
    compiled = am.compile(cne)
    oracle_witness = brute_equivalence(compiled, cne, EnumBound(10, 2))
    teacher, learned, stats, audit = learn_with_audit(am.determinize(compiled))
    return {"cne": cne, "compiled": compiled, "teacher": teacher, "learned": learned,
            "stats": stats, "audit": audit, "oracle_witness": oracle_witness,
            "elapsed": time.monotonic() - started}


@pytest.fixture(scope="module")
def corpus_runs():
    runs = []
    for cne in corpus_targets(seed=ACCEPTANCE_SEED, count=20):
        compiled = am.compile(cne, AB)
        target_machine = am.determinize(compiled)
        minimal_states = am.state_count(am.minimize(target_machine))
        teacher, learned, stats, audit = learn_with_audit(target_machine)
        runs.append(
            {"cne": cne, "compiled": compiled, "minimal_states": minimal_states,
             "teacher": teacher, "learned": learned, "stats": stats, "audit": audit}
        )
    return runs


def test_criterion_1_worked_example_golden_run():
    with criterion(1, "worked-example golden run"):
        started = time.monotonic()
        cne = canonicalize(parse_regex(WORKED_TEXT, AB))
        compiled = am.compile(cne, AB)
        teacher = Teacher(am.determinize(compiled), Strategy.SHORTEST)

        from nlstar.learner import init_table

        table = init_table(teacher)
        assert table.cell((), ()) is Answer.P
        assert table.cell(("a",), ()) is Answer.P
        assert table.cell(("b",), ()) is Answer.ZERO
        assert table.e_words == [()]
        assert table.s_words == [()]

        first_hypotheses = []
        learned, stats = run_nlstar(
            Teacher(am.determinize(compiled), Strategy.SHORTEST),
            LearnConfig(on_hypothesis=lambda t, h: first_hypotheses.append(am.state_count(h))),
        )
        assert first_hypotheses[0] == 2
        assert stats.rounds[0].hypothesis_states == 2
        assert stats.rounds[0].answer == "a b <<1. >>"  # ab << >>
        assert parse_word(stats.rounds[0].answer) == ("a", "b", OPEN, CLOSE)

        assert am.state_count(learned) == 7
        assert am.equivalence(learned, compiled) is None

        assert time.monotonic() - started < 5.0


def test_criterion_2_intro_example_round_trip(intro_run):
    with criterion(2, "intro-example round trip"):
        assert intro_run["oracle_witness"] is None  # len <= 10, depth <= 2 sweep
        assert am.equivalence(intro_run["learned"], intro_run["compiled"]) is None
        assert intro_run["elapsed"] < 60.0


def test_criterion_3_table_agreement_property(worked_run, intro_run, corpus_runs):
    with criterion(3, "hypothesis/table agreement on every round"):
        total_hypotheses = 0
        total_violations = 0
        for run in [worked_run, intro_run] + corpus_runs:
            total_hypotheses += run["audit"]["hypotheses"]
            total_violations += run["audit"]["violations"]
        assert total_hypotheses >= 22  # every run contributes at least one
        assert total_violations == 0


def test_criterion_4_complexity_bounds(corpus_runs):
    with criterion(4, "query and table-size bounds"):
        k = len(AB)
        for run in corpus_runs:
            s = run["minimal_states"]
            stats = run["stats"]
            b = stats.max_counterexample_len
            assert stats.s_size <= s + b * (s - 1)
            assert stats.e_size <= s
            assert stats.equivalence_queries <= s - 1
            assert stats.cells <= (k + stats.n + 2) * (s + b * (s - 1)) * s


def test_criterion_5_classical_degeneration():
    with criterion(5, "binder-free targets degenerate to classic learning"):
        for cne in corpus_targets(seed=BINDER_FREE_SEED, count=10, max_theta=0):
            target_machine = am.determinize(am.compile(cne, AB))
            minimal = am.minimize(target_machine)
            teacher, learned, stats, _ = learn_with_audit(target_machine)
            assert am.isomorphic(learned, minimal)
            assert stats.n == 0
            for kind, word, _ in teacher.log:
                if kind == "member":
                    assert all(
                        isinstance(tok, str) and tok not in (OPEN, CLOSE) for tok in word
                    )


def test_criterion_6_oracle_equivalence(corpus_runs):
    with criterion(6, "compiled machines match the brute-force oracle"):
        for run in corpus_runs:
            cne = run["cne"]
            assert brute_equivalence(run["compiled"], cne, EnumBound(8, theta(cne))) is None
        # exact equivalence verdicts agree with bounded brute comparison
        for left, right in zip(corpus_runs, corpus_runs[1:] + corpus_runs[:1]):
            m1, m2 = left["compiled"], right["compiled"]
            bound = EnumBound(6, max(m1.n, m2.n))
            witness = am.equivalence(m1, m2)
            brute = brute_equivalence(m1, right["cne"], bound)
            if witness is None:
                assert brute is None
            else:
                accepted1 = is_legal(witness, m1.alphabet) and am.accepts(m1, witness)
                accepted2 = is_legal(witness, m2.alphabet) and am.accepts(m2, witness)
                assert accepted1 != accepted2
                if len(witness) <= bound.max_len:
                    assert brute is not None
                    assert len(brute) <= len(witness)


def test_criterion_7_determinism(tmp_path):
    with criterion(7, "byte-identical outputs for identical configs"):
        # Two hash seeds: no output may depend on set or dict hash order.
        def run(seed):
            log = tmp_path / f"{seed}.log"
            proc = subprocess.run(
                [sys.executable, "-m", "nlstar.cli", "learn",
                 "--target", WORKED_TEXT, "--log", str(log), "--oracle-len", "6"],
                capture_output=True, check=True, env={**CHILD_ENV, "PYTHONHASHSEED": seed},
            )
            return proc.stdout, proc.stderr, log.read_bytes()

        first = run("1")
        second = run("2")
        assert first == second
        machine = json.loads(first[0])
        assert len(machine["states"]) == 7
