"""The oracle side of the learning loop.

A teacher wraps a deterministic target machine and answers two kinds of
queries: membership (three-valued: in the language / a strict prefix of
a member / neither) and equivalence (yes, or a counterexample picked by
the configured strategy).  Every query is counted and logged as data, a
``(kind, query, answer)`` triple: ``("member", word, Answer)`` or
``("equiv", hypothesis, counterexample or None)``.
"""

from __future__ import annotations

from enum import Enum

from . import automaton as am
from . import regex as rx
from .words import IllegalWordError, is_legal, serialize_word


class Answer(Enum):
    """Membership answers plus the learner-side marker for illegal cells."""

    ONE = "1"
    P = "P"
    ZERO = "0"
    BOTTOM = "bottom"

    # The members are singletons; Enum.__hash__ hashes the name in Python.
    __hash__ = object.__hash__


class Teacher:
    def __init__(self, target: am.NominalAutomaton, strategy=am.Strategy.SHORTEST):
        self.strategy = am.check_strategy(strategy)
        if not target.deterministic:
            raise am.NondeterministicInputError("teacher needs a deterministic target")
        self.target = target
        self.membership_queries = 0
        self.equivalence_queries = 0
        self.log = []
        incoming = {}
        for src, _, dst in target.transitions:
            incoming.setdefault(dst, []).append(src)
        # States from which a final state can be reached.
        self._live = am.reachable_from(target.finals, lambda q: incoming.get(q, ()))

    @classmethod
    def from_regex(cls, text: str, sigma, strategy=am.Strategy.SHORTEST) -> "Teacher":
        """Build a teacher for the language of a closed expression."""
        cne = rx.canonicalize(rx.parse_regex(text, sigma))
        return cls(am.determinize(am.compile(cne, sigma)), strategy)

    @property
    def sigma(self):
        return self.target.sigma

    def membership(self, word) -> Answer:
        """ONE if the word is in the language, P if it extends to a member,
        ZERO otherwise.  ONE wins when both hold.  Illegal words are a
        learner bug: the learner must mark those cells itself.

        The target only has edges that keep to the layer rules, so a word
        it reads to the end is legal; ``is_legal`` judges the rest.  A
        string is not a word: its characters would walk as letters."""
        if isinstance(word, str):
            raise IllegalWordError(f"membership query for a string, not a word: {word!r}")
        # A token costs one lookup: its state's row of target.delta.
        state, delta = self.target.initial, self.target.delta
        for tok in word:
            # Only str and non-bool int tokens walk: True == 1 and 1.0 == 1
            # would find register 1's edge.
            if type(tok) is not str and type(tok) is not int and (
                type(tok) is bool or not isinstance(tok, (str, int))
            ):
                state = None
                break
            state = delta[state].get(tok)
            if state is None:
                break
        if state is None and not is_legal(word, self.target.alphabet):
            raise IllegalWordError(f"membership query for illegal word {serialize_word(word)!r}")
        if state in self.target.finals:
            answer = Answer.ONE
        elif state is not None and state in self._live:
            answer = Answer.P
        else:
            answer = Answer.ZERO
        self.membership_queries += 1
        self.log.append(("member", word, answer))
        return answer

    def equivalence(self, hypothesis: am.NominalAutomaton):
        """None for yes; otherwise a word the two machines disagree on.
        Raises ``AlphabetMismatchError``, before counting, if the letters differ."""
        counterexample = am.equivalence(self.target, hypothesis, self.strategy)
        self.equivalence_queries += 1
        self.log.append(("equiv", hypothesis, counterexample))
        return counterexample
