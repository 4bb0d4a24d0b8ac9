"""The oracle side of the learning loop.

A teacher wraps a deterministic target machine and answers two kinds of
queries: membership (three-valued: in the language / a strict prefix of
a member / neither) and equivalence (yes, or a counterexample picked by
the configured strategy).  Every query is counted and logged.
"""

from __future__ import annotations

from enum import Enum

from . import automaton as am
from . import regex as rx
from .words import Alphabet, IllegalWordError, is_legal, serialize_word


class Answer(Enum):
    """Membership answers plus the learner-side marker for illegal cells."""

    ONE = "1"
    P = "P"
    ZERO = "0"
    BOTTOM = "bottom"

    @property
    def short(self) -> str:
        return "⊥" if self is Answer.BOTTOM else self.value


class Teacher:
    def __init__(self, target: am.NominalAutomaton, strategy=am.Strategy.SHORTEST):
        if target.has_eps or not target.deterministic:
            raise am.NondeterministicInputError("teacher needs a deterministic target")
        self.target = target
        self.strategy = strategy
        self.membership_queries = 0
        self.equivalence_queries = 0
        self.log = []
        self._alphabet = Alphabet(target.sigma, target.n)
        self._delta = {(src, label): dst for src, label, dst in target.transitions}
        self._live = self._co_reachable()

    @classmethod
    def from_regex(cls, text: str, sigma, strategy=am.Strategy.SHORTEST) -> "Teacher":
        """Build a teacher for the language of a closed expression."""
        cne = rx.canonicalize(rx.parse_regex(text, sigma))
        return cls(am.determinize(am.compile(cne, sigma)), strategy)

    def _co_reachable(self):
        incoming = {}
        for src, _, dst in self.target.transitions:
            incoming.setdefault(dst, set()).add(src)
        live = set(self.target.finals)
        stack = list(self.target.finals)
        while stack:
            q = stack.pop()
            for p in incoming.get(q, ()):
                if p not in live:
                    live.add(p)
                    stack.append(p)
        return live

    @property
    def sigma(self):
        return self.target.sigma

    @property
    def theta_bound(self) -> int:
        return self.target.n

    def membership(self, word) -> Answer:
        """ONE if the word is in the language, P if it extends to a member,
        ZERO otherwise.  ONE wins when both hold.  Illegal words are a
        learner bug: the learner must mark those cells itself."""
        if not is_legal(word, self._alphabet):
            raise IllegalWordError(
                f"membership query for illegal word {serialize_word(word)!r}"
            )
        state = self.target.initial
        for tok in word:
            state = self._delta.get((state, tok))
            if state is None:
                break
        if state in self.target.finals:
            answer = Answer.ONE
        elif state is not None and state in self._live:
            answer = Answer.P
        else:
            answer = Answer.ZERO
        self.membership_queries += 1
        self.log.append(
            {
                "kind": "member",
                "input": serialize_word(word),
                "answer": answer.value,
                "index": len(self.log) + 1,
            }
        )
        return answer

    def equivalence(self, hypothesis: am.NominalAutomaton):
        """None for yes; otherwise a word the two machines disagree on."""
        if hypothesis.sigma != self.target.sigma:
            raise am.AlphabetMismatchError(
                f"hypothesis letters {sorted(hypothesis.sigma)} "
                f"differ from target letters {sorted(self.target.sigma)}"
            )
        counterexample = am.equivalence(self.target, hypothesis, self.strategy)
        self.equivalence_queries += 1
        self.log.append(
            {
                "kind": "equiv",
                "input": am.to_document(hypothesis),
                "answer": "yes" if counterexample is None else serialize_word(counterexample),
                "index": len(self.log) + 1,
            }
        )
        return counterexample
