"""Brute-force ground truth, kept independent of the automaton machinery.

Membership here is decided by the bounded denotation of the expression
(pure recursion on syntax), so these checks can falsify the compiler,
the teacher and the learner.  Desk scale only: lengths up to a dozen.
"""

from __future__ import annotations

from typing import NamedTuple

from . import automaton as am
from . import regex as rx
from .words import CLOSE, OPEN, check_count, is_legal, letter_set


class EnumBound(NamedTuple("EnumBound", [("max_len", int), ("max_depth", int)])):
    """Enumeration limits: word length and binder depth, non-negative ints."""

    __slots__ = ()

    def __new__(cls, max_len, max_depth):
        return super().__new__(cls, check_count(max_len, "max_len"), check_count(max_depth, "max_depth"))

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` validates too
        return cls(*iterable)


def enumerate_legal(sigma, bound: EnumBound):
    """All legal words with length <= max_len and depth <= max_depth,
    shortest first and lexicographic in the fixed token order within a
    length.  Every prefix of an emitted word is emitted too."""
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
    return out


def brute_membership(cne, word) -> bool:
    """Denotational membership: the word occurs in the length-bounded slice."""
    return tuple(word) in rx.denote_bounded(cne, len(word))


def brute_equivalence(m: am.NominalAutomaton, cne, bound: EnumBound):
    """First enumerated word where machine and denotation disagree, or None.

    Words outside the machine's alphabet (deeper nesting, foreign
    letters) count as rejected by the machine.
    """
    sigma = m.sigma | rx.letters_of(cne)
    denoted = rx.denote_bounded(cne, bound.max_len)
    for word in enumerate_legal(sigma, bound):
        accepted = is_legal(word, m.alphabet) and am.accepts(m, word)
        if accepted != (word in denoted):
            return word
    return None
