"""Brute-force ground truth, kept independent of the automaton algorithms.

Membership here is decided by the bounded denotation of the expression
(pure recursion on syntax), so these checks can falsify the compiler,
the teacher and the learner.  A machine is read only through its own
``start``, ``step`` and ``finals``.  Words are walked one length at a
time, depth-first along ``words.Alphabet.moves``, on an explicit stack
whose entries carry a prefix's open count and machine state set: a word
costs one ``step`` from its prefix's set, not a scan from the start
(shorter words are walked again in each longer pass), and memory is
O(max_len) prefixes.  Desk scale only: lengths up to a dozen.
"""

from __future__ import annotations

from typing import NamedTuple

from . import automaton as am
from . import regex as rx
from .words import Alphabet, check_count


class EnumBound(NamedTuple("EnumBound", [("max_len", int), ("max_depth", int)])):
    """Enumeration limits: word length and binder depth, non-negative ints."""

    __slots__ = ()

    def __new__(cls, max_len, max_depth):
        return super().__new__(cls, check_count(max_len, "max_len"), check_count(max_depth, "max_depth"))

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` validates too
        return cls(*iterable)


def _walk(sigma, bound: EnumBound, start, step):
    """Each legal word within ``bound`` in ``enumerate_legal`` order, paired
    with ``start`` moved through the word by ``step(value, token)``."""
    # Last move first, so the stack pops them in token order.
    moves = [legal[::-1] for legal in Alphabet(sigma, bound.max_depth).moves]
    for length in range(bound.max_len + 1):
        stack = [((), 0, start)]
        while stack:
            word, count, value = stack.pop()
            if len(word) == length:
                yield word, value
            else:
                stack.extend((word + (tok,), after, step(value, tok)) for tok, after in moves[count])


def enumerate_legal(sigma, bound: EnumBound):
    """All legal words with length <= max_len and depth <= max_depth,
    shortest first and lexicographic in the fixed token order within a
    length.  Every prefix of an emitted word is emitted too."""
    return [word for word, _ in _walk(sigma, bound, None, lambda value, tok: None)]


def brute_membership(cne, word) -> bool:
    """Denotational membership: the word occurs in the length-bounded slice."""
    return tuple(word) in rx.denote_bounded(cne, len(word))


def brute_equivalence(m: am.NominalAutomaton, cne, bound: EnumBound):
    """First word of ``enumerate_legal`` order where machine and denotation
    disagree, or None.

    The walk starts from ``m.start``, carries each prefix's eps-closed
    state set and moves it with one ``m.step`` per word; a word is
    accepted when its set meets ``m.finals``.  Words outside the
    machine's alphabet (deeper nesting, foreign letters) have no edges,
    so they reach the empty set and count as rejected.
    """
    denoted = rx.denote_bounded(cne, bound.max_len)
    for word, states in _walk(m.sigma | rx.letters_of(cne), bound, m.start, m.step):
        if bool(states & m.finals) != (word in denoted):
            return word
    return None
