"""Brute-force ground truth, kept independent of the automaton algorithms.

Membership here is decided by the bounded denotation of the expression
(pure recursion on syntax), so these checks can falsify the compiler,
the teacher and the learner.  A machine is read only through its own
``start``, ``step``, ``finals`` and raw ``transitions``.  Words are
walked one length at a time, depth-first along ``words.Alphabet.moves``,
on an explicit stack whose entries carry a prefix's open count and
machine state set: a word costs one ``step`` from its prefix's set (shorter
words are walked again in each longer pass), and memory is O(max_len)
prefixes.  ``brute_equivalence`` extends no prefix that can no longer
show a mismatch.  Desk scale only: lengths up to a dozen.
"""

from __future__ import annotations

from typing import NamedTuple

from . import automaton as am
from . import regex as rx
from .words import IllegalWordError, check_count, shared_alphabet


class EnumBound(NamedTuple("EnumBound", [("max_len", int), ("max_depth", int)])):
    """Enumeration limits: word length and binder depth, non-negative ints."""

    __slots__ = ()

    def __new__(cls, max_len, max_depth):
        return super().__new__(cls, check_count(max_len, "max_len"), check_count(max_depth, "max_depth"))

    @classmethod
    def _make(cls, iterable):  # so ``_replace`` validates too
        return cls(*iterable)


def _check_bound(bound):
    if not isinstance(bound, EnumBound):
        raise ValueError(f"bound must be an EnumBound, got {bound!r}")


def _walk(sigma, bound: EnumBound, start, step, keep=None):
    """Each legal word within ``bound`` in ``enumerate_legal`` order, paired
    with ``start`` moved by ``step(value, token)``; no shorter word for which
    ``keep(word, value)`` is false is extended."""
    # Last move first, so the stack pops them in token order.
    moves = [[*legal.items()][::-1] for legal in shared_alphabet(sigma, bound.max_depth).moves]
    for length in range(bound.max_len + 1):
        stack = [((), 0, start)]
        while stack:
            word, count, value = stack.pop()
            if len(word) == length:
                yield word, value
            elif keep is None or keep(word, value):
                stack.extend((word + (tok,), after, step(value, tok)) for tok, after in moves[count])


def enumerate_legal(sigma, bound: EnumBound):
    """All legal words with length <= max_len and depth <= max_depth,
    shortest first and lexicographic in the fixed token order within a
    length.  Every prefix of an emitted word is emitted too."""
    _check_bound(bound)
    return [word for word, _ in _walk(sigma, bound, None, lambda value, tok: None)]


def brute_membership(cne, word) -> bool:
    """Denotational membership: the word occurs in the length-bounded slice.
    A string is not a word, and raises ``IllegalWordError``."""
    if isinstance(word, str):
        raise IllegalWordError(f"a string is not a word: {word!r}")
    return tuple(word) in rx.denote_bounded(cne, len(word))


def brute_equivalence(m: am.NominalAutomaton, cne, bound: EnumBound):
    """First word of ``enumerate_legal`` order where machine and denotation
    disagree, or None.

    The walk starts from ``m.start``, carries each prefix's eps-closed
    state set and moves it with one ``m.step`` per word; a word is
    accepted when its set meets ``m.finals``.  Words outside the
    machine's alphabet (deeper nesting, foreign letters) have no edges,
    so they reach the empty set and count as rejected.

    A prefix is not extended when it begins no denoted word and none of
    its states is live, i.e. reaches a final state along ``m.transitions``
    (eps edges too; ignoring legality only over-approximates): both sides
    reject all its extensions.  Only non-mismatches are skipped and the
    order is kept, so the first mismatch is the one the full walk finds.
    """
    _check_bound(bound)
    denoted = rx.denote_bounded(cne, bound.max_len)
    heads = {word[:i] for word in denoted for i in range(len(word) + 1)}
    sources, live, todo = {}, set(m.finals), list(m.finals)  # backward search from the finals
    for src, _, dst in m.transitions:
        sources.setdefault(dst, set()).add(src)
    while todo:
        fresh = sources.get(todo.pop(), set()) - live
        live |= fresh
        todo.extend(fresh)
    keep = lambda word, states: word in heads or not live.isdisjoint(states)
    for word, states in _walk(m.sigma | rx.letters_of(cne), bound, m.start, m.step, keep):
        if bool(states & m.finals) != (word in denoted):
            return word
    return None
