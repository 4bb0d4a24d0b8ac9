"""Brute-force ground truth, kept independent of the automaton algorithms.

Membership here is decided by the bounded denotation of the expression
(pure recursion on syntax), so these checks can falsify the compiler,
the teacher and the learner.  A machine is read only through its own
``start``, ``row``, ``finals`` and raw ``transitions``.  Words are
walked in one depth-first pass in prefix order, along
``words.Alphabet.moves``, on an explicit stack whose entries carry a
prefix's open count and machine state set: a prefix that is extended
costs one ``row`` of its set, which gives the sets of all its one-token
extensions, and each prefix is extended at most once.  The stack holds
O(max_len * tokens) entries.  ``brute_equivalence`` extends no prefix
that can no longer show a mismatch, nor one whose extensions are no
shorter than a mismatch it has found.  Desk scale only: lengths up to a
dozen.
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


_NOWHERE = frozenset()


def _walk(sigma, bound: EnumBound, start, row, keep=None):
    """Each legal word within ``bound``, paired with ``start`` moved token
    by token: a word's value is the one its prefix's ``row(value)`` maps
    its last token to, or the empty set if it maps it to none.  Words are
    extended in prefix order, and a word's one-token extensions are
    yielded in token order as soon as it is extended, so the words of
    one length come in lexicographic order.  A word shorter than
    ``max_len`` is extended unless ``keep(word, value)`` is false when its
    turn comes, after every word yielded before it has been consumed."""
    # No word nests deeper than it is long, so the table stops at max_len.
    table = shared_alphabet(sigma, min(bound.max_depth, bound.max_len)).moves
    moves = [[*legal.items()] for legal in table]
    yield (), start
    stack = [((), 0, start)]
    while stack:
        word, count, value = stack.pop()
        if len(word) < bound.max_len and (keep is None or keep(word, value)):
            successors = row(value)
            extensions = [(word + (tok,), after, successors.get(tok, _NOWHERE)) for tok, after in moves[count]]
            for longer, _, reached in extensions:
                yield longer, reached
            stack.extend(reversed(extensions))  # popped in token order


def enumerate_legal(sigma, bound: EnumBound):
    """All legal words with length <= max_len and depth <= max_depth,
    shortest first and lexicographic in the fixed token order within a
    length.  Every prefix of an emitted word is emitted too."""
    _check_bound(bound)
    words = [word for word, _ in _walk(sigma, bound, None, lambda value: {})]
    return sorted(words, key=len)  # stable: each length stays in walk order


def brute_membership(cne, word) -> bool:
    """Denotational membership: the word occurs in the length-bounded slice.
    A string is not a word, and raises ``IllegalWordError``."""
    if isinstance(word, str):
        raise IllegalWordError(f"a string is not a word: {word!r}")
    return tuple(word) in rx.denote_bounded(cne, len(word))


def brute_equivalence(m: am.NominalAutomaton, cne, bound: EnumBound):
    """First word of ``enumerate_legal`` order where machine and denotation
    disagree, or None.

    The walk starts from ``m.start`` and carries each prefix's eps-closed
    state set; it reads one ``m.row`` per extended prefix, and each of
    the prefix's one-token extensions takes its set from that row.  A
    word is accepted when its set meets ``m.finals``.  Words outside the
    machine's alphabet (deeper nesting, foreign letters) have no edges,
    so they reach the empty set and count as rejected.

    A prefix is not extended when it begins no denoted word and none of
    its states is live, i.e. reaches a final state along ``m.transitions``
    (eps edges too; ignoring legality only over-approximates): both sides
    reject all its extensions.  Only non-mismatches are skipped there.
    The walk brings the words of one length in lexicographic order, so
    the first mismatch of a length is the least.  Once one is found, no
    word of its length or longer is checked and no prefix that long is
    extended, so the mismatch kept at the end is the first in
    ``enumerate_legal`` order.  A mismatch is seen when its prefix is
    extended, not when its own turn comes.  The pass reads at most one
    row per kept prefix, mismatch or not, but a mismatch late in token
    order is seen only after the live prefixes before its own prefix
    are walked to ``max_len``.
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
    witness, cut = None, bound.max_len + 1  # cut: the length of the witness so far
    keep = lambda word, states: len(word) + 1 < cut and (word in heads or not live.isdisjoint(states))
    for word, states in _walk(m.sigma | rx.letters_of(cne), bound, m.start, m.row, keep):
        if len(word) < cut and bool(states & m.finals) != (word in denoted):
            witness, cut = word, len(word)
    return witness
