"""Words over a finite letter alphabet extended with binder tokens.

A word is a tuple of tokens.  Tokens are plain Python values:

* letters are lowercase identifiers (``"a"``, ``"req1"``, ...),
* register references are positive ints (``1`` refers to the outermost
  open binder, ``2`` to the next one, ...),
* ``OPEN`` allocates a fresh register and ``CLOSE`` deallocates the most
  recent one.

A word is *legal* when, scanning left to right with a counter of open
binders, the counter never goes negative and every register reference
``i`` satisfies ``i <= counter``.  Legal words may end with binders
still open; they are exactly the prefixes of fully bracketed words.

Because canonical words always name the k-th nested binder ``k``, the
level allocated by an ``OPEN`` is determined by its position; the token
itself carries no payload.  The serializer prints the level after
``<<`` purely as documentation (``<<1.``) and the parser accepts both
the bare and the decorated spelling.
"""

from __future__ import annotations

import re
from functools import cached_property
from types import MappingProxyType
from typing import NamedTuple

OPEN = "<<"
CLOSE = ">>"

Token = str | int
Word = tuple[Token, ...]

EPSILON: Word = ()

_LETTER = r"[a-z][a-z0-9]*"  # also the identifier token of expression text
_LETTER_RE = re.compile(_LETTER + r"\Z")


def is_letter(token) -> bool:
    """True iff ``token`` is a letter: a lowercase identifier."""
    return isinstance(token, str) and _LETTER_RE.match(token) is not None


class IllegalWordError(ValueError):
    """Raised when an operation requires a legal word and got an illegal one."""


class WordSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def letter_set(sigma) -> frozenset:
    """The letter set ``sigma``, a collection of letters (set, list, tuple,
    ...), as a frozenset; a string or any other value raises ``ValueError``."""
    if isinstance(sigma, str) or not hasattr(sigma, "__iter__"):
        raise ValueError(f"sigma must be a collection of letters, not {sigma!r}")
    sigma = tuple(sigma)
    for letter in sigma:  # before hashing, so an unhashable item is a ValueError too
        if not is_letter(letter):
            raise ValueError(f"sigma holds an invalid letter {letter!r}")
    return frozenset(sigma)


def check_count(value, name: str) -> int:
    """``value`` if it is a non-negative int, else a ``ValueError`` naming
    ``name``; ``type(value) is int`` rejects bools, which isinstance admits."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")
    return value


class Alphabet:
    """Token alphabet: letters plus, when ``n > 0``, binders and registers 1..n.

    ``tokens()`` is the one token order and ``moves`` the one grammar of
    legal words.  Immutable; equal and hashed by ``(sigma, n)``.
    """

    def __init__(self, sigma, n=0):
        object.__setattr__(self, "sigma", letter_set(sigma))
        object.__setattr__(self, "n", check_count(n, "register bound n"))

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.sigma, self.n) == (other.sigma, other.n)

    def __hash__(self):
        return hash((self.sigma, self.n))

    def __repr__(self):
        return f"Alphabet(sigma={self.sigma!r}, n={self.n!r})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copies rebuild ``moves``: a mappingproxy does not pickle
        return type(self), (self.sigma, self.n)

    def tokens(self) -> tuple:
        """All tokens in the fixed scan order: letters, registers, OPEN, CLOSE."""
        out = sorted(self.sigma)
        if self.n > 0:
            out += [*range(1, self.n + 1), OPEN, CLOSE]
        return tuple(out)

    @cached_property
    def moves(self) -> tuple:
        """``moves[count]`` maps each token ``Summary.fits`` allows after ``count``
        open binders, in token order, to the open count it leaves (read-only)."""
        scans = [(tok, summarize((tok,), self.sigma)) for tok in self.tokens()]
        return tuple(
            MappingProxyType({tok: count + scan.final for tok, scan in scans if scan.fits(self.n, count)})
            for count in range(self.n + 1)
        )


_SHARED = {}  # (sigma, n) -> the first Alphabet built for them; never evicted


def shared_alphabet(sigma, n) -> Alphabet:
    """The one shared ``Alphabet(sigma, n)``: callers with equal letters and
    bound get the same object and its move table.  Letters are validated
    only when the pair is new; a ``sigma`` that is not a frozenset, or a
    bound that is not an int, takes the validating path every time."""
    if type(sigma) is frozenset and type(n) is int:
        alphabet = _SHARED.get((sigma, n))
        if alphabet is not None:
            return alphabet
    alphabet = Alphabet(sigma, n)
    return _SHARED.setdefault((alphabet.sigma, alphabet.n), alphabet)


class Summary(NamedTuple):
    """One left-to-right scan of a word, with counts relative to the
    number of binders open when the word starts (its *entry count*)."""

    final: int  # open count at the end
    low: int  # lowest open count reached, at most 0
    peak: int  # highest open count reached, at least 0
    need: int  # least entry count every register reference needs, at least 0
    in_sigma: bool  # every letter is in sigma

    def fits(self, n: int, entry: int = 0) -> bool:
        """True iff the word is legal with depth at most ``n`` when it
        starts with ``entry`` binders open, as the tail of a legal word."""
        return (
            self.in_sigma
            and entry + self.low >= 0
            and entry >= self.need
            and entry + self.peak <= n
        )


def summarize(word, sigma=frozenset()) -> "Summary | None":
    """Summary of ``word`` against the letters ``sigma``, or None when the
    word is illegal in every context: it is a string (a word is a sequence
    of tokens, not of characters), a token is neither a string nor an int
    (a bool is neither), or a register reference is below 1.

    ``s + e`` is legal for depth ``n`` exactly when
    ``summarize(s).fits(n)`` and ``summarize(e).fits(n, summarize(s).final)``.
    """
    if isinstance(word, str):
        return None
    count = low = peak = need = 0
    in_sigma = True
    for tok in word:
        if tok == OPEN:
            count += 1
            if count > peak:
                peak = count
        elif tok == CLOSE:
            count -= 1
            if count < low:
                low = count
        elif isinstance(tok, str):
            if tok not in sigma:
                in_sigma = False
        elif isinstance(tok, int) and not isinstance(tok, bool):
            if tok < 1:
                return None
            if tok - count > need:
                need = tok - count
        else:
            return None
    return Summary(count, low, peak, need, in_sigma)


def is_legal(word, alphabet: Alphabet) -> bool:
    """True iff ``word`` is legal and fits the alphabet (letters and depth)."""
    summary = summarize(word, alphabet.sigma)
    return summary is not None and summary.fits(alphabet.n)


def _well_formed(word) -> Summary:
    """Summary of a word whose brackets and references are legal, at any depth."""
    if isinstance(word, str):  # serialize_word would show its characters as letters
        raise IllegalWordError(f"illegal word {word!r}: a string is not a word")
    summary = summarize(word)
    if summary is None or summary.low < 0 or summary.need > 0:
        raise IllegalWordError(f"illegal word: {serialize_word(word)!r}")
    return summary


def reg(word) -> int:
    """Number of binders still open at the end of a legal word."""
    return _well_formed(word).final


def depth(word) -> int:
    """Maximum binder nesting reached while scanning a legal word."""
    return _well_formed(word).peak


def concat(s, e, alphabet: Alphabet):
    """``s + e`` if the result is legal for ``alphabet``, else None.

    None is the table-cell marker for cells that can never be queried.
    A string is not a word, so a string part gives None too.
    """
    if isinstance(s, str) or isinstance(e, str):
        return None
    word = tuple(s) + tuple(e)
    if not is_legal(word, alphabet):
        return None
    return word


def prefixes(word) -> list:
    """All prefixes of ``word``, shortest first, including epsilon and ``word``."""
    word = tuple(word)
    return [word[:i] for i in range(len(word) + 1)]


def serialize_word(word) -> str:
    """Render a word in the whitespace-separated text form.

    OPEN tokens of legal words are decorated with the register level they
    allocate (``<<2.``); ill-bracketed tails fall back to the bare ``<<``.
    """
    parts = []
    count = 0
    for tok in word:
        if tok == OPEN:
            count += 1
            parts.append(f"<<{count}." if count > 0 else OPEN)
        elif tok == CLOSE:
            count -= 1
            parts.append(CLOSE)
        else:
            parts.append(str(tok))
    return " ".join(parts)


# One whole piece of word text: an open, bare or with its level ("<<1." or
# "<< 1 ."), a close, a number or a letter, each ending at (?!\S); else \S+.
_PIECE_RE = re.compile(rf"(?:(<<)(?:([0-9]{{1,9}})\.|\s+([0-9]{{1,9}})\s+\.)?|(>>)|([0-9]{{1,9}})|({_LETTER}))(?!\S)|\S+")


def parse_word(text: str) -> tuple:
    """Parse the whitespace-separated word grammar.

    letter ::= [a-z][a-z0-9]*, "<<" opens, ">>" closes, numbers of one
    to nine ASCII digits are register references.  An open may carry its
    level as documentation ("<<1." or "<< 1 ."); the stated level must
    match the actual nesting.  Legality is not enforced here: ">>" parses
    fine and is rejected later.
    """
    out = []
    count = 0
    for match in _PIECE_RE.finditer(text):
        opened, level, spaced_level, closed, number, letter = match.groups()
        if opened:
            count += 1
            level = int(level or spaced_level or count)  # a bare open states no level
            if level != count:
                raise WordSyntaxError(
                    f"binder decorated with level {level} but {count} binders are open", match.start()
                )
            out.append(OPEN)
        elif closed:
            count -= 1
            out.append(CLOSE)
        elif number:
            if int(number) < 1:
                raise WordSyntaxError("register references start at 1", match.start())
            out.append(int(number))
        elif letter:
            out.append(letter)
        else:
            raise WordSyntaxError(f"unrecognised token {match.group()!r}", match.start())
    return tuple(out)
