"""Regular expressions with name binders.

AST nodes are named tuples, built positionally or by field name
(``Sum(left, right)``), whose equality also compares the class.  Being
tuples, nodes have a length and iterate over their fields, and the
field-less ``Empty()`` and ``Epsilon()`` are falsy; no code takes a
node's truth value, its length or its items.  Expressions come in two
flavours sharing the same node types:

* *nominal* expressions use identifier names (``Binder("n", Name("n"))``),
* *canonical* expressions use integer register levels: the binder at
  nesting depth d carries level d and every reference under it is an int
  in 1..d.  ``canonicalize`` turns a closed nominal expression into its
  canonical form; alpha-equivalent inputs map to the same tree.

Text grammar (precedence: star > juxtaposition > '+')::

    expr ::= '0' | 'eps' | letter | name | expr '+' expr
           | expr expr | expr '*' | '<' name '.' expr '>' | '(' expr ')'

Identifiers follow the letter syntax of ``words``; adjacent letters may
be written without spaces when they split uniquely into declared letters
("ab" over sigma={a,b}).  Numbers are one to nine ASCII digits.  Brackets
nest at most ``MAX_NESTING`` levels deep, and ``_check_height`` holds
every tree, parsed or built in code, to the same height, so the recursive
walks fit Python's stack: ``parse_regex`` reports a tree too tall as a
``RegexSyntaxError``, every other public walk as ``TreeTooDeepError``.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache, reduce

from .words import _LETTER, CLOSE, OPEN, check_count, letter_set


class _Node:
    """Base of the AST node named tuples: a node equals only a node of the
    same class with equal fields, so ``Sum(a, b) != Concat(a, b)`` and the
    two stay apart as cache keys.  It hashes as its field tuple."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):  # tuple.__ne__ would not look at the class
        return not self == other

    __hash__ = tuple.__hash__


class Empty(_Node, namedtuple("Empty", "")):
    __slots__ = ()


class Epsilon(_Node, namedtuple("Epsilon", "")):
    __slots__ = ()


class Letter(_Node, namedtuple("Letter", "symbol")):
    __slots__ = ()


class Name(_Node, namedtuple("Name", "ident")):  # ident: str name or int level
    __slots__ = ()


class Sum(_Node, namedtuple("Sum", "left right")):
    __slots__ = ()


class Concat(_Node, namedtuple("Concat", "left right")):
    __slots__ = ()


class Star(_Node, namedtuple("Star", "body")):
    __slots__ = ()


class Binder(_Node, namedtuple("Binder", "name body")):  # name: str or int level
    __slots__ = ()


class RegexSyntaxError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class FreeNameError(ValueError):
    """Raised when a closed expression is required but free names occur."""


class NotCanonicalError(ValueError):
    """Raised when an operation requires a canonical expression."""


class TreeTooDeepError(ValueError):
    """Raised when a tree is taller than ``MAX_NESTING`` levels."""


# ---------------------------------------------------------------------------
# lexer / parser

MAX_NESTING = 100
# The last group takes any other character, so the matches tile the text.
_TOKEN_RE = re.compile(rf"(?P<space>\s+)|(?P<sym>[<>.+*()])|(?P<int>[0-9]+)|(?P<ident>{_LETTER})|(?P<other>.)")


def _lex(text: str):
    toks = []
    depth = 0
    for match in _TOKEN_RE.finditer(text):
        kind, value, at = match.lastgroup, match.group(), match.start()
        if kind == "space":
            continue
        if kind == "other":
            raise RegexSyntaxError(f"unexpected character {value!r}", at)
        if kind == "sym":
            depth += (value in "(<") - (value in ")>")
            if depth > MAX_NESTING:
                raise RegexSyntaxError(f"brackets nest deeper than {MAX_NESTING} levels", at)
        elif kind == "int":
            if len(value) > 9:
                raise RegexSyntaxError("numbers have at most nine digits", at)
            value = int(value)
        toks.append((kind, value, at))
    return toks


def _split_letters(run: str, sigma: frozenset):
    """Split an identifier run into declared letters, each the longest
    that leaves a splittable rest; None if impossible."""
    if run in sigma:
        return [run]
    cuts = {len(run): None}  # start of a splittable rest -> end of its first letter
    for i in range(len(run) - 1, -1, -1):
        ends = [i + len(x) for x in sigma if run.startswith(x, i) and i + len(x) in cuts]
        if ends:
            cuts[i] = max(ends)
    if 0 not in cuts:
        return None
    letters, i = [], 0
    while i < len(run):
        letters.append(run[i:cuts[i]])
        i = cuts[i]
    return letters


class _Parser:
    def __init__(self, toks, sigma):
        self.toks = toks  # ends in the marker (None, None, len(text)); no rule reads past it
        self.sigma = sigma
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, symbol):
        kind, value, at = self.take()
        if kind != "sym" or value != symbol:
            raise RegexSyntaxError(f"expected {symbol!r}", at)

    def parse(self):
        node = self.sum()
        kind, value, at = self.peek()
        if kind is not None:
            raise RegexSyntaxError(f"unexpected {value!r}", at)
        return node

    def sum(self):
        node = self.cat()
        while self.peek()[:2] == ("sym", "+"):
            self.take()
            node = Sum(node, self.cat())
        return node

    def cat(self):
        node = self.postfix()
        while self._starts_atom():
            node = Concat(node, self.postfix())
        return node

    def _starts_atom(self):
        kind, value, _ = self.peek()
        return kind in ("ident", "int") or (kind == "sym" and value in ("<", "("))

    def postfix(self):
        node = self.atom()
        while self.peek()[:2] == ("sym", "*"):
            self.take()
            node = Star(node)
        return node

    def atom(self):
        kind, value, at = self.take()
        if kind == "int":
            return Empty() if value == 0 else Name(value)
        if kind == "ident":
            if value == "eps":
                return Epsilon()
            split = _split_letters(value, self.sigma)
            if split is None:
                return Name(value)
            return reduce(Concat, map(Letter, split))
        if kind == "sym" and value == "(":
            node = self.sum()
            self.expect(")")
            return node
        if kind == "sym" and value == "<":
            hkind, head, hat = self.take()
            if hkind == "int":
                if head < 1:
                    raise RegexSyntaxError("binder levels start at 1", hat)
            elif hkind == "ident":
                if head in self.sigma:
                    raise RegexSyntaxError(f"binder name {head!r} collides with a letter", hat)
            else:
                raise RegexSyntaxError("expected a binder name", hat)
            self.expect(".")
            body = self.sum()
            self.expect(">")
            return Binder(head, body)
        raise RegexSyntaxError(f"unexpected {value!r}", at)


def parse_regex(text: str, sigma):
    """Parse ``text`` over the declared letter set ``sigma``.  The parser
    recurses only on brackets, which ``_lex`` caps; the finished tree goes
    through ``_check_height``, and a tree too tall is a ``RegexSyntaxError``
    at position 0."""
    node = _Parser([*_lex(text), (None, None, len(text))], letter_set(sigma)).parse()
    try:
        _check_height(node)
    except TreeTooDeepError as exc:
        raise RegexSyntaxError(str(exc), 0) from None
    return node


def infer_sigma(text: str) -> frozenset:
    """Guess the letter set of an expression text: binder-bound identifiers
    are names, every other identifier run splits into single-char letters."""
    toks = _lex(text)
    names = set()
    for i, (kind, value, _) in enumerate(toks):
        if kind == "sym" and value == "<" and i + 1 < len(toks):
            nkind, nvalue, _ = toks[i + 1]
            if nkind == "ident":
                names.add(nvalue)
    letters = set()
    for kind, value, at in toks:
        if kind != "ident" or value in names or value == "eps":
            continue
        for ch in value:
            if not ("a" <= ch <= "z"):
                raise RegexSyntaxError(
                    f"cannot infer single-char letters from {value!r}", at
                )
            letters.add(ch)
    clash = letters & names
    if clash:
        raise RegexSyntaxError(f"names {sorted(clash)} collide with inferred letters", 0)
    return frozenset(letters)


# ---------------------------------------------------------------------------
# structural queries

def free_names(node) -> frozenset:
    _check_height(node)

    def walk(node, bound):
        if isinstance(node, Name):
            return frozenset() if node.ident in bound else frozenset([node.ident])
        if isinstance(node, Binder):
            return walk(node.body, bound | {node.name})
        if isinstance(node, (Sum, Concat)):
            return walk(node.left, bound) | walk(node.right, bound)
        if isinstance(node, Star):
            return walk(node.body, bound)
        return frozenset()

    return walk(node, frozenset())


def is_closed(node) -> bool:
    return not free_names(node)


def _levels(node):
    """The tree's nodes level by level, without recursion; a subtree that
    several parents share appears once per level."""
    nodes = [node]
    while nodes:
        yield nodes
        below = {}
        for parent in nodes:
            if isinstance(parent, (Sum, Concat)):
                below[id(parent.left)] = parent.left
                below[id(parent.right)] = parent.right
            elif isinstance(parent, (Star, Binder)):
                below[id(parent.body)] = parent.body
        nodes = list(below.values())


def letters_of(node) -> frozenset:
    return frozenset(n.symbol for nodes in _levels(node) for n in nodes if isinstance(n, Letter))


def _check_height(node):
    """Raise ``TreeTooDeepError`` if the tree is taller than the recursive walks allow."""
    height = sum(1 for _ in _levels(node))
    if height > MAX_NESTING:
        raise TreeTooDeepError(f"expression tree height {height} is over the limit {MAX_NESTING}")


def canonicalize(node):
    """Rename bound names to their nesting levels (outermost binder = 1).

    The rewrite is capture-avoiding: shadowed names resolve to the
    innermost enclosing binder.  The tree shape is preserved node for
    node; only binder names and references change.  A tree deeper than
    ``MAX_NESTING`` levels raises ``TreeTooDeepError``.
    """
    missing = free_names(node)  # checks the height first
    if missing:
        raise FreeNameError(f"expression has free names: {sorted(map(str, missing))}")

    def walk(node, level, env):
        if isinstance(node, Name):
            return Name(env[node.ident])
        if isinstance(node, Binder):
            body = walk(node.body, level + 1, {**env, node.name: level + 1})
            return Binder(level + 1, body)
        if isinstance(node, Sum):
            return Sum(walk(node.left, level, env), walk(node.right, level, env))
        if isinstance(node, Concat):
            return Concat(walk(node.left, level, env), walk(node.right, level, env))
        if isinstance(node, Star):
            return Star(walk(node.body, level, env))
        return node

    return walk(node, 0, {})


def is_canonical(node) -> bool:
    """Whether binders carry their nesting levels and names are in range.
    A tree deeper than ``MAX_NESTING`` levels raises ``TreeTooDeepError``."""
    _check_height(node)

    def walk(node, level):
        if isinstance(node, Name):
            return isinstance(node.ident, int) and 1 <= node.ident <= level
        if isinstance(node, Binder):
            return node.name == level + 1 and walk(node.body, level + 1)
        if isinstance(node, (Sum, Concat)):
            return walk(node.left, level) and walk(node.right, level)
        if isinstance(node, Star):
            return walk(node.body, level)
        return True

    return walk(node, 0)


def theta(node) -> int:
    """Binder-nesting depth bound of an expression."""
    _check_height(node)

    def walk(node):
        if isinstance(node, (Sum, Concat)):
            return max(walk(node.left), walk(node.right))
        if isinstance(node, Star):
            return walk(node.body)
        if isinstance(node, Binder):
            return 1 + walk(node.body)
        return 0

    return walk(node)


def format_regex(node) -> str:
    """Render an expression; canonical trees print with integer names."""
    _check_height(node)

    def fmt(node, prec):
        if isinstance(node, Empty):
            return "0"
        if isinstance(node, Epsilon):
            return "eps"
        if isinstance(node, Letter):
            return node.symbol
        if isinstance(node, Name):
            return str(node.ident)
        if isinstance(node, Binder):
            return f"<{node.name}. {fmt(node.body, 0)}>"
        if isinstance(node, Star):
            return fmt(node.body, 3) + "*"
        if isinstance(node, Concat):
            text = f"{fmt(node.left, 1)} {fmt(node.right, 2)}"
            return f"({text})" if prec > 1 else text
        if isinstance(node, Sum):
            text = f"{fmt(node.left, 0)} + {fmt(node.right, 1)}"
            return f"({text})" if prec > 0 else text
        raise TypeError(f"not a regex node: {node!r}")

    return fmt(node, 0)


# ---------------------------------------------------------------------------
# bounded denotation

def denote_bounded(cne, max_len: int) -> frozenset:
    """Exactly the denoted words of token-length <= max_len, a non-negative int.

    Structural recursion that builds no word longer than the bound:
    ``Concat`` joins each left word u to the right words of length at most
    ``max_len - len(u)``, and ``Star`` builds its words of each exact length
    m as a non-empty body word followed by a star word of the length left.
    The cost is the number of such splits of the denoted words.  Binder
    bodies lose two tokens of budget for OPEN/CLOSE.
    """
    if not is_canonical(cne):
        raise NotCanonicalError(f"not canonical: {format_regex(cne)}")
    return _denote(cne, check_count(max_len, "max_len"))


@lru_cache(maxsize=65536)
def _denote(node, max_len):
    if max_len < 0 or isinstance(node, Empty):
        return frozenset()
    if isinstance(node, Epsilon):
        return frozenset([()])
    if isinstance(node, Letter):
        return frozenset([(node.symbol,)]) if max_len >= 1 else frozenset()
    if isinstance(node, Name):
        return frozenset([(node.ident,)]) if max_len >= 1 else frozenset()
    if isinstance(node, Sum):
        return _denote(node.left, max_len) | _denote(node.right, max_len)
    if isinstance(node, Concat):
        left = _denote(node.left, max_len)
        return frozenset(u + v for u in left for v in _denote(node.right, max_len - len(u)))
    if isinstance(node, Star):
        body = [u for u in _denote(node.body, max_len) if u]
        exact = [{()}]  # exact[m]: the star's words of length exactly m
        for m in range(1, max_len + 1):
            exact.append({u + v for u in body if len(u) <= m for v in exact[m - len(u)]})
        return frozenset().union(*exact)
    if isinstance(node, Binder):
        inner = _denote(node.body, max_len - 2)
        return frozenset((OPEN,) + w + (CLOSE,) for w in inner)
    raise TypeError(f"not a regex node: {node!r}")
