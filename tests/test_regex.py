import copy
import pickle
import time
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlstar import compile_regex
from nlstar.regex import (
    MAX_NESTING,
    Binder,
    Concat,
    Empty,
    Epsilon,
    FreeNameError,
    Letter,
    Name,
    NotCanonicalError,
    RegexSyntaxError,
    Star,
    Sum,
    TreeTooDeepError,
    _lex,
    canonicalize,
    denote_bounded,
    format_regex,
    free_names,
    infer_sigma,
    is_canonical,
    is_closed,
    parse_regex,
    theta,
)
from nlstar.words import CLOSE, OPEN, Alphabet, depth, is_legal, reg

from .corpus import ACCEPTANCE_SEED, draws, random_nominal
from .test_fuzz import REGEX_TEXT

AB = frozenset({"a", "b"})
E_HAT = "<n. <m.m>* n <k.k*> n>"

# (class, field values by name, repr of the node built from them)
NODES = [
    (Empty, {}, "Empty()"),
    (Epsilon, {}, "Epsilon()"),
    (Letter, {"symbol": "a"}, "Letter(symbol='a')"),
    (Name, {"ident": 1}, "Name(ident=1)"),
    (Sum, {"left": Letter("a"), "right": Epsilon()}, "Sum(left=Letter(symbol='a'), right=Epsilon())"),
    (Concat, {"left": Letter("a"), "right": Epsilon()}, "Concat(left=Letter(symbol='a'), right=Epsilon())"),
    (Star, {"body": Name(1)}, "Star(body=Name(ident=1))"),
    (Binder, {"name": 1, "body": Name(1)}, "Binder(name=1, body=Name(ident=1))"),
]


@pytest.mark.parametrize("cls, fields, text", NODES, ids=[cls.__name__ for cls, _, _ in NODES])
def test_node_is_an_immutable_value(cls, fields, text):
    node = cls(*fields.values())
    assert node == cls(**fields) and hash(node) == hash(cls(**fields))
    assert hash(node) == hash(tuple(fields.values()))
    assert [getattr(node, name) for name in fields] == list(fields.values())
    assert repr(node) == text
    # A node of another class with the same fields is a different node.
    for other, other_fields, _ in NODES:
        if other is not cls and len(other_fields) == len(fields):
            assert node != other(*fields.values())
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(node, name, None)
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


@pytest.mark.parametrize("cls, fields", [n[:2] for n in NODES], ids=[cls.__name__ for cls, _, _ in NODES])
def test_node_survives_copy_and_pickle(cls, fields):
    node = Binder(1, cls(*fields.values()))
    for twin in (copy.copy(node), copy.deepcopy(node), pickle.loads(pickle.dumps(node))):
        assert twin == node and type(twin.body) is cls


def test_node_classes_stay_apart():
    assert repr(parse_regex("ab<n.n*>", AB)) == (
        "Concat(left=Concat(left=Letter(symbol='a'), right=Letter(symbol='b')), "
        "right=Binder(name='n', body=Star(body=Name(ident='n'))))"
    )
    # denote_bounded memoises on nodes: equal fields must not share an entry.
    assert denote_bounded(Sum(Letter("a"), Epsilon()), 2) == {(), ("a",)}
    assert denote_bounded(Concat(Letter("a"), Epsilon()), 2) == {("a",)}


def test_parse_worked_target():
    node = parse_regex("a b <n. n*>", AB)
    assert node == Concat(
        Concat(Letter("a"), Letter("b")), Binder("n", Star(Name("n")))
    )


def test_parse_juxtaposed_letters_split():
    assert parse_regex("ab", AB) == Concat(Letter("a"), Letter("b"))


def test_parse_empty_literal():
    assert parse_regex("0", AB) == Empty()


def test_parse_intro_expression_is_closed():
    node = parse_regex(E_HAT, frozenset())
    assert is_closed(node)


def test_parse_precedence_star_concat_sum():
    node = parse_regex("a + b a*", AB)
    assert node == Sum(Letter("a"), Concat(Letter("b"), Star(Letter("a"))))


def test_parse_multichar_letters_longest_match():
    sigma = frozenset({"ab", "a", "b"})
    assert parse_regex("ab", sigma) == Letter("ab")
    assert parse_regex("a b", sigma) == Concat(Letter("a"), Letter("b"))
    assert parse_regex("aba", sigma) == Concat(Letter("ab"), Letter("a"))


def test_parse_errors_carry_position():
    with pytest.raises(RegexSyntaxError):
        parse_regex("a +", AB)
    with pytest.raises(RegexSyntaxError):
        parse_regex("<a. a>", AB)  # binder name collides with a letter
    with pytest.raises(RegexSyntaxError):
        parse_regex("a ^ b", AB)
    for text, message, position in [
        ("(a", r"expected '\)'", 2),
        ("<0. a>", "binder levels start at 1", 1),
        ("<+. a>", "expected a binder name", 1),
    ]:
        with pytest.raises(RegexSyntaxError, match=message) as raised:
            parse_regex(text, AB)
        assert raised.value.position == position


def reference_lex(text):
    """The lexer as hand-written character loops: whitespace, a symbol, a
    run of ASCII digits, or a run of lowercase letters and digits."""
    toks = []
    i = depth = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "<>.+*()":
            depth += (ch in "(<") - (ch in ")>")
            if depth > MAX_NESTING:
                raise RegexSyntaxError(f"brackets nest deeper than {MAX_NESTING} levels", i)
            toks.append(("sym", ch, i))
            i += 1
        elif "0" <= ch <= "9":
            j = i
            while j < len(text) and "0" <= text[j] <= "9":
                j += 1
            if j - i > 9:
                raise RegexSyntaxError("numbers have at most nine digits", i)
            toks.append(("int", int(text[i:j]), i))
            i = j
        elif "a" <= ch <= "z":
            j = i
            while j < len(text) and ("0" <= text[j] <= "9" or "a" <= text[j] <= "z"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
        else:
            raise RegexSyntaxError(f"unexpected character {ch!r}", i)
    return toks


def lexed(lex, text):
    try:
        return lex(text)
    except RegexSyntaxError as exc:
        return type(exc), str(exc), exc.position


@given(REGEX_TEXT)
@example("x0 eps\t\n a١ b² A é 1234567890")
@example("\x1c\x85\xa0\u2028\u3000a")  # str.isspace() holds for each
@example("\u200b")  # ZERO WIDTH SPACE: not whitespace
@example("(" * MAX_NESTING + "<" + ")")
def test_lex_matches_the_character_loop_reference(text):
    assert lexed(_lex, text) == lexed(reference_lex, text)


@pytest.mark.parametrize(
    "text_of_height",
    [
        lambda h: " + ".join(["a"] * h),
        lambda h: " ".join(["a"] * h),
        lambda h: "a" * h,
        lambda h: "a" + "*" * (h - 1),
        lambda h: "<n." * (h - 1) + "n" + ">" * (h - 1),
    ],
    ids=["sum-chain", "juxtaposed-atoms", "letter-run", "star-chain", "nested-binders"],
)
def test_parsed_trees_are_held_to_the_height_limit(text_of_height):
    parse_regex(text_of_height(MAX_NESTING), AB)
    with pytest.raises(RegexSyntaxError, match=str(MAX_NESTING)):
        parse_regex(text_of_height(MAX_NESTING + 1), AB)


def test_a_tall_tree_is_reported_after_the_syntax_errors():
    # The height is checked once, on the finished tree.
    with pytest.raises(RegexSyntaxError) as raised:
        parse_regex("a" * 101, AB)
    assert str(raised.value) == "expression tree height 101 is over the limit 100 (at position 0)"
    with pytest.raises(RegexSyntaxError) as raised:
        parse_regex("a" * 200 + " )", AB)
    assert str(raised.value) == "unexpected ')' (at position 201)"


def test_is_closed():
    assert not is_closed(Name("n"))
    assert is_closed(Binder("n", Name("n")))


def test_canonicalize_collapses_alpha_equivalent():
    left = canonicalize(parse_regex("<n. a n>", AB))
    right = canonicalize(parse_regex("<m. a m>", AB))
    assert left == right == Binder(1, Concat(Letter("a"), Name(1)))


def test_canonicalize_letters_only_fixpoint():
    node = parse_regex("aba", AB)
    assert canonicalize(node) == node


def test_canonicalize_nested_example():
    node = parse_regex("<n. a n <m. n b m>> <m. m>", AB)
    expected = Concat(
        Binder(
            1,
            Concat(
                Concat(Letter("a"), Name(1)),
                Binder(2, Concat(Concat(Name(1), Letter("b")), Name(2))),
            ),
        ),
        Binder(1, Name(1)),
    )
    assert canonicalize(node) == expected
    assert format_regex(canonicalize(node)) == "<1. a 1 <2. 1 b 2>> <1. 1>"


def test_canonicalize_shadowing_resolves_innermost():
    node = parse_regex("<n. <n. n>>", AB)
    assert canonicalize(node) == Binder(1, Binder(2, Name(2)))


def test_canonicalize_requires_closed():
    with pytest.raises(FreeNameError):
        canonicalize(Name("n"))


def chain(wrap, height):
    node = Letter("a")
    for _ in range(height - 1):
        node = wrap(node)
    return node


@pytest.mark.parametrize(
    "wrap",
    [lambda t: Concat(t, Letter("b")), lambda t: Binder("n", t), Star],
    ids=["concat", "binder", "star"],
)
def test_canonicalize_holds_trees_built_in_code_to_the_parser_limit(wrap):
    assert canonicalize(chain(wrap, MAX_NESTING)) is not None
    with pytest.raises(TreeTooDeepError, match=f"height 3000 is over the limit {MAX_NESTING}"):
        canonicalize(chain(wrap, 3000))


@pytest.mark.parametrize(
    "use",
    [
        lambda cne: compile_regex(cne, AB),
        lambda cne: denote_bounded(cne, 5),
        theta,
        format_regex,
        free_names,
        is_closed,
    ],
    ids=["compile", "denote_bounded", "theta", "format_regex", "free_names", "is_closed"],
)
def test_canonical_trees_built_in_code_are_held_to_the_parser_limit(use):
    # These skip canonicalize; each checks the height itself, or through
    # is_canonical, instead of running out of stack.
    fits, too_deep = (chain(lambda t: Concat(t, Letter("b")), h) for h in (MAX_NESTING, 3000))
    use(fits)
    with pytest.raises(TreeTooDeepError, match=f"height 3000 is over the limit {MAX_NESTING}"):
        use(too_deep)


def test_theta_examples():
    assert theta(Letter("a")) == 0
    assert theta(canonicalize(parse_regex("<n. a n>", AB))) == 1
    assert theta(canonicalize(parse_regex("<n. a n <m. n b m>> <m. m>", AB))) == 2


def test_theta_star_preserves():
    assert theta(canonicalize(parse_regex("<n. n>*", AB))) == 1


def test_denote_epsilon():
    assert denote_bounded(Epsilon(), 5) == {()}


def test_denote_worked_target_small_bounds():
    cne = canonicalize(parse_regex("ab<n.n*>", AB))
    assert denote_bounded(cne, 4) == {("a", "b", OPEN, CLOSE)}
    assert denote_bounded(cne, 6) == {
        ("a", "b", OPEN, CLOSE),
        ("a", "b", OPEN, 1, CLOSE),
        ("a", "b", OPEN, 1, 1, CLOSE),
    }


def test_denote_empty_star_is_epsilon():
    assert denote_bounded(canonicalize(Star(Empty())), 3) == {()}


@pytest.mark.parametrize("bad", ["3", None, 2.5, True, -1])
def test_denote_bounded_takes_a_non_negative_int_length(bad):
    with pytest.raises(ValueError, match="max_len"):
        denote_bounded(Epsilon(), bad)


def test_denote_requires_canonical():
    with pytest.raises(NotCanonicalError):
        denote_bounded(Binder("n", Name("n")), 3)


def reference_denote(node, max_len):
    """The bounded denotation that builds every pair and drops the long
    words after: ``Concat`` joins each left word to each right word, and
    ``Star`` iterates concatenation to a fixpoint."""
    if max_len < 0 or isinstance(node, Empty):
        return frozenset()
    if isinstance(node, Epsilon):
        return frozenset([()])
    if isinstance(node, Letter):
        return frozenset([(node.symbol,)]) if max_len >= 1 else frozenset()
    if isinstance(node, Name):
        return frozenset([(node.ident,)]) if max_len >= 1 else frozenset()
    if isinstance(node, Sum):
        return reference_denote(node.left, max_len) | reference_denote(node.right, max_len)
    if isinstance(node, Concat):
        left = reference_denote(node.left, max_len)
        right = reference_denote(node.right, max_len)
        return frozenset(u + v for u in left for v in right if len(u) + len(v) <= max_len)
    if isinstance(node, Star):
        base = reference_denote(node.body, max_len)
        out = {()}
        frontier = {()}
        while frontier:
            new = set()
            for u in frontier:
                for v in base:
                    w = u + v
                    if len(w) <= max_len and w not in out:
                        out.add(w)
                        new.add(w)
            frontier = new
        return frozenset(out)
    inner = reference_denote(node.body, max_len - 2)
    return frozenset((OPEN,) + w + (CLOSE,) for w in inner)


@pytest.mark.parametrize(
    "seed, max_theta, sizes, max_len",
    [(ACCEPTANCE_SEED, 2, (3, 8), 8), (16, 3, (8, 20), 7)],
    ids=["acceptance-stream", "theta3-ast8-20"],
)
def test_denote_matches_the_pair_building_reference(seed, max_theta, sizes, max_len):
    for cne in islice(draws(seed, max_theta, sizes=sizes), 300):
        for length in range(max_len + 1):
            assert denote_bounded(cne, length) == reference_denote(cne, length), (format_regex(cne), length)


@pytest.mark.parametrize("text, max_len", [("((a+b)*)*", 12), ("(a+b+<n.(n+a)*>)*", 10)])
def test_denote_dense_star_is_quick(text, max_len):
    # Building every frontier-by-body pair before dropping the long ones
    # took 10 s and 3 s on these.
    cne = canonicalize(parse_regex(text, AB))
    started = time.monotonic()
    denote_bounded(cne, max_len)
    assert time.monotonic() - started < 1.0


def test_infer_sigma():
    assert infer_sigma("ab<n.n*>") == {"a", "b"}
    assert infer_sigma(E_HAT) == frozenset()
    with pytest.raises(RegexSyntaxError):
        infer_sigma("<n. n> n1")
    with pytest.raises(RegexSyntaxError, match="collide with inferred letters"):
        infer_sigma("<a. ab>")


nominal = st.integers(0, 10**9).map(
    lambda seed: random_nominal(__import__("random").Random(seed), size=8)
)


@given(nominal)
def test_canonicalize_preserves_shape(node):
    def shape(node):
        if isinstance(node, (Sum, Concat)):
            return (type(node).__name__, shape(node.left), shape(node.right))
        if isinstance(node, (Star,)):
            return ("Star", shape(node.body))
        if isinstance(node, Binder):
            return ("Binder", shape(node.body))
        return type(node).__name__

    assert shape(canonicalize(node)) == shape(node)


@given(nominal)
def test_canonicalize_idempotent_on_levels(node):
    cne = canonicalize(node)
    assert is_canonical(cne)
    assert canonicalize(cne) == cne  # levels re-read as names map to themselves


@given(nominal)
@settings(deadline=None)
def test_denoted_words_are_complete_and_bounded(node):
    cne = canonicalize(node)
    bound = theta(cne)
    for word in denote_bounded(cne, 6):
        assert is_legal(word, Alphabet(AB, bound))
        assert reg(word) == 0
        assert depth(word) <= bound


@given(nominal, st.integers(0, 5))
@settings(deadline=None)
def test_denote_monotone_in_bound(node, max_len):
    cne = canonicalize(node)
    smaller = denote_bounded(cne, max_len)
    larger = denote_bounded(cne, max_len + 2)
    assert smaller <= larger
    assert all(len(w) <= max_len for w in smaller)


@given(nominal)
def test_format_parse_roundtrip(node):
    cne = canonicalize(node)
    assert canonicalize(parse_regex(format_regex(cne), AB)) == cne
