import re
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlstar import automaton as am
from nlstar.learner import ObservationTable
from nlstar.oracle import EnumBound, brute_membership, enumerate_legal
from nlstar.regex import canonicalize, parse_regex
from nlstar.teacher import Answer, Teacher
from nlstar.words import (
    CLOSE,
    OPEN,
    MAX_REGISTERS,
    Alphabet,
    IllegalWordError,
    WordSyntaxError,
    concat,
    depth,
    is_legal,
    parse_word,
    prefixes,
    reg,
    serialize_word,
    shared_alphabet,
    summarize,
)

from .test_fuzz import WORD_TEXT

AB1 = Alphabet({"a", "b"}, 1)
AB2 = Alphabet({"a", "b"}, 2)


def test_alphabet_tokens_without_binders():
    assert Alphabet({"b", "a"}, 0).tokens() == ("a", "b")


def test_alphabet_tokens_with_binders():
    assert AB2.tokens() == ("a", "b", 1, 2, OPEN, CLOSE)


# Each move table written out by hand: moves[count] lists the tokens that
# may follow ``count`` open binders, in token order, with the count after.
@pytest.mark.parametrize(
    "sigma, n, moves",
    [
        ((), 0, [[]]),
        (("b", "a"), 0, [[("a", 0), ("b", 0)]]),
        ((), 1, [[(OPEN, 1)], [(1, 1), (CLOSE, 0)]]),
        (
            ("a",),
            2,
            [
                [("a", 0), (OPEN, 1)],
                [("a", 1), (1, 1), (OPEN, 2), (CLOSE, 0)],
                [("a", 2), (1, 2), (2, 2), (CLOSE, 1)],
            ],
        ),
        (
            ("b", "a", "c"),
            3,
            [
                [("a", 0), ("b", 0), ("c", 0), (OPEN, 1)],
                [("a", 1), ("b", 1), ("c", 1), (1, 1), (OPEN, 2), (CLOSE, 0)],
                [("a", 2), ("b", 2), ("c", 2), (1, 2), (2, 2), (OPEN, 3), (CLOSE, 1)],
                [("a", 3), ("b", 3), ("c", 3), (1, 3), (2, 3), (3, 3), (CLOSE, 2)],
            ],
        ),
    ],
)
def test_moves_are_the_pinned_tables(sigma, n, moves):
    tables = Alphabet(sigma, n).moves
    assert type(tables) is tuple and all(type(table) is MappingProxyType for table in tables)
    # Equal as maps and in token order.
    assert [list(table.items()) for table in tables] == moves


def test_alphabet_rejects_bad_letters():
    with pytest.raises(ValueError):
        Alphabet({"A"}, 0)
    # The register bound is a non-bool int, and the error names it.
    for bad in (-1, True, 1.5, "1", None):
        with pytest.raises(ValueError, match="bound n must be"):
            Alphabet({"a"}, bad)


def test_register_bounds_above_the_limit_are_value_errors():
    # The move table holds about n * n / 2 entries, so a huge bound would
    # exhaust memory; the error names the bound and the limit.
    assert Alphabet({"a"}, MAX_REGISTERS).n == MAX_REGISTERS
    for bad in (MAX_REGISTERS + 1, 2_879_312_407):
        with pytest.raises(ValueError, match=f"n = {bad} is over the limit {MAX_REGISTERS}"):
            Alphabet({"a"}, bad)
    with pytest.raises(am.InvalidAutomatonError, match="over the limit"):
        am.NominalAutomaton({"a"}, MAX_REGISTERS + 1, {"q0": 0}, "q0", [], [])


# Every entry point that takes a letter set: (name, call with sigma, a
# comparable view of the result).  The targets use the letters a and b.
LETTER_SET_ENTRY_POINTS = [
    ("Alphabet", lambda sigma: Alphabet(sigma, 1), lambda alphabet: alphabet),
    (
        "NominalAutomaton",
        lambda sigma: am.NominalAutomaton(sigma, 0, {"q0": 0}, "q0", ["q0"], [("q0", "a", "q0")]),
        am.to_json,
    ),
    (
        "compile",
        lambda sigma: am.compile(canonicalize(parse_regex("<n. a n> b*", {"a", "b"})), sigma),
        am.to_json,
    ),
    ("parse_regex", lambda sigma: parse_regex("ab <n. n a>", sigma), lambda node: node),
    ("ObservationTable", ObservationTable, lambda table: table.alphabet),
    ("enumerate_legal", lambda sigma: enumerate_legal(sigma, EnumBound(3, 1)), lambda words: words),
    (
        "Teacher.from_regex",
        lambda sigma: Teacher.from_regex("<n. a n> b*", sigma),
        lambda teacher: am.to_json(teacher.target),
    ),
]
entry_point_ids = [name for name, _, _ in LETTER_SET_ENTRY_POINTS]


@pytest.mark.parametrize("bad", ["ab", 5, [["a"]], ["A"]], ids=["str", "int", "unhashable", "upper"])
@pytest.mark.parametrize("call", [call for _, call, _ in LETTER_SET_ENTRY_POINTS], ids=entry_point_ids)
def test_letter_sets_other_than_collections_of_letters_raise_value_error(call, bad):
    # A string is not split into its characters, and an unhashable item is
    # no TypeError: every entry point rejects the set and names sigma.
    with pytest.raises(ValueError, match="sigma"):
        call(bad)


@given(st.sets(st.sampled_from(["c", "req", "x1"])), st.randoms(use_true_random=False))
@settings(max_examples=20)
def test_every_collection_of_the_same_letters_gives_the_same_result(extra, rng):
    letters = ["a", "b", *extra]
    rng.shuffle(letters)
    for name, call, view in LETTER_SET_ENTRY_POINTS:
        results = [
            view(call(sigma))
            for sigma in (letters, tuple(reversed(letters)), set(letters), frozenset(letters))
        ]
        assert results[1:] == results[:1] * 3, name


# Every entry point that reads a word: (name, call on a word, its result for
# the word ("a", "b"), its result for the string "ab": a value, or the
# message of the IllegalWordError it raises).  The target is ab.
AB_TARGET = canonicalize(parse_regex("ab", {"a", "b"}))
STR_WORD_ENTRY_POINTS = [
    (
        "Teacher.membership",
        lambda word: Teacher.from_regex("ab", ["a", "b"]).membership(word),
        Answer.ONE,
        "membership query for a string, not a word: 'ab'",
    ),
    ("accepts", lambda word: am.accepts(am.compile(AB_TARGET), word), True, "not legal for this automaton: 'ab'"),
    ("brute_membership", lambda word: brute_membership(AB_TARGET, word), True, "a string is not a word: 'ab'"),
    ("reg", reg, 0, "illegal word"),
    ("depth", depth, 0, "illegal word"),
    ("is_legal", lambda word: is_legal(word, AB1), True, False),
    ("summarize", lambda word: summarize(word) is not None, True, False),
    ("concat left", lambda word: concat(word, (), AB1), ("a", "b"), None),
    ("concat right", lambda word: concat((), word, AB1), ("a", "b"), None),
]


@pytest.mark.parametrize(
    "call, on_tuple, on_str",
    [entry[1:] for entry in STR_WORD_ENTRY_POINTS],
    ids=[name for name, _, _, _ in STR_WORD_ENTRY_POINTS],
)
def test_a_string_is_not_a_word(call, on_tuple, on_str):
    # Read as its characters, "ab" would be the word ("a", "b").
    assert call(("a", "b")) == on_tuple
    if isinstance(on_str, str):
        with pytest.raises(IllegalWordError, match=on_str):
            call("ab")
    else:
        assert call("ab") is on_str


def test_alphabet_is_an_immutable_value():
    alphabet = Alphabet({"b", "a"}, 1)
    same = Alphabet(sigma=frozenset({"a", "b"}), n=1)
    assert alphabet == same and hash(alphabet) == hash(same) == hash((same.sigma, 1))
    assert alphabet != Alphabet({"a", "b"}, 2)
    assert alphabet != (frozenset({"a", "b"}), 1)
    assert Alphabet({"a"}) == Alphabet({"a"}, 0)
    assert repr(Alphabet({"a"}, 1)) == "Alphabet(sigma=frozenset({'a'}), n=1)"
    for field in ("sigma", "n", "moves"):
        with pytest.raises(AttributeError):
            setattr(alphabet, field, None)
    assert alphabet.moves is alphabet.moves
    with pytest.raises(TypeError):
        alphabet.moves[0]["a"] = 0


def test_shared_alphabets_are_never_evicted():
    first = shared_alphabet(frozenset({"a", "b"}), 1)
    moves = first.moves
    for i in range(200):
        shared_alphabet(frozenset({f"x{i}"}), 0)
    # Equal letters in any collection, after 200 other pairs: the same
    # object and the same move table.
    assert shared_alphabet(frozenset({"b", "a"}), 1) is first
    assert shared_alphabet(["b", "a"], 1) is first and first.moves is moves
    assert shared_alphabet(frozenset({"a", "b"}), 1) == Alphabet({"a", "b"}, 1)
    # A bool bound is no int bound, and letters are still checked.
    with pytest.raises(ValueError, match="bound n must be"):
        shared_alphabet(frozenset({"a", "b"}), True)
    with pytest.raises(ValueError, match="invalid letter"):
        shared_alphabet(frozenset({"A"}), 0)


def test_is_legal_close_without_open():
    assert not is_legal((CLOSE,), AB2)


def test_is_legal_index_above_open_count():
    assert not is_legal((OPEN, 2), AB2)


def test_is_legal_counterexample_word():
    assert is_legal(("a", "b", OPEN, CLOSE), AB1)


def test_is_legal_rejects_foreign_letters_and_deep_nesting():
    assert not is_legal(("c",), AB1)
    assert not is_legal((OPEN, OPEN), AB1)


@pytest.mark.parametrize("token", [None, 1.5, True, False, b"a", ("a",)])
def test_is_legal_rejects_tokens_that_are_not_word_tokens(token):
    assert not is_legal((token,), Alphabet({"a"}, 0))
    assert not is_legal((OPEN, token), Alphabet({"a"}, 1))
    assert summarize((token,), frozenset({"a"})) is None


def test_reg_open_binder():
    assert reg(("a", "b", OPEN)) == 1


def test_reg_balanced():
    assert reg(("a", "b", OPEN, CLOSE)) == 0


def test_reg_empty():
    assert reg(()) == 0


def test_reg_rejects_illegal():
    with pytest.raises(IllegalWordError):
        reg((CLOSE,))


@pytest.mark.parametrize("call", [reg, depth])
def test_reg_and_depth_name_a_string_word_as_given(call):
    # Rendered as a word, "ab" would read as its characters: 'a b'.
    with pytest.raises(IllegalWordError) as raised:
        call("ab")
    assert str(raised.value) == "illegal word 'ab': a string is not a word"


def test_depth_examples():
    assert depth(()) == 0
    assert depth(("a", "b", OPEN, CLOSE)) == 1
    assert depth((OPEN, OPEN, 2, CLOSE, CLOSE)) == 2


def test_concat_too_deep_is_marked():
    assert concat(("a", "b", OPEN), (OPEN,), AB1) is None


def test_concat_epsilon_neutral():
    assert concat(("a", "b", OPEN), (), AB1) == ("a", "b", OPEN)


def test_concat_close():
    assert concat(("a", "b", OPEN), (CLOSE,), AB1) == ("a", "b", OPEN, CLOSE)


def test_prefixes():
    assert prefixes(()) == [()]
    assert prefixes(("a", "b")) == [(), ("a",), ("a", "b")]
    assert prefixes(("a", "b", OPEN, CLOSE)) == [
        (),
        ("a",),
        ("a", "b"),
        ("a", "b", OPEN),
        ("a", "b", OPEN, CLOSE),
    ]


def test_parse_word_plain_and_decorated():
    assert parse_word("a b << 1 >>") == ("a", "b", OPEN, 1, CLOSE)
    assert parse_word("a b <<1. >>") == ("a", "b", OPEN, CLOSE)
    assert parse_word("a b << 1 . >>") == ("a", "b", OPEN, CLOSE)
    assert parse_word("") == ()


def test_parse_word_decoration_must_match_nesting():
    with pytest.raises(WordSyntaxError):
        parse_word("<<2.")


def test_parse_word_rejects_garbage():
    with pytest.raises(WordSyntaxError) as err:
        parse_word("a ? b")
    assert err.value.position == 2


def test_serialize_decorates_levels():
    assert serialize_word(("a", OPEN, OPEN, 2, CLOSE, CLOSE)) == "a <<1. <<2. 2 >> >>"


_NUMBER_RE = re.compile(r"[0-9]{1,9}\Z")
_DECORATED_OPEN_RE = re.compile(r"<<([0-9]{1,9})\.\Z")


def reference_parse_word(text):
    """The word parser as a loop over whitespace-split pieces that looks
    two pieces ahead of a bare open for a spaced level ("<< 1 .")."""
    pieces = [(m.group(0), m.start()) for m in re.finditer(r"\S+", text)]
    out = []
    count = 0
    i = 0
    while i < len(pieces):
        piece, pos = pieces[i]
        decorated = _DECORATED_OPEN_RE.match(piece)
        if piece == OPEN or decorated:
            level = None
            if decorated:
                level = int(decorated.group(1))
                i += 1
            elif (
                i + 2 < len(pieces)
                and _NUMBER_RE.match(pieces[i + 1][0])
                and pieces[i + 2][0] == "."
            ):
                level = int(pieces[i + 1][0])
                i += 3
            else:
                i += 1
            count += 1
            if level is not None and level != count:
                raise WordSyntaxError(
                    f"binder decorated with level {level} but {count} binders are open", pos
                )
            out.append(OPEN)
        elif piece == CLOSE:
            count -= 1
            out.append(CLOSE)
            i += 1
        elif _NUMBER_RE.match(piece):
            idx = int(piece)
            if idx < 1:
                raise WordSyntaxError("register references start at 1", pos)
            out.append(idx)
            i += 1
        elif re.fullmatch(r"[a-z][a-z0-9]*", piece):
            out.append(piece)
            i += 1
        else:
            raise WordSyntaxError(f"unrecognised token {piece!r}", pos)
    return tuple(out)


def parsed(parse, text):
    try:
        return parse(text)
    except WordSyntaxError as exc:
        return type(exc), str(exc), exc.position


@given(WORD_TEXT)
@example("<< <<2. >> << 2 . 2")  # bare, decorated and spaced opens
@example("<<\t1\n.\x1c1\x85<<\u30002\u3000.")  # str.isspace() holds for each separator
@example("<< 01 .")  # leading zeros in a level
@example("<<0.")  # a level that does not match
@example("<< 0 .")
@example("<<123456789.")  # nine digits
@example("<<1234567890.")  # ten digits: no open
@example("<< 1234567890 .")  # a bare open, then ten digits
@example("<< 1 .x")  # a bare open, a register, then garbage
@example("<< 1.")
@example("<< 1 ")  # no spaced level without its dot
@example("<<1 .")
@example("<<1.x")
@example("<<<")
@example(">> >>")
@example(">")
@example(">>a")
@example("a<<")
@example("000000001")
@example("0")  # registers start at 1
@example("1234567890")
@example("a b1 req1 ab1c")
@example("a.")
@example("1a")
@example("A")
@example("é")
@example("١")  # not ASCII digits
@example("²")
@example("<<١.")
@example("<< ١ .")
@example("a\u200bb")  # ZERO WIDTH SPACE: not whitespace
def test_parse_word_matches_the_piece_loop_reference(text):
    assert parsed(parse_word, text) == parsed(reference_parse_word, text)


token = st.one_of(
    st.sampled_from(["a", "b", OPEN, CLOSE]), st.integers(min_value=1, max_value=3)
)
words = st.lists(token, max_size=12).map(tuple)


@given(words)
def test_legality_is_prefix_closed(word):
    if is_legal(word, AB2):
        for prefix in prefixes(word):
            assert is_legal(prefix, AB2)


@given(words)
def test_reg_below_depth_below_bound(word):
    if is_legal(word, AB2):
        assert reg(word) <= depth(word) <= AB2.n


@given(words, words)
def test_concat_result_is_legal(left, right):
    result = concat(left, right, AB2)
    if result is not None:
        assert is_legal(result, AB2)
        assert depth(result) <= AB2.n


@given(words)
def test_serialize_parse_roundtrip(word):
    if is_legal(word, AB2):
        assert parse_word(serialize_word(word)) == word


@given(st.text(alphabet="ab<>. 123", max_size=20))
def test_parse_normalizes(text):
    try:
        word = parse_word(text)
    except WordSyntaxError:
        return
    if is_legal(word, AB2):
        assert parse_word(serialize_word(word)) == word


def legal_by_definition(word, sigma, n):
    """The legality rule of the module docstring, scanned directly."""
    count = 0
    for tok in word:
        if tok == OPEN:
            count += 1
            if count > n:
                return False
        elif tok == CLOSE:
            count -= 1
            if count < 0:
                return False
        elif isinstance(tok, int):
            if not 1 <= tok <= count:
                return False
        elif tok not in sigma:
            return False
    return True


# Illegal brackets, dangling and non-positive registers, a foreign letter.
rough_token = st.one_of(
    st.sampled_from(["a", "b", "c", OPEN, CLOSE]), st.integers(min_value=-1, max_value=4)
)
rough_words = st.lists(rough_token, max_size=10).map(tuple)


@given(rough_words, rough_words, st.integers(min_value=0, max_value=4))
@settings(max_examples=500)
def test_summary_cell_test_matches_concat(left, right, n):
    sigma = {"a", "b"}
    head, tail = summarize(left, sigma), summarize(right, sigma)
    fast = (
        head is not None and head.fits(n) and tail is not None and tail.fits(n, head.final)
    )
    assert fast == (concat(left, right, Alphabet(sigma, n)) is not None)
    assert fast == legal_by_definition(left + right, sigma, n)
