"""Fuzz targets for the three readers of outside input: word text,
expression text and automaton JSON.  Whatever comes in, each either
returns a value or raises its own module's typed error.

The explicit examples are inputs that must stay caught: digits from
other scripts read as numbers, ``int()`` failures on odd or overlong
numbers surfacing as bare ``ValueError``, ``RecursionError`` on deep
nesting, and JSON documents that break the schema yet were accepted.
"""

import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlstar import automaton as am
from nlstar.automaton import SchemaError
from nlstar.regex import (
    FreeNameError,
    RegexSyntaxError,
    canonicalize,
    infer_sigma,
    parse_regex,
)
from nlstar.words import WordSyntaxError, parse_word, serialize_word

AB = frozenset({"a", "b"})

# Arbitrary text, and text joined from pieces the grammars know, so that
# inputs often get past the first token.
WORD_TEXT = st.text() | st.lists(
    st.sampled_from(["a", "b1", "<<", ">>", "<<1.", "<<2.", ".", "0", "1", "2", "١", "²"])
    | st.text(max_size=2)
).map(" ".join)
REGEX_TEXT = st.text() | st.lists(
    st.sampled_from(["a", "b", "ab", "n", "m", "eps", "0", "1", "<", ">", ".", "+", "*", "(", ")"])
    | st.text(max_size=2)
).map(" ".join)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)
GOOD = am.to_document(am.compile(canonicalize(parse_regex("ab<n.n*>", AB)), AB))


@st.composite
def near_documents(draw):
    """The worked example's document with one key set to an arbitrary value."""
    doc = json.loads(json.dumps(GOOD))
    target = draw(st.sampled_from([doc, doc["states"][0], doc["transitions"][0]]))
    key = draw(st.sampled_from(sorted(target)) | st.text(max_size=6))
    target[key] = draw(JSON_VALUES)
    return doc


@settings(deadline=None)
@given(WORD_TEXT)
@example("١")  # ARABIC-INDIC DIGIT ONE once read as register 1
@example("<<١.")
@example("<< ١ .")
@example("²")  # SUPERSCRIPT TWO: isdigit() holds but int() fails
@example("1" * 5000)  # int() refuses more than 4300 digits
def test_parse_word_raises_only_word_syntax_errors(text):
    try:
        word = parse_word(text)
    except WordSyntaxError:
        return
    assert all(piece.isascii() for piece in text.split())
    assert parse_word(serialize_word(word)) == word


@settings(deadline=None)
@given(REGEX_TEXT)
@example("<n. a ٣>")  # ARABIC-INDIC DIGIT THREE once read as the name 3
@example("a ²")
@example("1" * 5000)
@example("(" * 3000 + "a" + ")" * 3000)
@example("a" * 3000)
@example(" a" * 3000)
def test_parse_regex_raises_only_regex_errors(text):
    for sigma in (None, AB, {"a", "ab"}):
        try:
            cne = canonicalize(parse_regex(text, infer_sigma(text) if sigma is None else sigma))
        except (RegexSyntaxError, FreeNameError):
            continue
        assert all(ch.isascii() or ch.isspace() for ch in text)
        assert canonicalize(cne) == cne


def check_from_json(text):
    """from_json raises SchemaError, or returns the machine whose document
    is the input up to the order and repeats of sigma and finals."""
    try:
        machine = am.from_json(text)
    except SchemaError:
        return
    doc, out = json.loads(text), am.to_document(machine)
    for field in ("sigma", "finals"):
        assert type(doc[field]) is list and sorted(set(doc[field])) == sorted(out[field])
        doc[field] = out[field]
    assert {field: doc[field] for field in out} == out


@settings(deadline=None)
@given(st.text() | JSON_VALUES.map(json.dumps))
@example("[" * 100000 + "]" * 100000)
@example('{"a": ' * 5000 + "0" + "}" * 5000)
@example("1" * 5000)
def test_from_json_text_raises_only_schema_errors(text):
    check_from_json(text)


@settings(deadline=None)
@given(JSON_VALUES | near_documents())
@example(GOOD)
@example({**GOOD, "sigma": "ab"})
@example({**GOOD, "finals": {"q0": 1}})
@example({**GOOD, "finals": "q0"})
@example({**GOOD, "transitions": [{**GOOD["transitions"][0], "note": "ignored"}]})
@example({**GOOD, "n": 2_879_312_407})  # a move table of about n * n / 2 entries ran out of memory
def test_from_json_documents_raise_only_schema_errors(doc):
    check_from_json(json.dumps(doc))
