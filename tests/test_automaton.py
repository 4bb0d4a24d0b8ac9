import copy
import json
import pickle
import random
import re
import time
from collections.abc import Mapping
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nlstar import automaton as am
from nlstar.automaton import (
    EPS,
    AlphabetMismatchError,
    InvalidAutomatonError,
    NominalAutomaton,
    NondeterministicInputError,
    SchemaError,
    Strategy,
)
from nlstar.oracle import EnumBound, enumerate_legal
from nlstar.regex import (
    Binder,
    Concat,
    Empty,
    Epsilon,
    Name,
    NotCanonicalError,
    canonicalize,
    denote_bounded,
    parse_regex,
    theta,
)
from nlstar.words import CLOSE, OPEN, Alphabet, IllegalWordError, is_legal, shared_alphabet

from .corpus import ACCEPTANCE_SEED, draws, random_nominal

AB = frozenset({"a", "b"})
WORKED = canonicalize(parse_regex("ab<n.n*>", AB))
E_HAT = canonicalize(parse_regex("<n. <m.m>* n <k.k*> n>", frozenset()))


def final_figure_machine():
    """The 7-state machine the worked example converges to (partial form)."""
    layers = {"q0": 0, "q1": 0, "q2": 0, "q3": 1, "q4": 0, "q5": 0, "q6": 1}
    transitions = [
        ("q0", "a", "q1"),
        ("q0", "b", "q5"),
        ("q1", "a", "q5"),
        ("q1", "b", "q2"),
        ("q2", "a", "q5"),
        ("q2", "b", "q5"),
        ("q2", OPEN, "q3"),
        ("q3", "a", "q6"),
        ("q3", "b", "q6"),
        ("q3", 1, "q3"),
        ("q3", CLOSE, "q4"),
        ("q4", "a", "q5"),
        ("q4", "b", "q5"),
        ("q5", "a", "q5"),
        ("q5", "b", "q5"),
        ("q6", "a", "q6"),
        ("q6", "b", "q6"),
        ("q6", 1, "q6"),
        ("q6", CLOSE, "q5"),
    ]
    return NominalAutomaton(AB, 1, layers, "q0", ["q4"], transitions)


def two_state_first_hypothesis():
    """First hypothesis of the worked run: two states, nothing accepting."""
    layers = {"q0": 0, "q1": 0}
    transitions = [
        ("q0", "a", "q0"),
        ("q0", "b", "q1"),
        ("q1", "a", "q1"),
        ("q1", "b", "q1"),
    ]
    return NominalAutomaton(AB, 0, layers, "q0", [], transitions)


# ---------------------------------------------------------------------------
# construction and validation

def test_layer_rules_enforced():
    with pytest.raises(InvalidAutomatonError):
        NominalAutomaton(AB, 1, {"q0": 0, "q1": 0}, "q0", [], [("q0", OPEN, "q1")])
    with pytest.raises(InvalidAutomatonError):
        NominalAutomaton(AB, 1, {"q0": 0, "q1": 1}, "q0", ["q1"], [("q0", OPEN, "q1")])
    with pytest.raises(InvalidAutomatonError):
        NominalAutomaton(AB, 1, {"q0": 0}, "q0", [], [("q0", 1, "q0")])
    with pytest.raises(InvalidAutomatonError, match="sigma"):
        NominalAutomaton({OPEN}, 1, {"q0": 0, "q1": 1}, "q0", [], [("q0", OPEN, "q1")])
    with pytest.raises(InvalidAutomatonError, match="n must"):
        NominalAutomaton(AB, True, {"q0": 0}, "q0", [], [])
    with pytest.raises(InvalidAutomatonError, match="layer"):
        NominalAutomaton(AB, 1, {"q0": False}, "q0", [], [])
    with pytest.raises(InvalidAutomatonError, match="label"):
        NominalAutomaton(AB, 1, {"q0": 0}, "q0", [], [("q0", True, "q0")])
    # An eps edge keeps its layer, so no subset of determinize mixes layers.
    with pytest.raises(InvalidAutomatonError, match="layer rule"):
        NominalAutomaton(AB, 1, {"q0": 0, "q1": 1}, "q0", [], [("q0", EPS, "q1")])
    # State ids are checked before anything hashes them.
    with pytest.raises(InvalidAutomatonError, match=r"strings, got \['x'\]"):
        NominalAutomaton(AB, 0, {"q0": 0}, "q0", [["x"]], [])
    with pytest.raises(InvalidAutomatonError, match=r"strings, got \['q0'\]"):
        NominalAutomaton(AB, 0, {"q0": 0}, ["q0"], [], [])
    with pytest.raises(InvalidAutomatonError, match=r"strings, got 5"):
        NominalAutomaton(AB, 0, {"q0": 0, 5: 0}, "q0", [], [])
    # So is the layers mapping itself.
    with pytest.raises(InvalidAutomatonError, match=r"map state ids to layers, got \[\(\['x'\], 0\)\]"):
        NominalAutomaton(AB, 0, [(["x"], 0)], "q0", [], [])
    with pytest.raises(InvalidAutomatonError, match="map state ids to layers, got 5"):
        NominalAutomaton(AB, 0, 5, "q0", [], [])
    # A three-item string, dict or iterator unpacks too; only a tuple or a list is a triple.
    for transition in [("q0", "a"), ("q0", "a", "q0", "q0"), 5, "paq", {"p": 1, "a": 2, "q": 3}, iter("paq")]:
        with pytest.raises(InvalidAutomatonError, match=rf"^transition {re.escape(repr(transition))} is not a "):
            NominalAutomaton(AB, 0, {"q0": 0, "p": 0, "q": 0}, "q0", [], [transition])
    assert NominalAutomaton(AB, 0, {"p": 0, "q": 0}, "p", [], [["p", "a", "q"]]).transitions == (("p", "a", "q"),)


@pytest.mark.parametrize("field, items", [("finals", "state ids"), ("transitions", r"\(src, label, dst\) triples")])
@pytest.mark.parametrize("value", ["q0", "abc", "", None, 5])
def test_finals_and_transitions_must_be_collections(field, items, value):
    # Read as its characters, finals="q0" would be the states 'q' and '0'.
    args = {"sigma": {"a"}, "n": 0, "layers": {"q0": 0, "q": 0, "0": 0}, "initial": "q0"}
    args.update(finals=[], transitions=[])
    args[field] = value
    message = rf"^{field} must be a collection of {items}, not {re.escape(repr(value))}$"
    with pytest.raises(InvalidAutomatonError, match=message):
        NominalAutomaton(**args)


@pytest.mark.parametrize(
    "initial, finals, message",
    [
        ("q9", [], "unknown initial state 'q9'"),
        ("q1", [], "initial state must have layer 0"),
        ("q0", ["q9"], "unknown final state 'q9'"),
    ],
)
def test_initial_and_final_states_are_checked(initial, finals, message):
    with pytest.raises(InvalidAutomatonError, match=message):
        NominalAutomaton(AB, 1, {"q0": 0, "q1": 1}, initial, finals, [])


_SHIFT = {OPEN: 1, CLOSE: -1}


def reference_construct(sigma, n, layers, initial, finals, transitions):
    """The constructor before edges were checked in the pass that indexes
    them: ``_validate`` checked every edge with its own layer arithmetic,
    then a second loop indexed them."""
    m = object.__new__(NominalAutomaton)
    try:
        m.alphabet = shared_alphabet(sigma, n)
    except ValueError as exc:
        raise InvalidAutomatonError(str(exc)) from exc
    m.sigma, m.n = m.alphabet.sigma, m.alphabet.n
    if not isinstance(layers, Mapping):
        raise InvalidAutomatonError(f"layers must map state ids to layers, got {layers!r}")
    finals = list(finals)
    for state in (*layers, initial, *finals):
        if not isinstance(state, str):
            raise InvalidAutomatonError(f"state ids must be strings, got {state!r}")
    m.layers = dict(layers)
    m.initial = initial
    m.finals = frozenset(finals)
    m.transitions = tuple(map(am._triple, transitions))
    for state, layer in m.layers.items():
        if type(layer) is not int or not 0 <= layer <= m.n:
            raise InvalidAutomatonError(f"state {state}: layer {layer!r} is not an int in 0..{m.n}")
    if m.initial not in m.layers:
        raise InvalidAutomatonError(f"unknown initial state {m.initial!r}")
    if m.layers[m.initial] != 0:
        raise InvalidAutomatonError("initial state must have layer 0")
    for state in m.finals:
        if state not in m.layers:
            raise InvalidAutomatonError(f"unknown final state {state!r}")
        if m.layers[state] != 0:
            raise InvalidAutomatonError(f"final state {state} must have layer 0")
    for src, label, dst in m.transitions:
        if not isinstance(src, str) or not isinstance(dst, str):
            raise InvalidAutomatonError(f"state ids must be strings, got transition {(src, label, dst)}")
        if src not in m.layers or dst not in m.layers:
            raise InvalidAutomatonError(f"transition references unknown state: {(src, label, dst)}")
        lsrc = m.layers[src]
        if type(label) is int:
            ok = m.layers[dst] == lsrc and 1 <= label <= lsrc
        elif label in (OPEN, CLOSE, EPS) or (isinstance(label, str) and label in m.sigma):
            ok = m.layers[dst] == lsrc + _SHIFT.get(label, 0)
        else:
            raise InvalidAutomatonError(f"unknown label {label!r}")
        if not ok:
            raise InvalidAutomatonError(f"layer rule violated by {(src, label, dst)}")
    eps, targets, closures = {}, {}, {}
    for src, label, dst in m.transitions:
        if label is EPS:
            eps.setdefault(src, []).append(dst)
        else:
            targets.setdefault((src, label), []).append(dst)
    m.has_eps = bool(eps)
    m.deterministic = not eps and all(len(v) == 1 for v in targets.values())
    m.delta = None
    if m.deterministic:
        m.delta = {q: {} for q in m.layers}
        for (src, label), [dst] in targets.items():
            m.delta[src][label] = dst

    def closure(state):
        if state not in closures:
            closures[state] = frozenset(am.reachable_from([state], lambda q: eps.get(q, ())))
        return closures[state]

    m.start = closure(initial)
    m._succ = {
        key: closure(dsts[0]) if len(dsts) == 1 else frozenset().union(*map(closure, dsts))
        for key, dsts in targets.items()
    }
    return m


# Labels in and out of sigma {"a"}: letters, registers -1..n+2, a bool and
# a float equal to register 1, the brackets and eps.
_LABELS = ["a", "b", -1, 0, 1, 2, 3, 4, True, 1.0, OPEN, CLOSE, EPS]
_IDS = ["q0", "q1", "q2"]


@st.composite
def descriptions(draw):
    """Small automaton descriptions, most of them close to valid: layers
    in 0..n or out of range, unknown or unhashable endpoints and malformed
    triples."""
    n = draw(st.integers(0, 2))
    count = draw(st.integers(1, 3))
    layer = st.sampled_from([*range(n + 1)] * 4 + [-1, n + 1, True, 1.0])
    layers = {"q0": 0, **{q: draw(layer) for q in _IDS[1:count]}}
    endpoint = st.sampled_from([*_IDS[:count] * 3, "zz", ["x"]])
    transitions = draw(st.lists(st.tuples(endpoint, st.sampled_from(_LABELS), endpoint), max_size=5))
    if draw(st.sampled_from([False] * 7 + [True])):
        # A three-item string or dict would unpack as a triple.
        malformed = [("q0", "a"), ("q0", "a", "q0", "q0"), 5, "q0a", {"q0": 0, "a": 1, "q1": 2}]
        transitions.insert(draw(st.integers(0, len(transitions))), draw(st.sampled_from(malformed)))
    initial = draw(st.sampled_from(["q0"] * 6 + [*_IDS[1:count], "zz"]))
    finals = draw(st.lists(endpoint, max_size=2))
    return {"a"}, n, layers, initial, finals, transitions


def construction(build, description):
    """The error a builder raises, or what its machine shows."""
    try:
        m = build(*description)
    except Exception as exc:
        return type(exc), str(exc)
    steps = {(q, label): m.step(frozenset([q]), label) for q in m.layers for label in _LABELS}
    return am.to_json(m), m.deterministic, m.has_eps, m.start, steps, m.delta


@settings(max_examples=400, deadline=None)
@given(descriptions())
@example(({"a"}, 1, {"q0": 0, "q1": 1}, "q0", ["q0"], [("q0", OPEN, "q1"), ("q1", OPEN, "q1")]))
@example(({"a"}, 1, {"q0": 0, "q1": 1}, "q0", [], [("q0", CLOSE, "q0")]))
@example(({"a"}, 0, {"q0": 0}, "q0", [], [("q0", "a", ["x"])]))
@example(({"a"}, 0, {"q0": 0}, "q0", [], [(["x"], "a", "q0")]))
@example(({"a"}, 1, {"q0": 0, "q1": 1}, "q0", [], [("q0", EPS, "q1")]))
@example(({"a"}, 1, {"q0": 0, "q1": 1}, "q0", [], [("q0", OPEN, "q1"), ("q1", True, "q1")]))
@example(({"a"}, 1, {"q0": 0, "q1": 1}, "q0", [], [("q0", OPEN, "q1"), ("q1", 1.0, "q1")]))
@example(({"a"}, 1, {"q0": 0, "q1": 1}, "q0", [], [("q0", OPEN, "q1"), ("q1", 2, "q1")]))
@example(({"a"}, 2, {"q0": 0, "q1": 1}, "q0", ["q0"], [("q0", OPEN, "q1"), ("q1", 1, "q1"), ("q1", CLOSE, "q0"),
                                                       ("q1", "a", "q1"), ("q0", EPS, "q0")]))
def test_one_pass_construction_matches_the_reference(description):
    assert construction(NominalAutomaton, description) == construction(reference_construct, description)


def test_compile_rejects_non_canonical_trees_and_letters_outside_sigma():
    with pytest.raises(NotCanonicalError, match="not canonical: <n. n>"):
        am.compile(Binder("n", Name("n")), AB)
    with pytest.raises(ValueError, match=r"letters outside sigma: \['b'\]"):
        am.compile(WORKED, {"a"})


def test_compile_intro_accepts_figure_path():
    machine = am.compile(E_HAT)
    assert am.accepts(machine, (OPEN, 1, OPEN, CLOSE, 1, CLOSE))


def test_compile_empty_accepts_nothing():
    machine = am.compile(Empty(), AB)
    for word in enumerate_legal(AB, EnumBound(3, 0)):
        assert not am.accepts(machine, word)


def test_compile_worked_target():
    machine = am.compile(WORKED, AB)
    assert am.accepts(machine, ("a", "b", OPEN, CLOSE))
    assert am.accepts(machine, ("a", "b", OPEN, 1, CLOSE))
    assert not am.accepts(machine, ("a", "b"))
    assert not am.accepts(machine, ("b",))


def test_compile_small_binder_gadget():
    machine = am.compile(canonicalize(parse_regex("<n. a n>", {"a"})), {"a"})
    assert am.state_count(machine) >= 4
    opens = [t for t in machine.transitions if t[1] == OPEN]
    closes = [t for t in machine.transitions if t[1] == CLOSE]
    assert len(opens) == 1 and len(closes) == 1


def test_accepts_rejects_illegal_word():
    machine = am.compile(WORKED, AB)
    with pytest.raises(IllegalWordError):
        am.accepts(machine, (CLOSE,))


def test_accepts_epsilon_on_worked_target():
    assert not am.accepts(am.compile(WORKED, AB), ())


# ---------------------------------------------------------------------------
# determinize

def test_determinize_epsilon():
    det = am.determinize(am.compile(Epsilon()))
    accepting = [q for q in det.states if q in det.finals]
    assert len(det.states) == 1 and len(accepting) == 1
    assert det.layers[accepting[0]] == 0


def test_determinize_is_deterministic_and_silent_free():
    det = am.determinize(am.compile(E_HAT))
    assert det.deterministic and not det.has_eps


def test_determinize_totalises_on_legal_labels():
    det = am.determinize(am.compile(WORKED, AB))
    delta = {(src, label) for src, label, _ in det.transitions}
    for state in det.states:
        layer = det.layers[state]
        for label in det.alphabet.moves[layer]:
            assert (state, label) in delta


def _reference_step(m, states, label):
    """The eps-closure, breadth-first over ``m.transitions``, of the raw successors."""
    out = {dst for src, lab, dst in m.transitions if src in states and lab == label}
    queue = list(out)
    while queue:
        q = queue.pop(0)
        for src, lab, dst in m.transitions:
            if src == q and lab is EPS and dst not in out:
                out.add(dst)
                queue.append(dst)
    return out


def test_step_matches_the_reference_closure():
    def machine(transitions):
        return NominalAutomaton({"a"}, 0, {q: 0 for q in "pqrst"}, "p", ["t"], transitions)

    assert machine([("p", "a", "q"), ("q", "a", "r")]).deterministic
    assert not machine([("p", "a", "q"), ("p", "a", "q")]).deterministic  # duplicated edge
    assert not machine([("p", "a", "q"), ("p", "a", "r")]).deterministic  # two targets
    assert not machine([("p", EPS, "q")]).deterministic
    # Two targets on one key, and an eps chain behind one of them.
    branching = machine(
        [("p", "a", "q"), ("p", "a", "r"), ("q", EPS, "s"), ("s", EPS, "t"), ("r", "a", "r")]
    )
    assert branching.step(frozenset({"p"}), "a") == {"q", "r", "s", "t"}
    rng = random.Random(7)
    machines = [branching]
    for _ in range(25):
        compiled = am.compile(canonicalize(random_nominal(rng, size=rng.randint(3, 9))), AB)
        determinized = am.determinize(compiled)
        assert determinized.deterministic
        machines += [compiled, determinized]
    assert any(m.has_eps for m in machines)
    for m in machines:
        # Every token, and labels with no edge: a foreign letter, a register past n.
        labels = list(Alphabet(m.sigma, m.n + 1).tokens()) + ["z"]
        states = list(m.states)
        sets = [frozenset()] + [frozenset({q}) for q in states] + [frozenset(states)]
        sets += [frozenset(rng.sample(states, k)) for k in (2, 3) if k <= len(states)]
        for subset in sets:
            for label in labels:
                assert m.step(subset, label) == _reference_step(m, subset, label), (m, subset, label)


nominal = st.integers(0, 10**9).map(
    lambda seed: random_nominal(random.Random(seed), size=7)
)


@given(nominal)
@settings(deadline=None, max_examples=30)
def test_compile_matches_denotation(node):
    cne = canonicalize(node)
    machine = am.compile(cne, AB)
    denoted = denote_bounded(cne, 6)
    for word in enumerate_legal(AB, EnumBound(6, theta(cne))):
        assert am.accepts(machine, word) == (word in denoted)


@given(nominal)
@settings(deadline=None, max_examples=30)
def test_determinize_and_minimize_preserve_accepts(node):
    cne = canonicalize(node)
    machine = am.compile(cne, AB)
    det = am.determinize(machine)
    mini = am.minimize(det)
    for word in enumerate_legal(AB, EnumBound(5, theta(cne))):
        want = am.accepts(machine, word)
        assert am.accepts(det, word) == want
        assert am.accepts(mini, word) == want


# ---------------------------------------------------------------------------
# equivalence

def test_equivalence_reflexive():
    machine = am.compile(WORKED, AB)
    assert am.equivalence(machine, machine, Strategy.SHORTEST) is None


def test_equivalence_first_hypothesis_counterexample():
    got = am.equivalence(two_state_first_hypothesis(), am.compile(WORKED, AB))
    assert got == ("a", "b", OPEN, CLOSE)


def test_equivalence_final_figure_machine():
    assert am.equivalence(final_figure_machine(), am.compile(WORKED, AB)) is None


def test_equivalence_alphabet_mismatch():
    with pytest.raises(AlphabetMismatchError):
        am.equivalence(am.compile(WORKED, AB), am.compile(Epsilon(), {"a"}))


def test_equivalence_epsilon_witness():
    accepts_eps = am.compile(Epsilon(), AB)
    rejects_all = am.compile(Empty(), AB)
    assert am.equivalence(accepts_eps, rejects_all) == ()


def test_shortest_equivalence_is_quick_at_a_large_register_bound():
    # The shortest witness needs no binder depth in its search nodes; with
    # it, n layers times n peaks times n labels took 2.4 s at n = 200.
    m = NominalAutomaton({"a"}, 300, {"q0": 0}, "q0", ["q0"], [("q0", "a", "q0")])
    started = time.monotonic()
    assert am.equivalence(m, m, Strategy.SHORTEST) is None
    assert time.monotonic() - started < 1.0


@pytest.mark.parametrize("strategy", [Strategy.MAX_FRESH, Strategy.MIN_FRESH])
def test_fresh_equivalence_of_agreeing_machines_is_quick_at_a_large_register_bound(strategy):
    # Machines that agree have no witness, so the depth-keyed search never
    # runs: its n layers times n peaks times n labels took 8.8 s on a
    # 2-core machine.
    m = NominalAutomaton({"a"}, 300, {"q0": 0}, "q0", ["q0"], [("q0", "a", "q0")])
    started = time.monotonic()
    assert am.equivalence(m, m, strategy) is None
    assert time.monotonic() - started < 1.0


def test_counterexample_strategies():
    # Two minimum-length differences: aaa (depth 0) and <<1>> (depth 1).
    target = am.compile(canonicalize(parse_regex("aaa + <n.n>", {"a"})), {"a"})
    nothing = am.compile(Empty(), {"a"})
    assert am.equivalence(target, nothing, Strategy.SHORTEST) == ("a", "a", "a")
    assert am.equivalence(target, nothing, Strategy.MIN_FRESH) == ("a", "a", "a")
    assert am.equivalence(target, nothing, Strategy.MAX_FRESH) == (OPEN, 1, CLOSE)


@given(nominal, nominal)
@settings(deadline=None, max_examples=25)
def test_equivalence_agrees_with_enumeration(left, right):
    m1 = am.compile(canonicalize(left), AB)
    m2 = am.compile(canonicalize(right), AB)
    witness = am.equivalence(m1, m2)
    bound = max(m1.n, m2.n)
    if witness is None:
        for word in enumerate_legal(AB, EnumBound(5, bound)):
            assert _lenient_accepts(m1, word) == _lenient_accepts(m2, word)
    else:
        # The witness is the first difference in enumeration order:
        # shortest, then lexicographic in the fixed token order.
        assert _differences(m1, m2, EnumBound(len(witness), bound))[0] == witness


def _differences(m1, m2, bound):
    return [
        word
        for word in enumerate_legal(AB, bound)
        if _lenient_accepts(m1, word) != _lenient_accepts(m2, word)
    ]


def _lenient_accepts(machine, word):
    return is_legal(word, machine.alphabet) and am.accepts(machine, word)


@given(nominal, nominal, st.sampled_from([Strategy.MAX_FRESH, Strategy.MIN_FRESH]))
@settings(deadline=None, max_examples=60)
def test_fresh_strategies_pick_depth_extremes(left, right, strategy):
    from nlstar.words import depth

    m1 = am.compile(canonicalize(left), AB)
    m2 = am.compile(canonicalize(right), AB)
    witness = am.equivalence(m1, m2, strategy)
    if witness is None or len(witness) > 6:
        return
    differences = _differences(m1, m2, EnumBound(len(witness), max(m1.n, m2.n)))
    shortest = [word for word in differences if len(word) == len(differences[0])]
    depths = [depth(word) for word in shortest]
    want = max(depths) if strategy is Strategy.MAX_FRESH else min(depths)
    # Minimal length, extreme depth, then first in enumeration order.
    assert witness == next(word for word in shortest if depth(word) == want)


def reference_equivalence(m1, m2, strategy):
    """The search with every (states1, states2, layer, peak) node and no
    pruning: cubic in the register bound under the fresh strategies."""
    alphabet = max(m1, m2, key=lambda m: m.n).alphabet
    fresh = strategy is not Strategy.SHORTEST
    start = (m1.start, m2.start, 0, 0)
    parent = {start: None}
    frontier = [start]
    while frontier:
        hits = [node for node in frontier if bool(node[0] & m1.finals) != bool(node[1] & m2.finals)]
        if hits:
            if fresh:
                extreme = max if strategy is Strategy.MAX_FRESH else min
                pick = extreme(node[3] for node in hits)
                hits = [node for node in hits if node[3] == pick]
            word = []
            node = hits[0]
            while parent[node] is not None:
                node, label = parent[node]
                word.append(label)
            return tuple(reversed(word))
        next_frontier = []
        for node in frontier:
            states1, states2, layer, peak = node
            for label, nlayer in alphabet.moves[layer].items():
                peak_after = max(peak, nlayer) if fresh else 0
                succ = (m1.step(states1, label), m2.step(states2, label), nlayer, peak_after)
                if succ not in parent:
                    parent[succ] = (node, label)
                    next_frontier.append(succ)
        frontier = next_frontier
    return None


def _redirected(machine, rng):
    """``machine`` with one edge sent to another state of its target's
    layer, so the two differ late in a word; None if no edge can move."""
    transitions = list(machine.transitions)
    rng.shuffle(transitions)
    for i, (src, label, dst) in enumerate(transitions):
        others = sorted(q for q in machine.layers if machine.layers[q] == machine.layers[dst] and q != dst)
        if others:
            transitions[i] = (src, label, rng.choice(others))
            return NominalAutomaton(
                machine.sigma, machine.n, machine.layers, machine.initial, machine.finals, transitions
            )
    return None


@pytest.mark.parametrize(
    "max_theta, letters, sizes",
    [(2, ("a", "b"), (3, 8)), (3, ("a", "b"), (8, 20)), (4, ("a", "b", "c"), (10, 25))],
    ids=["acceptance-stream", "theta3", "three-letter-theta4"],
)
def test_pruned_witnesses_match_the_unpruned_reference(max_theta, letters, sizes):
    # Seeded pairs of unrelated targets, and each minimal target against a
    # copy with one edge redirected, whose witnesses are longer.
    rng = random.Random(ACCEPTANCE_SEED)
    cnes = islice(draws(ACCEPTANCE_SEED, max_theta, letters, sizes), 200)
    machines = [am.compile(cne, letters) for cne in cnes]
    pairs = list(zip(machines[::2], machines[1::2]))
    for machine in machines[:100]:
        minimal = am.minimize(am.determinize(machine))
        redirected = _redirected(minimal, rng)
        if redirected is not None:
            pairs.append((minimal, redirected))
    for m1, m2 in pairs:
        for strategy in Strategy:
            assert am.equivalence(m1, m2, strategy) == reference_equivalence(m1, m2, strategy)


def test_pruned_witnesses_match_the_unpruned_reference_after_tied_prefixes():
    # Each prefix language has words of one length and different depths
    # that lead to one minimal state, so the pruning must keep the deeper
    # (max-fresh) or shallower (min-fresh) of them, not the first.
    prefixes = ["a a a + <n.n>", "a a b + <n. n b>", "b b + <n.n> + <n. <m. m n>>"]
    cnes = list(islice(draws(ACCEPTANCE_SEED), 40))
    for prefix in (parse_regex(text, AB) for text in prefixes):
        for left, right in zip(cnes[::2], cnes[1::2]):
            m1, m2 = (
                am.minimize(am.determinize(am.compile(canonicalize(Concat(prefix, cne)), AB)))
                for cne in (left, right)
            )
            for strategy in Strategy:
                assert am.equivalence(m1, m2, strategy) == reference_equivalence(m1, m2, strategy)


def _partial(machine, rng):
    """``machine`` with about a third of its edges dropped: deterministic,
    but no longer total, so walks leave the edge map."""
    kept = [t for t in machine.transitions if rng.random() < 0.67]
    return NominalAutomaton(machine.sigma, machine.n, machine.layers, machine.initial, machine.finals, kept)


def _deterministic_and_mixed_pairs(deterministic, compiled):
    """Neighbouring machines of two parallel lists: deterministic pairs and
    mixed pairs, each way round."""
    for i in range(len(deterministic) - 1):
        yield deterministic[i], deterministic[i + 1]
        yield deterministic[i], compiled[i + 1]
        yield compiled[i], deterministic[i + 1]


def test_edge_map_witnesses_match_the_set_reference_on_theta4_targets():
    # Determinized theta <= 4 targets against each other and against the
    # compiled (eps, set-walked) machine of the next target, plus partial
    # deterministic machines; the reference walks every machine as sets.
    rng = random.Random(ACCEPTANCE_SEED)
    compiled = [am.compile(cne, ("a", "b", "c")) for cne in islice(draws(ACCEPTANCE_SEED, 4, ("a", "b", "c"), (10, 25)), 40)]
    deterministic = [am.determinize(m) for m in compiled]
    partial = [_partial(m, rng) for m in deterministic]
    assert all(m.deterministic for m in deterministic + partial)
    pairs = [*_deterministic_and_mixed_pairs(deterministic, compiled), *_deterministic_and_mixed_pairs(partial, compiled)]
    pairs += [*zip(compiled, deterministic), *zip(partial, deterministic), *zip(compiled, partial)]
    for m1, m2 in pairs:
        for strategy in Strategy:
            assert am.equivalence(m1, m2, strategy) == reference_equivalence(m1, m2, strategy)


def learn_small_targets():
    """The learn-small bench pool: the first 200 acceptance-stream draws
    whose determinized machine has 2 states or more."""
    machines = ((am.compile(cne, AB), am.determinize(am.compile(cne, AB))) for cne in draws(ACCEPTANCE_SEED))
    return list(islice(((c, d) for c, d in machines if am.state_count(d) >= 2), 200))


def test_edge_map_witnesses_match_the_set_reference_on_learned_hypotheses():
    # Every hypothesis a learn-small run logs, against its deterministic
    # target and against the compiled target.
    from nlstar.learner import run_nlstar
    from nlstar.teacher import Teacher

    for compiled, target in learn_small_targets():
        teacher = Teacher(target)
        run_nlstar(teacher)
        for kind, hypothesis, _ in teacher.log:
            if kind != "equiv":
                continue
            for machine in (target, compiled):
                for strategy in Strategy:
                    want = reference_equivalence(machine, hypothesis, strategy)
                    assert am.equivalence(machine, hypothesis, strategy) == want
                    assert am.equivalence(hypothesis, machine, strategy) == reference_equivalence(
                        hypothesis, machine, strategy)


def _set_accepts(machine, word):
    states = machine.start
    for tok in word:
        states = machine.step(states, tok)
    return not machine.finals.isdisjoint(states)


def test_accepts_on_the_edge_map_matches_the_set_walk():
    rng = random.Random(ACCEPTANCE_SEED)
    machines = [d for _, d in learn_small_targets()[:40]]
    machines += [_partial(m, rng) for m in machines]
    for machine in machines:
        assert machine.deterministic
        for word in enumerate_legal(machine.sigma, EnumBound(6, machine.n)):
            assert am.accepts(machine, word) == _set_accepts(machine, word), (machine, word)


def _layer_chain(n, top):
    """One state per layer 0..top over {a}, every legal label at each; only
    layer 0 accepts.  With top < n, no binder opens at layer top."""
    transitions = []
    for k in range(top + 1):
        transitions += [(f"q{k}", label, f"q{k}") for label in ["a", *range(1, k + 1)]]
        if k < top:
            transitions.append((f"q{k}", OPEN, f"q{k + 1}"))
        if k > 0:
            transitions.append((f"q{k}", CLOSE, f"q{k - 1}"))
    return NominalAutomaton({"a"}, n, {f"q{k}": k for k in range(top + 1)}, "q0", ["q0"], transitions)


@pytest.mark.parametrize("strategy", [Strategy.MAX_FRESH, Strategy.MIN_FRESH])
def test_fresh_witness_is_quick_at_a_large_register_bound(strategy):
    # The shortest witness opens 200 binders and closes them again.  Keyed by
    # depth without pruning, the search kept every (layer, peak) node of
    # every level: 3.8 s on a 2-core machine.
    m1, m2 = _layer_chain(250, 250), _layer_chain(250, 199)
    started = time.monotonic()
    witness = am.equivalence(m1, m2, strategy)
    assert witness == (OPEN,) * 200 + (CLOSE,) * 200
    assert time.monotonic() - started < 1.0


# ---------------------------------------------------------------------------
# minimize

def test_minimize_worked_target_has_seven_states():
    mini = am.minimize(am.determinize(am.compile(WORKED, AB)))
    assert am.state_count(mini) == 7


def test_minimize_idempotent():
    mini = am.minimize(am.determinize(am.compile(E_HAT)))
    again = am.minimize(mini)
    assert am.state_count(again) == am.state_count(mini)
    assert am.isomorphic(mini, again)


@pytest.mark.parametrize(
    "text", ["<n. <m. <k. k a> m> n>", "<n. <m. <k. <l. l a> k> m> n>"]
)
def test_minimize_deep_nesting_is_fast(text):
    # Refinement must renumber its blocks each round; nested signatures
    # grow exponentially with the rounds, which grow with the nesting.
    cne = canonicalize(parse_regex(text, {"a"}))
    det = am.determinize(am.compile(cne, {"a"}))
    started = time.monotonic()
    mini = am.minimize(det)
    assert time.monotonic() - started < 5.0
    assert am.equivalence(mini, det) is None
    assert am.isomorphic(am.minimize(mini), mini)


@pytest.mark.parametrize("cne", [WORKED, E_HAT])
def test_minimize_total_input_skips_first_determinize(cne, monkeypatch):
    det = am.determinize(am.compile(cne, AB))
    # The same total machine under other names, plus an unreachable copy.
    renamed = {q: f"s{len(det.layers) - i}" for i, q in enumerate(det.layers)}
    unreachable = {q: f"u{i}" for i, q in enumerate(det.layers)}
    total = NominalAutomaton(
        det.sigma,
        det.n,
        {name[q]: layer for name in (unreachable, renamed) for q, layer in det.layers.items()},
        renamed[det.initial],
        [name[q] for name in (renamed, unreachable) for q in det.finals],
        [(name[s], label, name[d]) for name in (unreachable, renamed) for s, label, d in det.transitions],
    )
    calls = []
    determinize = am.determinize
    monkeypatch.setattr(am, "determinize", lambda m: calls.append(m) or determinize(m))
    assert am.to_json(am.minimize(total)) == am.to_json(am.minimize(det))
    assert len(calls) == 2  # only the final one of each minimize
    # Listed backwards, every row of delta holds its labels in reverse:
    # minimize reads the rows by label, not in row order.
    backwards = NominalAutomaton(
        total.sigma, total.n, total.layers, total.initial, total.finals, total.transitions[::-1]
    )
    calls.clear()
    assert am.to_json(am.minimize(backwards)) == am.to_json(am.minimize(det))
    assert len(calls) == 2
    # A deterministic machine with a missing edge is totalised first.
    partial = NominalAutomaton(det.sigma, det.n, det.layers, det.initial, det.finals, det.transitions[1:])
    calls.clear()
    assert am.equivalence(am.minimize(partial), partial) is None
    assert len(calls) == 2


def test_minimize_rejects_nondeterministic():
    with pytest.raises(NondeterministicInputError):
        am.minimize(am.compile(WORKED, AB))


def test_minimal_machines_unique_up_to_isomorphism():
    # Same language reached through different expressions.
    one = am.minimize(am.determinize(am.compile(canonicalize(parse_regex("a a* ", {"a"})), {"a"})))
    two = am.minimize(am.determinize(am.compile(canonicalize(parse_regex("a* a", {"a"})), {"a"})))
    assert am.isomorphic(one, two)


def test_isomorphic_checks_structure_not_language():
    det = am.determinize(am.compile(canonicalize(parse_regex("a a* + a", {"a"})), {"a"}))
    mini = am.minimize(det)
    assert (am.state_count(det), am.state_count(mini)) == (3, 2)
    assert am.equivalence(det, mini) is None and not am.isomorphic(det, mini)
    # Renamed and listed in another order, the same machine.
    rename = {q: f"s{len(mini.states) - i}" for i, q in enumerate(mini.states)}
    renamed = NominalAutomaton(
        mini.sigma,
        mini.n,
        {rename[q]: layer for q, layer in reversed(mini.layers.items())},
        rename[mini.initial],
        [rename[q] for q in mini.finals],
        [(rename[src], label, rename[dst]) for src, label, dst in reversed(mini.transitions)],
    )
    assert am.isomorphic(mini, renamed)
    with pytest.raises(NondeterministicInputError):
        am.isomorphic(am.compile(WORKED, AB), mini)


# ---------------------------------------------------------------------------
# serialization

def test_json_roundtrip_intro():
    machine = am.compile(E_HAT)
    back = am.from_json(am.to_json(machine))
    assert back.layers == machine.layers
    assert back.initial == machine.initial
    assert back.finals == machine.finals
    assert sorted(back.transitions, key=str) == sorted(machine.transitions, key=str)


def test_json_schema_errors():
    with pytest.raises(SchemaError):
        am.from_json("{not json")
    with pytest.raises(SchemaError):
        am.from_json('{"sigma": []}')
    good = am.to_json(am.compile(WORKED, AB))
    # corrupt a layer so the OPEN rule breaks
    with pytest.raises(SchemaError):
        am.from_json(good.replace('"layer": 1', '"layer": 0'))
    # dangling transition endpoint
    with pytest.raises(SchemaError):
        am.from_json(good.replace('"to": "q1"', '"to": "zz"'))
    with pytest.raises(SchemaError):
        am.from_json(good.replace('"label": "open"', '"label": "pop"'))

    def corrupted(change):
        doc = json.loads(good)
        change(doc)
        return json.dumps(doc)

    cases = [
        # a letter that is the OPEN token would pass the layer rule as OPEN
        ("sigma", lambda doc: doc.update(sigma=["<<"], transitions=[])),
        ("letter", lambda doc: doc["transitions"][0].update(label={"letter": "<<"})),
        ("duplicate state id", lambda doc: doc["states"].append({"id": "q0", "layer": 1})),
        ("n must", lambda doc: doc.update(n=True)),
        ("layer", lambda doc: doc["states"][0].update(layer=False)),
        ("idx", lambda doc: doc["transitions"][0].update(label={"idx": True})),
        # a string or an object would be iterated as if it were a list
        ("'sigma' must be a list", lambda doc: doc.update(sigma="ab")),
        ("'finals' must be a list", lambda doc: doc.update(finals={"q0": 1})),
        ("'finals' must be a list", lambda doc: doc.update(finals="q0")),
        ("'states' must be a list", lambda doc: doc.update(states={})),
        ("'transitions' must be a list", lambda doc: doc.update(transitions="")),
        ("transition entry", lambda doc: doc["transitions"][0].update(note="ignored")),
        ("transition entry", lambda doc: doc["transitions"].append(["q0", "open", "q1"])),
        ("state ids must be strings", lambda doc: doc.update(initial=["q0"])),
        ("state ids must be strings", lambda doc: doc.update(finals=[["q0"]])),
        # an unhashable id is named with its entry, before the duplicate test hashes it
        (
            r"state ids must be strings, got \{'id': \['x'\], 'layer': 0\}",
            lambda doc: doc["states"].append({"id": ["x"], "layer": 0}),
        ),
        # an unhashable transition endpoint is named with its transition
        (r"state ids must be strings, got transition \('q0', 'a', \['x'\]\)",
         lambda doc: doc["transitions"].append({"from": "q0", "label": {"letter": "a"}, "to": ["x"]})),
    ]
    for field, change in cases:
        with pytest.raises(SchemaError, match=field):
            am.from_json(corrupted(change))
    with pytest.raises(SchemaError, match="nests too deeply"):
        am.from_json("[" * 100000 + "]" * 100000)


def test_machine_survives_copy_and_pickle():
    machine = am.determinize(am.compile(WORKED, AB))
    for twin in (copy.deepcopy(machine), pickle.loads(pickle.dumps(machine))):
        assert am.to_json(twin) == am.to_json(machine)
        assert twin.alphabet == machine.alphabet
        assert twin.alphabet.moves == machine.alphabet.moves
        assert am.isomorphic(twin, machine) and am.equivalence(twin, machine) is None


def test_json_empty_machine():
    machine = NominalAutomaton(AB, 0, {"q0": 0}, "q0", [], [])
    assert am.from_json(am.to_json(machine)).layers == {"q0": 0}


def test_dot_output_shapes():
    mini = am.minimize(am.determinize(am.compile(WORKED, AB)))
    dot = am.to_dot(mini)
    assert dot.count("doublecircle") == 1
    assert dot.count("[shape=circle") + dot.count("[shape=doublecircle") == 7
    assert dot.startswith("digraph")


# A DOT quoted string runs to the first " not escaped by a backslash;
# inside it, \" stands for " and \\ for \.
_DOT_TOKEN = re.compile(r'\s*(?:"((?:[^"\\]|\\.)*)"|(->|[\[\]{};=])|([A-Za-z_][A-Za-z_0-9]*))', re.DOTALL)


def dot_quoted(text):
    """The quoted strings of a DOT text, unescaped, in order; an
    ``AssertionError`` if the text does not split into DOT tokens."""
    quoted, pos = [], 0
    while text[pos:].strip():
        token = _DOT_TOKEN.match(text, pos)
        assert token, f"no DOT token at {text[pos:pos + 20]!r}"
        if token[1] is not None:
            quoted.append(re.sub(r'\\(["\\])', r"\1", token[1]))
        pos = token.end()
    return quoted


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.text(), min_size=1, max_size=4, unique=True).flatmap(
        lambda ids: st.tuples(
            st.just(ids),
            st.lists(st.sampled_from(ids), max_size=3),
            st.lists(
                st.tuples(st.sampled_from(ids), st.sampled_from(["a", "b", EPS]), st.sampled_from(ids)), max_size=5
            ),
        )
    )
)
@example((["q\\"], [], [("q\\", "a", "q\\")]))
@example((['"', "\\", '\\"', "\n", "x\\n"], ["\\"], [('\\"', EPS, "x\\n")]))
def test_dot_quoted_ids_read_back_as_state_ids(machine):
    ids, finals, transitions = machine
    m = NominalAutomaton(AB, 0, dict.fromkeys(ids, 0), ids[0], finals, transitions)
    expected = [""]  # the start marker's empty label
    for q in ids:
        expected += [q, f"{q}\\n|0|"]
    expected.append(ids[0])
    for src, label, dst in transitions:
        expected += [src, dst, str(label)]
    assert dot_quoted(am.to_dot(m)) == expected
    assert am.to_json(am.from_json(am.to_json(m))) == am.to_json(m)
