"""Finite automata whose states track a count of open binders.

Every state carries a *layer*; an edge leads to the layer that
``Alphabet.moves`` gives its label there, and an eps edge keeps it.
The initial state and all accepting states sit at layer 0.  Along any
run the layer equals the number of binders the consumed prefix left
open, so for canonical words (where the k-th nested binder is always
register k) register contents never need to be materialised: the
machine behaves as a plain finite automaton over letters, register
indices and the two brackets, restricted to legal words.  That
restriction is what makes language equivalence exactly decidable by a
product construction.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from enum import Enum

from . import regex as rx
from .words import CLOSE, OPEN, IllegalWordError, is_legal, is_letter, letter_set, shared_alphabet


class _EpsLabel:
    """Silent-move label; only compiled machines contain it."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "eps"


EPS = _EpsLabel()


class InvalidAutomatonError(ValueError):
    """Layer bookkeeping or reference errors in an automaton description."""


class SchemaError(ValueError):
    """Malformed JSON automaton, including layer-rule violations."""


class AlphabetMismatchError(ValueError):
    pass


class NondeterministicInputError(ValueError):
    pass


class Strategy(Enum):
    SHORTEST = "shortest"
    MAX_FRESH = "max-fresh"
    MIN_FRESH = "min-fresh"


def check_strategy(strategy) -> Strategy:
    """``strategy`` if it is a ``Strategy`` member, else a ``ValueError`` naming it."""
    if not isinstance(strategy, Strategy):
        raise ValueError(f"strategy must be a Strategy member, got {strategy!r}")
    return strategy


_NO_ROW = {}  # the row of a position that has left its machine's edges; never written


def reachable_from(starts, successors):
    """Everything reachable from ``starts`` through ``successors``, starts included."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for succ in successors(stack.pop()):
            if succ not in seen:
                seen.add(succ)
                stack.append(succ)
    return seen


def _closed(eps, state):
    """The eps closure of ``state`` under ``eps``, ``{src: [dst, ...]}``, as a frozenset."""
    return frozenset(reachable_from([state], lambda q: eps.get(q, ())))


def _successor_rows(first, eps, more):
    """``{src: {label: the eps-closed set of the targets}}``, from the first
    targets, the eps edges and the further targets; a label with one
    target shares that state's closure."""
    closures = {}

    def closure(state):
        if state not in closures:
            closures[state] = _closed(eps, state)
        return closures[state]

    rows = {src: {label: closure(dst) for label, dst in row.items()} for src, row in first.items()}
    for (src, label), dsts in more.items():
        rows[src][label] = rows[src][label].union(*map(closure, dsts))
    return rows


def _collection(value, field, items):
    """``value`` unless it is a string (its characters) or not iterable."""
    if isinstance(value, str) or not hasattr(value, "__iter__"):
        raise InvalidAutomatonError(f"{field} must be a collection of {items}, not {value!r}")
    return value


def _triple(transition):
    """``transition`` as a tuple.  Only a tuple or a list of three items
    counts: a three-item string or dict would unpack as well."""
    if not isinstance(transition, (tuple, list)) or len(transition) != 3:
        raise InvalidAutomatonError(f"transition {transition!r} is not a (src, label, dst) triple")
    return tuple(transition)


class NominalAutomaton:
    """Immutable automaton over letters, register indices and binder brackets.

    ``layers`` maps state ids (strings) to their layer; ``transitions``
    is a sequence of (src, label, dst) triples with labels drawn from
    sigma, ints, OPEN, CLOSE or EPS.  ``alphabet`` is the shared token
    alphabet of sigma and n.  ``deterministic`` means no eps edge and one
    target per (state, label); such a machine exposes its edges as
    ``delta``, ``{state: {label: dst}}`` with a row for every state, which
    callers must not mutate, and ``accepts``, ``determinize`` and
    ``equivalence`` walk it.  Otherwise ``delta`` is None.  ``start`` is
    the eps-closed start set.  ``row(states)`` maps each label to the
    eps-closed set it leads to from ``states``.  The per-state rows behind
    ``row`` are built on the first read, so a machine that is only walked
    through ``delta`` never builds them.
    """

    def __init__(self, sigma, n, layers, initial, finals, transitions):
        try:
            self.alphabet = shared_alphabet(sigma, n)
        except ValueError as exc:
            raise InvalidAutomatonError(str(exc)) from exc
        self.sigma, self.n = self.alphabet.sigma, self.alphabet.n
        if not isinstance(layers, Mapping):
            raise InvalidAutomatonError(f"layers must map state ids to layers, got {layers!r}")
        finals = list(_collection(finals, "finals", "state ids"))
        for state in (*layers, initial, *finals):  # before anything hashes them
            if not isinstance(state, str):
                raise InvalidAutomatonError(f"state ids must be strings, got {state!r}")
        self.layers = layers = dict(layers)
        self.initial = initial
        self.finals = frozenset(finals)
        transitions = tuple(_collection(transitions, "transitions", "(src, label, dst) triples"))
        if set(map(type, transitions)) <= {tuple} and set(map(len, transitions)) <= {3}:
            self.transitions = transitions
        else:
            self.transitions = tuple(map(_triple, transitions))
        self._validate()
        # One pass checks each edge against the move table and indexes it:
        # delta[src][label] holds the first target, more[(src, label)] the rest.
        moves, sigma, eps, more, delta = self.alphabet.moves, self.sigma, {}, {}, {q: {} for q in layers}
        for src, label, dst in self.transitions:
            if not isinstance(src, str) or not isinstance(dst, str):  # before hashing them
                raise InvalidAutomatonError(f"state ids must be strings, got transition {(src, label, dst)}")
            lsrc, ldst = layers.get(src), layers.get(dst)  # ints, as _validate checked
            if lsrc is None or ldst is None:
                raise InvalidAutomatonError(f"transition references unknown state: {(src, label, dst)}")
            if label is EPS:
                ok = ldst == lsrc
                eps.setdefault(src, []).append(dst)
            elif isinstance(label, str) and label in sigma or type(label) is int or label in (OPEN, CLOSE):
                ok = moves[lsrc].get(label) == ldst
                row = delta[src]
                if label in row:
                    more.setdefault((src, label), []).append(dst)
                else:
                    row[label] = dst
            else:
                raise InvalidAutomatonError(f"unknown label {label!r}")
            if not ok:
                raise InvalidAutomatonError(f"layer rule violated by {(src, label, dst)}")
        # A duplicated edge counts as two targets, so it is nondeterministic.
        self.deterministic = not eps and not more
        self.delta = delta if self.deterministic else None
        self.start = _closed(eps, initial) if eps else frozenset((initial,))
        self._edges, self._rows = (delta, eps, more), None  # the first row read builds _rows

    def _validate(self):
        for state, layer in self.layers.items():
            if type(layer) is not int or not 0 <= layer <= self.n:
                raise InvalidAutomatonError(f"state {state}: layer {layer!r} is not an int in 0..{self.n}")
        if self.initial not in self.layers:
            raise InvalidAutomatonError(f"unknown initial state {self.initial!r}")
        if self.layers[self.initial] != 0:
            raise InvalidAutomatonError("initial state must have layer 0")
        for state in self.finals:
            if state not in self.layers:
                raise InvalidAutomatonError(f"unknown final state {state!r}")
            if self.layers[state] != 0:
                raise InvalidAutomatonError(f"final state {state} must have layer 0")

    @property
    def states(self):
        return tuple(self.layers)

    def row(self, states):
        """``{label: the eps-closed set one label move leads to from states}``,
        with no key for a label that leads nowhere; read it by label, and do
        not mutate it.  A single state's row is shared, a larger set's is the
        label-wise union of its states' rows."""
        rows = self._rows
        if rows is None:  # a plain attribute: a descriptor would slow each read
            rows = self._rows = _successor_rows(*self._edges)
        if len(states) == 1:
            [q] = states
            return rows.get(q, _NO_ROW)
        parts = {}
        for q in states:
            for label, dsts in rows.get(q, _NO_ROW).items():
                parts.setdefault(label, []).append(dsts)
        return {label: dsts[0] if len(dsts) == 1 else frozenset().union(*dsts) for label, dsts in parts.items()}

    def __repr__(self):
        return (
            f"NominalAutomaton(states={len(self.layers)}, n={self.n}, "
            f"finals={len(self.finals)}, transitions={len(self.transitions)})"
        )


def state_count(m: NominalAutomaton) -> int:
    return len(m.layers)


# ---------------------------------------------------------------------------
# compilation from canonical expressions

def compile(cne, sigma=None) -> NominalAutomaton:
    """Thompson-style construction; the result accepts exactly the
    denotation of ``cne`` and has max layer theta(cne)."""
    if not rx.is_canonical(cne):
        raise rx.NotCanonicalError(f"not canonical: {rx.format_regex(cne)}")
    used = rx.letters_of(cne)
    sigma = used if sigma is None else letter_set(sigma)
    if not used <= sigma:
        raise ValueError(f"expression uses letters outside sigma: {sorted(used - sigma)}")

    layers = {}
    transitions = []

    def new_state(layer):
        state = f"q{len(layers)}"
        layers[state] = layer
        return state

    def build(node, layer):
        start, end = new_state(layer), new_state(layer)
        if isinstance(node, rx.Empty):
            pass
        elif isinstance(node, rx.Epsilon):
            transitions.append((start, EPS, end))
        elif isinstance(node, rx.Letter):
            transitions.append((start, node.symbol, end))
        elif isinstance(node, rx.Name):
            transitions.append((start, node.ident, end))
        elif isinstance(node, rx.Sum):
            ls, le = build(node.left, layer)
            rs, re_ = build(node.right, layer)
            transitions.extend(
                [(start, EPS, ls), (start, EPS, rs), (le, EPS, end), (re_, EPS, end)]
            )
        elif isinstance(node, rx.Concat):
            ls, le = build(node.left, layer)
            rs, re_ = build(node.right, layer)
            transitions.extend([(start, EPS, ls), (le, EPS, rs), (re_, EPS, end)])
        elif isinstance(node, rx.Star):
            bs, be = build(node.body, layer)
            transitions.extend(
                [(start, EPS, end), (start, EPS, bs), (be, EPS, bs), (be, EPS, end)]
            )
        elif isinstance(node, rx.Binder):
            bs, be = build(node.body, layer + 1)
            transitions.extend([(start, OPEN, bs), (be, CLOSE, end)])
        else:
            raise TypeError(f"not a regex node: {node!r}")
        return start, end

    start, end = build(cne, 0)
    # Drop states the construction left unreachable (Empty leaves dangle).
    forward = {}
    for src, _, dst in transitions:
        forward.setdefault(src, []).append(dst)
    reachable = reachable_from([start], lambda q: forward.get(q, ()))
    layers = {q: layer for q, layer in layers.items() if q in reachable}
    transitions = [t for t in transitions if t[0] in reachable and t[2] in reachable]
    finals = [end] if end in reachable else []
    return NominalAutomaton(sigma, rx.theta(cne), layers, start, finals, transitions)


# ---------------------------------------------------------------------------
# acceptance

def accepts(m: NominalAutomaton, word) -> bool:
    """Whether ``m`` accepts ``word``, which must be legal for the machine's
    alphabet: the word moves the machine's position (see ``_positions``)
    one token at a time, and is rejected once it has no edge."""
    if not is_legal(word, m.alphabet):
        raise IllegalWordError(f"word is not legal for this automaton: {word!r}")
    position, row_of, accepting = _positions(m)
    for tok in word:
        position = row_of(position)(tok)
        if position is None:
            return False
    return accepting(position)


# ---------------------------------------------------------------------------
# determinization

def determinize(m: NominalAutomaton) -> NominalAutomaton:
    """Subset construction restricted to legal continuations.

    The result is silent-move free and *total on legal labels*: from a
    layer-l state every letter, every register 1..l, OPEN below layer
    ``m.n`` and CLOSE above layer 0 has exactly one successor.  Missing
    behaviour is routed to one non-accepting sink per layer, materialised
    on demand.  Subsets never mix layers: the constructor checks that the
    initial state sits at layer 0, that an eps edge keeps its layer and
    that every other edge leads to the layer ``Alphabet.moves`` gives
    its label from its source's layer.  States are numbered
    breadth-first in label order, so the result is the canonical form
    that ``isomorphic`` compares.

    States are keyed by (position, layer), a position as ``_positions``
    reads it: a deterministic machine's state stands for its singleton,
    so its edges are read from ``delta``, and a layer's sink is its None
    position, the empty subset.
    """
    start, row_of, accepting = _positions(m)
    order = [(start, 0)]
    ids = {order[0]: "q0"}
    transitions = []
    for key in order:  # grows while it is walked: breadth-first
        position, layer = key
        row = row_of(position)
        for label, nlayer in m.alphabet.moves[layer].items():
            dst = (row(label), nlayer)
            if dst not in ids:
                ids[dst] = f"q{len(ids)}"
                order.append(dst)
            transitions.append((ids[key], label, ids[dst]))
    layers = {ids[key]: key[1] for key in order}
    finals = [ids[key] for key in order if accepting(key[0])]
    return NominalAutomaton(m.sigma, m.n, layers, "q0", finals, transitions)


# ---------------------------------------------------------------------------
# equivalence with counterexample extraction

def equivalence(m1: NominalAutomaton, m2: NominalAutomaton, strategy=Strategy.SHORTEST):
    """None if both machines accept the same legal words, else a word in
    the symmetric difference.

    The witness is picked deterministically: minimum length first, then
    (for MAX_FRESH / MIN_FRESH) maximal or minimal binder depth among the
    minimum-length witnesses, then lexicographic in the fixed label
    order.  Works on arbitrary inputs, over the labels legal at the
    larger layer bound.

    The product is searched breadth-first, expanding edges in label
    order, and each node keeps the edge it was first reached by.  A word
    leads to one node, so by induction on the length each level is
    discovered in the order of its nodes' least words, and the first
    parent of a node extends the least word of the level before that
    reaches it.  The path back through the parents is thus the least
    shortest word, so the witness is the first differing node of the
    level (of those with the extreme depth, for the fresh strategies).

    The fresh strategies also key nodes by depth, and prune them in two
    steps; a word's completions depend only on its pair (positions and
    layer).  A successor whose pair was first reached at a shorter
    length is dropped: that shorter word has a shorter witness.  At the
    same length, one whose depth is no more extreme than that kept for
    its pair is dropped: the kept word is lex-smaller and at least as
    extreme on every completion.  So no prefix of the witness is
    dropped.  This search runs only once the depth-free one has found
    that a witness exists.
    """
    check_strategy(strategy)
    if m1.sigma != m2.sigma:
        raise AlphabetMismatchError(
            f"letter alphabets differ: {sorted(m1.sigma)} vs {sorted(m2.sigma)}"
        )
    moves = max(m1, m2, key=lambda m: m.n).alphabet.moves
    fresh = strategy is not Strategy.SHORTEST
    if fresh and equivalence(m1, m2) is None:
        return None
    sign = 1 if strategy is Strategy.MAX_FRESH else -1  # sign * depth grows with extremity

    # Nodes are (position1, position2, layer, peak): where each machine is
    # (see _positions), told apart by the layer where neither has a state,
    # and, for the fresh strategies only, the binder depth of the node's
    # words (0 otherwise, so a layer holds one node per pair of positions).
    (start1, row1_of, final1), (start2, row2_of, final2) = _positions(m1), _positions(m2)
    start = (start1, start2, 0, 0)
    parent = {start: None}
    kept = {start[:3]: (0, 0)}  # fresh only: pair -> the greatest (-level, sign * depth) kept for it
    frontier = [start]
    level = 0
    while frontier:
        hits = [node for node in frontier if final1(node[0]) != final2(node[1])]
        if hits:
            word = []
            node = max(hits, key=lambda node: sign * node[3])  # the first of the extreme depth
            while parent[node] is not None:
                node, label = parent[node]
                word.append(label)
            return tuple(reversed(word))
        level += 1
        next_frontier = []
        for node in frontier:
            pos1, pos2, layer, peak = node
            row1, row2 = row1_of(pos1), row2_of(pos2)
            for label, nlayer in moves[layer].items():
                peak_after = max(peak, nlayer) if fresh else 0
                succ = (row1(label), row2(label), nlayer, peak_after)
                if succ not in parent:
                    if fresh:
                        rank = (-level, sign * peak_after)
                        if kept.get(succ[:3], rank) > rank:
                            continue
                        kept[succ[:3]] = rank
                    parent[succ] = (node, label)
                    next_frontier.append(succ)
        frontier = next_frontier
    return None


def _positions(m: NominalAutomaton):
    """How ``accepts``, ``determinize`` and ``equivalence`` read ``m``:
    (start, row(position), accepting(position)), ``row(position)(label)``
    being the position one ``label`` move leads to.  A deterministic
    machine's position is its state and its row is read from ``delta``;
    any other machine's is its eps-closed state set and its row is
    ``row``'s.  Either is None once it has no edge.  For a deterministic
    machine, q <-> {q} and None <-> the empty set map one reading onto the
    other node for node, so no answer, witness or numbering depends on
    the reading."""
    if m.deterministic:
        delta = m.delta
        return m.initial, lambda q: delta.get(q, _NO_ROW).get, m.finals.__contains__
    finals, row = m.finals, m.row
    return (
        m.start,
        lambda states: (_NO_ROW if states is None else row(states)).get,
        lambda states: states is not None and not finals.isdisjoint(states),
    )


# ---------------------------------------------------------------------------
# minimization

def minimize(m: NominalAutomaton) -> NominalAutomaton:
    """Hopcroft's partition refinement over the legality-restricted
    behaviour, numbered straight from its blocks.

    Input must be deterministic and silent-move free.  The result is the
    unique smallest machine that is total on legal labels and accepts the
    same legal words; per-layer dead states count, so sinks survive where
    the language needs them.

    Refinement starts from the (layer, final) blocks and keeps a worklist
    of splitter blocks; a block split while it waits is replaced by both
    halves, any other by the smaller half, so each state lies in
    O(log states) of the splitters taken (Hopcroft 1971).  Whether a
    label is legal depends only on the layer, so no block ever splits on
    having an edge and the total-function algorithm applies.  The blocks
    are then numbered breadth-first from the initial block, in ``moves``
    order: what ``determinize`` does to the quotient, so the result is
    the canonical form whatever order the blocks split in.
    """
    if not m.deterministic:
        raise NondeterministicInputError("minimize requires a deterministic automaton")
    # Refinement needs a machine total on legal labels.  The constructor
    # admits a non-eps edge only if its label is a key of ``moves`` at its
    # source's layer, so a deterministic machine with as many edges as
    # legal labels is total already; its unreachable states are never
    # numbered.  Rows of ``d.delta`` are read by label, in ``moves``
    # order, never in the order the edges were listed.
    moves = m.alphabet.moves
    legal = sum(len(moves[layer]) for layer in m.layers.values())
    d = m if len(m.transitions) == legal else determinize(m)
    delta, layers, finals = d.delta, d.layers, d.finals

    sources = {q: {} for q in layers}  # sources[dst][label]: the states label leads to dst from
    for src, row in delta.items():
        for label, dst in row.items():
            sources[dst].setdefault(label, []).append(src)
    kinds = {}  # (layer, final) -> its states: the first blocks
    for q, layer in layers.items():
        kinds.setdefault((layer, q in finals), set()).add(q)
    blocks = list(kinds.values())
    block_of = {q: b for b, members in enumerate(blocks) for q in members}
    waiting = set(range(len(blocks)))
    while waiting:
        into = {}  # label -> the states it leads into the splitter from
        for dst in blocks[waiting.pop()]:
            for label, srcs in sources[dst].items():
                into.setdefault(label, []).extend(srcs)
        for srcs in into.values():
            hit = {}  # block -> its states in srcs, each once: d is deterministic
            for q in srcs:
                hit.setdefault(block_of[q], []).append(q)
            for b, moved in hit.items():
                rest = blocks[b]
                if len(moved) == len(rest):
                    continue
                rest.difference_update(moved)
                new = len(blocks)
                blocks.append(set(moved))
                for q in moved:
                    block_of[q] = new
                waiting.add(new if b in waiting or len(moved) <= len(rest) else b)

    initial = block_of[d.initial]
    order, ids = [initial], {initial: "q0"}
    out_layers, out_finals, transitions = {}, [], []
    for b in order:  # grows while it is walked: breadth-first
        q, src = next(iter(blocks[b])), ids[b]  # any member: all lead to the same blocks
        out_layers[src] = layers[q]
        if q in finals:
            out_finals.append(src)
        row = delta[q]
        for label in moves[layers[q]]:
            dst = block_of[row[label]]
            if dst not in ids:
                ids[dst] = f"q{len(ids)}"
                order.append(dst)
            transitions.append((src, label, ids[dst]))
    return NominalAutomaton(d.sigma, d.n, out_layers, "q0", out_finals, transitions)


def isomorphic(m1: NominalAutomaton, m2: NominalAutomaton) -> bool:
    """Whether two deterministic machines are the same up to state renaming.

    Compares their ``determinize`` forms: the reachable parts, totalised
    on legal labels, so a missing edge equals an edge into a rejecting
    sink.  ``minimize`` results and ``to_automaton`` hypotheses have an
    edge for every legal label, so for them this is the plain check.
    """
    if not (m1.deterministic and m2.deterministic):
        raise NondeterministicInputError("isomorphic requires deterministic automata")
    return to_document(determinize(m1)) == to_document(determinize(m2))


# ---------------------------------------------------------------------------
# serialization

def _label_to_json(label):
    if isinstance(label, _EpsLabel):
        return "eps"
    if label == OPEN:
        return "open"
    if label == CLOSE:
        return "close"
    if isinstance(label, int):
        return {"idx": label}
    return {"letter": label}


def _label_from_json(obj):
    if obj == "eps":
        return EPS
    if obj == "open":
        return OPEN
    if obj == "close":
        return CLOSE
    if isinstance(obj, dict) and set(obj) == {"idx"} and type(obj["idx"]) is int:
        return obj["idx"]
    if isinstance(obj, dict) and set(obj) == {"letter"} and is_letter(obj["letter"]):
        return obj["letter"]
    raise SchemaError(f"bad transition label: {obj!r}")


def to_document(m: NominalAutomaton) -> dict:
    """The JSON document of ``m``, built fresh; ``to_json`` dumps it."""
    return {
        "sigma": sorted(m.sigma),
        "n": m.n,
        "states": [{"id": q, "layer": layer} for q, layer in m.layers.items()],
        "initial": m.initial,
        "finals": sorted(m.finals, key=lambda s: (len(s), s)),
        "transitions": [
            {"from": src, "label": _label_to_json(label), "to": dst}
            for src, label, dst in m.transitions
        ],
    }


def to_json(m: NominalAutomaton) -> str:
    return json.dumps(to_document(m), indent=2) + "\n"


def from_json(text: str) -> NominalAutomaton:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # bad syntax, or a number too long for int()
        raise SchemaError(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise SchemaError("document nests too deeply") from None
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for field in ("sigma", "n", "states", "initial", "finals", "transitions"):
        if field not in doc:
            raise SchemaError(f"missing field {field!r}")
        if field not in ("n", "initial") and not isinstance(doc[field], list):
            raise SchemaError(f"field {field!r} must be a list")
    try:
        layers = {}
        for entry in doc["states"]:
            if not isinstance(entry, dict) or set(entry) != {"id", "layer"}:
                raise SchemaError(f"bad state entry: {entry!r}")
            if not isinstance(entry["id"], str):
                raise SchemaError(f"state ids must be strings, got {entry!r}")
            if entry["id"] in layers:
                raise SchemaError(f"duplicate state id {entry['id']!r}")
            layers[entry["id"]] = entry["layer"]
        transitions = []
        for t in doc["transitions"]:
            if not isinstance(t, dict) or set(t) != {"from", "label", "to"}:
                raise SchemaError(f"bad transition entry: {t!r}")
            transitions.append((t["from"], _label_from_json(t["label"]), t["to"]))
        return NominalAutomaton(
            doc["sigma"], doc["n"], layers, doc["initial"], doc["finals"], transitions
        )
    except (InvalidAutomatonError, TypeError, RecursionError) as exc:  # repr of a deep entry
        raise SchemaError(str(exc)) from exc


def to_dot(m: NominalAutomaton) -> str:
    """Graphviz rendering: layers annotate nodes, finals are doubled."""

    def esc(text):
        return str(text).replace("\\", "\\\\").replace('"', '\\"')

    lines = ["digraph nominal_automaton {", "  rankdir=LR;", '  __start [shape=point label=""];']
    for q, layer in m.layers.items():
        shape = "doublecircle" if q in m.finals else "circle"
        lines.append(f'  "{esc(q)}" [shape={shape} label="{esc(q)}\\n|{layer}|"];')
    lines.append(f'  __start -> "{esc(m.initial)}";')
    for src, label, dst in m.transitions:
        lines.append(f'  "{esc(src)}" -> "{esc(dst)}" [label="{esc(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
