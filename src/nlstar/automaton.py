"""Finite automata whose states track a count of open binders.

Every state carries a *layer*; OPEN transitions step it up, CLOSE
transitions step it down, everything else stays level.  The initial
state and all accepting states sit at layer 0.  Along any run the layer
equals the number of binders the consumed prefix left open, so for
canonical words (where the k-th nested binder is always register k)
register contents never need to be materialised: the machine behaves as
a plain finite automaton over letters, register indices and the two
brackets, restricted to legal words.  That restriction is what makes
language equivalence exactly decidable by a product construction.
"""

from __future__ import annotations

import json
from enum import Enum

from . import regex as rx
from .words import CLOSE, OPEN, Alphabet, IllegalWordError, is_legal


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


def _label_key(label):
    """Fixed label order: letters, then registers, then OPEN, CLOSE, eps."""
    if isinstance(label, _EpsLabel):
        return (4, "")
    if label == OPEN:
        return (2, "")
    if label == CLOSE:
        return (3, "")
    if isinstance(label, int):
        return (1, f"{label:09d}")
    return (0, label)


class NominalAutomaton:
    """Immutable automaton over letters, register indices and binder brackets.

    ``layers`` maps state ids (strings) to their layer; ``transitions``
    is a sequence of (src, label, dst) triples with labels drawn from
    sigma, ints, OPEN, CLOSE or EPS.
    """

    def __init__(self, sigma, n, layers, initial, finals, transitions):
        self.sigma = frozenset(sigma)
        self.n = int(n)
        self.layers = dict(layers)
        self.initial = initial
        self.finals = frozenset(finals)
        self.transitions = tuple(tuple(t) for t in transitions)
        self._validate()
        self._succ = {}
        for src, label, dst in self.transitions:
            self._succ.setdefault((src, label), []).append(dst)
        self._closure_cache = {}

    def _validate(self):
        if self.n < 0:
            raise InvalidAutomatonError("n must be non-negative")
        for state, layer in self.layers.items():
            if not isinstance(state, str):
                raise InvalidAutomatonError(f"state ids must be strings, got {state!r}")
            if not 0 <= layer <= self.n:
                raise InvalidAutomatonError(f"state {state} has layer {layer} outside 0..{self.n}")
        if self.initial not in self.layers:
            raise InvalidAutomatonError(f"unknown initial state {self.initial!r}")
        if self.layers[self.initial] != 0:
            raise InvalidAutomatonError("initial state must have layer 0")
        for state in self.finals:
            if state not in self.layers:
                raise InvalidAutomatonError(f"unknown final state {state!r}")
            if self.layers[state] != 0:
                raise InvalidAutomatonError(f"final state {state} must have layer 0")
        for src, label, dst in self.transitions:
            if src not in self.layers or dst not in self.layers:
                raise InvalidAutomatonError(f"transition references unknown state: {(src, label, dst)}")
            lsrc, ldst = self.layers[src], self.layers[dst]
            if label == OPEN:
                ok = ldst == lsrc + 1
            elif label == CLOSE:
                ok = ldst == lsrc - 1
            elif isinstance(label, _EpsLabel):
                ok = ldst == lsrc
            elif isinstance(label, int):
                ok = ldst == lsrc and 1 <= label <= lsrc
            elif isinstance(label, str) and label in self.sigma:
                ok = ldst == lsrc
            else:
                raise InvalidAutomatonError(f"unknown label {label!r}")
            if not ok:
                raise InvalidAutomatonError(f"layer rule violated by {(src, label, dst)}")

    @property
    def states(self):
        return tuple(self.layers)

    def successors(self, state, label):
        return tuple(self._succ.get((state, label), ()))

    @property
    def has_eps(self):
        return any(isinstance(label, _EpsLabel) for _, label, _ in self.transitions)

    @property
    def deterministic(self):
        if self.has_eps:
            return False
        return all(len(v) <= 1 for v in self._succ.values())

    def eps_closure(self, states):
        out = set()
        for state in states:
            cached = self._closure_cache.get(state)
            if cached is None:
                cached = set()
                stack = [state]
                while stack:
                    q = stack.pop()
                    if q in cached:
                        continue
                    cached.add(q)
                    stack.extend(self._succ.get((q, EPS), ()))
                self._closure_cache[state] = frozenset(cached)
                cached = self._closure_cache[state]
            out |= cached
        return frozenset(out)

    def __repr__(self):
        return (
            f"NominalAutomaton(states={len(self.layers)}, n={self.n}, "
            f"finals={len(self.finals)}, transitions={len(self.transitions)})"
        )


def state_count(m: NominalAutomaton) -> int:
    return len(m.layers)


def _legal_labels(sigma, n, layer):
    """Labels a legal word may continue with from the given layer."""
    out = list(sorted(sigma))
    out.extend(range(1, layer + 1))
    if layer < n:
        out.append(OPEN)
    if layer > 0:
        out.append(CLOSE)
    return out


# ---------------------------------------------------------------------------
# compilation from canonical expressions

def compile(cne, sigma=None) -> NominalAutomaton:
    """Thompson-style construction; the result accepts exactly the
    denotation of ``cne`` and has max layer theta(cne)."""
    if not rx.is_canonical(cne):
        raise rx.NotCanonicalError(f"not canonical: {rx.format_regex(cne)}")
    used = rx.letters_of(cne)
    if sigma is None:
        sigma = used
    else:
        sigma = frozenset(sigma)
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
    reachable = {start}
    stack = [start]
    while stack:
        for succ in forward.get(stack.pop(), ()):
            if succ not in reachable:
                reachable.add(succ)
                stack.append(succ)
    layers = {q: layer for q, layer in layers.items() if q in reachable}
    transitions = [t for t in transitions if t[0] in reachable and t[2] in reachable]
    finals = [end] if end in reachable else []
    return NominalAutomaton(sigma, rx.theta(cne), layers, start, finals, transitions)


# ---------------------------------------------------------------------------
# acceptance

def accepts(m: NominalAutomaton, word) -> bool:
    """Breadth-first closure over configurations; the word must be legal
    for the machine's alphabet."""
    if not is_legal(word, Alphabet(m.sigma, m.n)):
        raise IllegalWordError(f"word is not legal for this automaton: {word!r}")
    current = m.eps_closure([m.initial])
    for tok in word:
        stepped = set()
        for q in current:
            stepped.update(m.successors(q, tok))
        current = m.eps_closure(stepped)
        if not current:
            return False
    return bool(current & m.finals)


# ---------------------------------------------------------------------------
# determinization

def determinize(m: NominalAutomaton, n=None) -> NominalAutomaton:
    """Subset construction restricted to legal continuations.

    The result is silent-move free and *total on legal labels*: from a
    layer-l state every letter, every register 1..l, OPEN below layer
    ``n`` and CLOSE above layer 0 has exactly one successor.  Missing
    behaviour is routed to one non-accepting sink per layer, materialised
    on demand.  Subsets never mix layers because all labels shift layers
    uniformly.
    """
    n = m.n if n is None else int(n)
    if n < m.n:
        raise ValueError(f"cannot shrink layer bound {m.n} to {n}")

    start = m.eps_closure([m.initial])
    start_layers = {m.layers[q] for q in start}
    if start_layers != {0}:
        raise InvalidAutomatonError("initial closure mixes layers")

    ids = {}
    layers = {}
    transitions = []
    order = []

    def intern(key, layer):
        if key not in ids:
            ids[key] = f"q{len(ids)}"
            layers[ids[key]] = layer
            order.append((key, layer))
        return ids[key]

    intern(start, 0)
    index = 0
    while index < len(order):
        key, layer = order[index]
        index += 1
        src = ids[key]
        for label in _legal_labels(m.sigma, n, layer):
            if label == OPEN:
                nlayer = layer + 1
            elif label == CLOSE:
                nlayer = layer - 1
            else:
                nlayer = layer
            if isinstance(key, tuple) and key[0] == "sink":
                dst = intern(("sink", nlayer), nlayer)
            else:
                stepped = set()
                for q in key:
                    stepped.update(m.successors(q, label))
                closed = m.eps_closure(stepped)
                if closed:
                    got = {m.layers[q] for q in closed}
                    if got != {nlayer}:
                        raise InvalidAutomatonError("subset mixes layers")
                    dst = intern(closed, nlayer)
                else:
                    dst = intern(("sink", nlayer), nlayer)
            transitions.append((src, label, dst))
    finals = [
        ids[key]
        for key, _ in order
        if not (isinstance(key, tuple) and key[0] == "sink") and key & m.finals
    ]
    return NominalAutomaton(m.sigma, n, layers, ids[start], finals, transitions)


# ---------------------------------------------------------------------------
# equivalence with counterexample extraction

def equivalence(m1: NominalAutomaton, m2: NominalAutomaton, strategy=Strategy.SHORTEST):
    """None if both machines accept the same legal words, else a word in
    the symmetric difference.

    The witness is picked deterministically: minimum length first, then
    (for MAX_FRESH / MIN_FRESH) maximal or minimal binder depth among the
    minimum-length witnesses, then lexicographic in the fixed label
    order.  Works on arbitrary inputs; both sides are determinized over
    the larger layer bound first.
    """
    if m1.sigma != m2.sigma:
        raise AlphabetMismatchError(
            f"letter alphabets differ: {sorted(m1.sigma)} vs {sorted(m2.sigma)}"
        )
    n = max(m1.n, m2.n)
    d1 = determinize(m1, n)
    d2 = determinize(m2, n)
    delta1 = {(src, label): dst for src, label, dst in d1.transitions}
    delta2 = {(src, label): dst for src, label, dst in d2.transitions}

    def differing(node):
        s1, s2, _ = node
        return (s1 in d1.finals) != (s2 in d2.finals)

    # Nodes are (state1, state2, max-layer-so-far); edge labels follow the
    # fixed label order so adjacency lists are already sorted.
    start = (d1.initial, d2.initial, 0)
    adjacency = {}
    frontier = [start]
    seen = {start}
    candidates = []
    dist = 0
    target_dist = None
    while frontier and target_dist is None:
        hits = [node for node in frontier if differing(node)]
        if hits:
            candidates = hits
            target_dist = dist
            break
        next_frontier = []
        for node in frontier:
            s1, s2, peak = node
            layer = d1.layers[s1]
            edges = []
            for label in _legal_labels(m1.sigma, n, layer):
                nlayer = layer + 1 if label == OPEN else layer - 1 if label == CLOSE else layer
                succ = (delta1[(s1, label)], delta2[(s2, label)], max(peak, nlayer))
                edges.append((label, succ))
                if succ not in seen:
                    seen.add(succ)
                    next_frontier.append(succ)
            adjacency[node] = edges
        frontier = next_frontier
        dist += 1
    if target_dist is None:
        return None

    if strategy is Strategy.MAX_FRESH:
        pick = max(node[2] for node in candidates)
        targets = {node for node in candidates if node[2] == pick}
    elif strategy is Strategy.MIN_FRESH:
        pick = min(node[2] for node in candidates)
        targets = {node for node in candidates if node[2] == pick}
    else:
        targets = set(candidates)

    # Exact-length backward reachability, then a greedy lexicographic walk.
    reach = [targets]
    for _ in range(target_dist):
        prev = reach[-1]
        reach.append(
            {node for node, edges in adjacency.items() if any(dst in prev for _, dst in edges)}
        )
    node = start
    word = []
    for remaining in range(target_dist, 0, -1):
        for label, succ in adjacency[node]:
            if succ in reach[remaining - 1]:
                word.append(label)
                node = succ
                break
        else:
            raise AssertionError("witness reconstruction lost the target set")
    return tuple(word)


# ---------------------------------------------------------------------------
# minimization

def minimize(m: NominalAutomaton) -> NominalAutomaton:
    """Partition refinement over the legality-restricted behaviour.

    Input must be deterministic and silent-move free.  The result is the
    unique smallest machine that is total on legal labels and accepts the
    same legal words; per-layer dead states count, so sinks survive where
    the language needs them.
    """
    if m.has_eps or not m.deterministic:
        raise NondeterministicInputError("minimize requires a deterministic automaton")
    d = determinize(m)  # reachable part, totalised on legal labels
    delta = {(src, label): dst for src, label, dst in d.transitions}
    states = list(d.layers)

    block = {q: (d.layers[q], q in d.finals) for q in states}
    while True:
        refined = {
            q: (
                block[q],
                tuple(block[delta[(q, label)]] for label in _legal_labels(d.sigma, d.n, d.layers[q])),
            )
            for q in states
        }
        if len(set(refined.values())) == len(set(block.values())):
            break
        # Renumber to ints, or signatures nest the previous round's and grow each round.
        number = {}
        block = {q: number.setdefault(sig, len(number)) for q, sig in refined.items()}

    # Canonical renumbering: breadth-first from the initial block in label order.
    rep = {}
    for q in states:
        rep.setdefault(block[q], q)
    ids = {}
    layers = {}
    order = []

    def intern(b):
        if b not in ids:
            ids[b] = f"q{len(ids)}"
            layers[ids[b]] = d.layers[rep[b]]
            order.append(b)
        return ids[b]

    intern(block[d.initial])
    transitions = []
    index = 0
    while index < len(order):
        b = order[index]
        index += 1
        q = rep[b]
        for label in _legal_labels(d.sigma, d.n, d.layers[q]):
            transitions.append((ids[b], label, intern(block[delta[(q, label)]])))
    finals = sorted(
        {ids[block[q]] for q in d.finals if block[q] in ids}, key=lambda s: int(s[1:])
    )
    return NominalAutomaton(d.sigma, d.n, layers, ids[block[d.initial]], finals, transitions)


def canonical_form(m: NominalAutomaton):
    """Structure of a deterministic machine up to state renaming.

    Two reachable deterministic machines are isomorphic iff their
    canonical forms are equal.
    """
    if m.has_eps or not m.deterministic:
        raise NondeterministicInputError("canonical_form requires a deterministic automaton")
    number = {m.initial: 0}
    order = [m.initial]
    index = 0
    rows = []
    while index < len(order):
        q = order[index]
        index += 1
        edges = []
        for label in _legal_labels(m.sigma, m.n, m.layers[q]):
            succ = m.successors(q, label)
            if not succ:
                continue
            dst = succ[0]
            if dst not in number:
                number[dst] = len(number)
                order.append(dst)
            edges.append((_label_key(label), label, number[dst]))
        rows.append((m.layers[q], q in m.finals, tuple(edges)))
    return (tuple(sorted(m.sigma)), m.n, tuple(rows))


def isomorphic(m1: NominalAutomaton, m2: NominalAutomaton) -> bool:
    return canonical_form(m1) == canonical_form(m2)


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
    if isinstance(obj, dict) and set(obj) == {"idx"} and isinstance(obj["idx"], int):
        return obj["idx"]
    if isinstance(obj, dict) and set(obj) == {"letter"} and isinstance(obj["letter"], str):
        return obj["letter"]
    raise SchemaError(f"bad transition label: {obj!r}")


def to_json(m: NominalAutomaton) -> str:
    doc = {
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
    return json.dumps(doc, indent=2) + "\n"


def from_json(text: str) -> NominalAutomaton:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    for field in ("sigma", "n", "states", "initial", "finals", "transitions"):
        if field not in doc:
            raise SchemaError(f"missing field {field!r}")
    try:
        layers = {}
        for entry in doc["states"]:
            if not isinstance(entry, dict) or set(entry) != {"id", "layer"}:
                raise SchemaError(f"bad state entry: {entry!r}")
            layers[entry["id"]] = entry["layer"]
        transitions = [
            (t["from"], _label_from_json(t["label"]), t["to"]) for t in doc["transitions"]
        ]
        return NominalAutomaton(
            doc["sigma"], doc["n"], layers, doc["initial"], doc["finals"], transitions
        )
    except SchemaError:
        raise
    except (InvalidAutomatonError, TypeError, KeyError, ValueError) as exc:
        raise SchemaError(str(exc)) from exc


def to_dot(m: NominalAutomaton) -> str:
    """Graphviz rendering: layers annotate nodes, finals are doubled."""

    def esc(text):
        return str(text).replace('"', '\\"')

    lines = ["digraph nominal_automaton {", "  rankdir=LR;", '  __start [shape=point label=""];']
    for q, layer in m.layers.items():
        shape = "doublecircle" if q in m.finals else "circle"
        lines.append(f'  "{esc(q)}" [shape={shape} label="{esc(q)}\\n|{layer}|"];')
    lines.append(f'  __start -> "{esc(m.initial)}";')
    for src, label, dst in m.transitions:
        lines.append(f'  "{esc(src)}" -> "{esc(dst)}" [label="{esc(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
