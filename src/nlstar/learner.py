"""Observation tables and the active-learning main loop.

The table is the classic (S, E, T) structure with two twists: cells take
values in {1, P, 0, bottom} and every row additionally carries the
number of binders its label leaves open.  Rows compare equal only when
both the cell contents and that register count agree.  Cells whose
label-suffix concatenation is not a legal word are filled with bottom
locally, without asking the teacher; row labels that are themselves
illegal keep an all-bottom row and never participate in closedness or
consistency checks.

The table keeps one ``words.Summary`` per suffix and, per open count,
which columns a label ending with that count may take.  A new label is
one token after an S label filled before it, so its legality and
register count come from the move table ``Alphabet.moves``.  Rows are
hash-consed ids grown by ``(id, answer)`` steps, so closedness,
consistency and the hypothesis compare ints.  Rows and legality columns
are rebuilt only when the register bound grows.  An index of S is kept
up to date: S's row ids numbered as states, the pairs of S words that
share a row, and S.A in S order with a closedness cursor.  A full fill
(new column or counterexample) rebuilds it.  A closedness repair makes
the witness a state and fills only its one-token extensions, the only
new labels; the queries and their order are those of a full refill.
Column 0 is always the empty suffix.

The learner starts from the bare letter alphabet and discovers binders
through counterexamples: a counterexample of depth d raises the table's
register bound to d, which adds OPEN, CLOSE and the registers 1..d to
the one-token extensions.  A false counterexample, or a hypothesis that
does not grow after one, ends the run with ``CounterexampleError``.
"""

from __future__ import annotations

from typing import NamedTuple

from . import automaton as am
from .teacher import Answer, Teacher
from .words import IllegalWordError, check_count, depth, letter_set, prefixes
from .words import serialize_word, shared_alphabet, summarize


class NotClosedOrConsistentError(ValueError):
    """Hypothesis requested from a table that is not ready."""


class CounterexampleError(ValueError):
    """The teacher's answer is no counterexample: the hypothesis already
    classifies the word right, or the next hypothesis did not grow."""


class RoundLimitError(RuntimeError):
    """Configured round cap exceeded; carries the stats gathered so far."""

    def __init__(self, message, stats):
        super().__init__(message)
        self.stats = stats


class LearnConfig(NamedTuple):
    max_rounds: "int | None" = None
    # callback(table, hypothesis), invoked before each equivalence query;
    # the table is live and keeps mutating, so inspect it inside the call.
    on_hypothesis: "object | None" = None


class RoundSnapshot(NamedTuple):
    round: int
    s_size: int
    e_size: int
    n: int
    hypothesis_states: int
    answer: str


class RunStats(NamedTuple):
    membership_queries: int
    equivalence_queries: int
    s_size: int
    e_size: int
    n: int
    cells: int
    max_counterexample_len: int
    rounds: "list[RoundSnapshot]"


class ObservationTable:
    """(S, E, T) over the current token alphabet, with per-row register counts."""

    def __init__(self, sigma):
        self.sigma = letter_set(sigma)
        self.s_words = [()]
        self.e_words = [()]
        self._columns = {(): 0}  # suffix -> its index in e_words
        self._answers = {}
        self._summaries = {}
        self._set_depth(0)
        self._ext = [(tok,) for tok in self._tokens]  # S.A in S order; S words recur in it

    def _set_depth(self, n):
        """Adopt register bound ``n``; the next fill rebuilds every row."""
        self.n = n
        self.alphabet = shared_alphabet(self.sigma, n)
        self._tokens = self.alphabet.tokens()
        # _by_id[id]: (cell values, register count); id c <= n is the empty
        # row of count c, and _child[id, answer] the id one cell longer.
        self._by_id = [((), count) for count in range(n + 1)]
        self._child = {}
        self._rows = {(): 0}  # label -> row id, None if illegal; epsilon starts empty
        # _legal[count][j]: suffix j may follow a label that leaves count binders open.
        self._legal = [[] for _ in range(n + 1)]

    def _summary(self, word):
        if word not in self._summaries:
            self._summaries[word] = summarize(word, self.sigma)
        return self._summaries[word]

    def labels(self):
        """S followed by the one-token extensions not already in S, in scan order."""
        return list(dict.fromkeys(self.s_words + self._ext))

    def fill(self, teacher: Teacher, labels=None):
        """Extend T over (S u S.A).E with membership queries, bottom where illegal.

        Only cells missing from the stored rows of ``labels`` (default: S
        then S.A) are visited, label by label, so the queries come in the
        order a full refill asks them.  Illegal rows stay None until the
        register bound grows.  A full fill rebuilds the index of S."""
        legal, rows, e_words, width = self._legal, self._rows, self.e_words, len(self.e_words)
        by_id, child, moves, answers = self._by_id, self._child, self.alphabet.moves, self._answers
        member, bottom = teacher.membership, Answer.BOTTOM
        for suffix in e_words[len(legal[0]):]:
            tail = self._summary(suffix)
            for count, fits in enumerate(legal):
                fits.append(tail is not None and tail.fits(self.n, count))
        for label in self.s_words + self._ext if labels is None else labels:
            row = rows.get(label, -1)  # -1 for a label not seen yet
            if row == -1:
                # One token after an S label filled before it: the count the
                # move table maps that token to is the empty row's id.
                parent = rows[label[:-1]]
                row = rows[label] = None if parent is None else moves[by_id[parent][1]].get(label[-1])
            if row is None:
                continue
            values, count = by_id[row]
            if len(values) == width:
                continue
            fits = legal[count]
            for j in range(len(values), width):
                if fits[j]:
                    word = label + e_words[j]
                    answer = answers.get(word)
                    if answer is None:
                        answer = answers[word] = member(word)
                else:
                    answer = bottom
                longer = child.get((row, answer))
                if longer is None:
                    longer = child[row, answer] = len(by_id)
                    by_id.append((by_id[row][0] + (answer,), count))
                row = longer
            rows[label] = row
        if labels is None:
            self._index()

    def _index(self):
        """Number S's row ids in first-occurrence order, keep the first S word of
        each, pair each later S word with the first of its row, rewind the
        closedness cursor.  Every S word has a row: epsilon, witnesses
        (``extend_close`` checks) and a legal counterexample's prefixes."""
        first, self._pairs, self._cursor = {}, [], 0
        for s in self.s_words:
            head = first.setdefault(self._rows[s], s)  # s itself if first of its row
            if head is not s:
                self._pairs.append((head, s))
        self._states = {row: f"q{number}" for number, row in enumerate(first)}
        self._heads = list(first.values())

    def row(self, label):
        """(cell values over E, register count), or None for illegal labels."""
        row = self._rows[label]
        return None if row is None else self._by_id[row]

    def values(self, label):
        """Cell values over E; all bottom for an illegal label."""
        row = self._rows[label]
        return (Answer.BOTTOM,) * len(self.e_words) if row is None else self._by_id[row][0]

    def cell(self, label, suffix) -> Answer:
        return self.values(label)[self._columns[suffix]]

    def check_closed(self):
        """First one-token extension whose row matches no S row, or None.  Those
        before the cursor are illegal or have S rows, and stay so until a full fill."""
        rows, ids, ext = self._rows, self._states, self._ext
        while self._cursor < len(ext):
            row = rows[ext[self._cursor]]
            if row is not None and row not in ids:
                return ext[self._cursor]
            self._cursor += 1
        return None

    def check_consistent(self):
        """First token.suffix extension separating two equal S rows, or None.
        Compares only the pairs of ``_index``, dropped once no pair splits."""
        # Tokens are scanned first, then suffixes: report the leftmost split.
        for tok in self._tokens:
            splits = []
            for first, other in self._pairs:
                # Equal rows' tok-extensions share a count: ids differ iff a cell does.
                if self._rows[first + (tok,)] != self._rows[other + (tok,)]:
                    base, cells = self.values(first + (tok,)), self.values(other + (tok,))
                    splits.append(next(i for i, x in enumerate(base) if x is not cells[i]))
            if splits:
                return (tok,) + self.e_words[min(splits)]
        self._pairs = []
        return None

    def extend_close(self, witness, teacher: Teacher):
        """Move a closedness witness into S; prefix-closure is preserved
        because the witness is a one-token extension of an S word.  The
        witness becomes a new state, and only its extensions are new labels."""
        row = self._rows.get(witness)
        if row is None or row in self._states:
            raise ValueError(f"{witness!r} has no row, or is already a row label in S or has the row of one")
        self.s_words.append(witness)
        self._states[row] = f"q{len(self._states)}"
        self._heads.append(witness)
        self._ext += [witness + (tok,) for tok in self._tokens]
        self.fill(teacher, self._ext[-len(self._tokens):])

    def extend_consistent(self, column, teacher: Teacher):
        """Add the separating word to E; suffix-closure is preserved because
        the new column is a one-token extension of an existing suffix."""
        if column in self._columns:
            raise ValueError(f"{column!r} is already a column label in E")
        self._columns[column] = len(self.e_words)
        self.e_words.append(column)
        self.fill(teacher)

    def handle_counterexample(self, counterexample, teacher: Teacher):
        """Add the counterexample and its prefixes to S and widen the
        register bound to its depth, growing the token alphabet."""
        if not isinstance(counterexample, tuple):
            raise IllegalWordError(f"illegal counterexample {counterexample!r}: a word is a tuple of tokens")
        summary = summarize(counterexample, self.sigma)
        if summary is None or not summary.fits(summary.peak):
            raise IllegalWordError(f"illegal counterexample: {serialize_word(counterexample)!r}")
        self.s_words = list(dict.fromkeys(self.s_words + prefixes(counterexample)))
        if summary.peak > self.n:
            self._set_depth(summary.peak)
        self._ext = [s + (tok,) for s in self.s_words for tok in self._tokens]
        self.fill(teacher)

    def state_map(self):
        """Distinct row ids of S, numbered in first-occurrence order."""
        return self._states

    def state_of(self, label):
        """Hypothesis state a label maps to, or None for illegal labels."""
        return self._states.get(self._rows[label])

    def to_automaton(self) -> am.NominalAutomaton:
        """Hypothesis machine of a closed and consistent table.

        Right after the repair loop both checks are O(1), and each state's
        edges are read off the first S word of its row.  Otherwise the loop
        visits every S word's extensions and names the first, in S x A
        order, that matches no S row or that equal S rows disagree on."""
        ids, by_id, rows, tokens = self._states, self._by_id, self._rows, self._tokens
        ready = self.check_closed() is None and self.check_consistent() is None
        layers = {state: by_id[row][1] for row, state in ids.items()}
        finals = [state for row, state in ids.items() if by_id[row][0][0] is Answer.ONE and layers[state] == 0]
        delta = {}
        for s in self._heads if ready else self.s_words:
            src = ids[rows[s]]
            for tok in tokens:
                succ = rows[s + (tok,)]
                if succ is None:
                    continue
                dst = ids.get(succ)
                if dst is None or delta.setdefault((src, tok), dst) != dst:
                    broken = "closed" if dst is None else "consistent"
                    raise NotClosedOrConsistentError(
                        f"table is not {broken} at {serialize_word(s + (tok,))!r}")
        transitions = [(src, tok, dst) for (src, tok), dst in delta.items()]
        return am.NominalAutomaton(self.sigma, self.n, layers, ids[rows[()]], finals, transitions)


def init_table(teacher: Teacher) -> ObservationTable:
    """Fresh table over the teacher's letters: S = E = {epsilon}, no binders."""
    table = ObservationTable(teacher.sigma)
    table.fill(teacher)
    return table


def run_nlstar(teacher: Teacher, config: "LearnConfig | None" = None):
    """Learn the teacher's language; returns (automaton, stats).

    Each round repairs the table until it is closed and consistent,
    builds the hypothesis and asks an equivalence query.  A returned
    counterexample and its prefixes join S and may widen the register
    bound; a yes answer ends the run.  The final machine accepts exactly
    the target's legal words.
    """
    config = LearnConfig() if config is None else config
    if not isinstance(config, LearnConfig):
        raise ValueError(f"config must be a LearnConfig, got {config!r}")
    if config.max_rounds is not None:
        check_count(config.max_rounds, "max_rounds")
    if config.on_hypothesis is not None and not callable(config.on_hypothesis):
        raise ValueError(f"on_hypothesis must be None or callable, got {config.on_hypothesis!r}")
    table = init_table(teacher)
    snapshots = []
    longest = 0  # length of the longest counterexample so far

    def stats():
        return RunStats(
            membership_queries=teacher.membership_queries,
            equivalence_queries=teacher.equivalence_queries,
            s_size=len(table.s_words),
            e_size=len(table.e_words),
            n=table.n,
            cells=len(table.labels()) * len(table.e_words),
            max_counterexample_len=longest,
            rounds=snapshots,
        )

    round_index = 0
    while True:
        if config.max_rounds is not None and round_index >= config.max_rounds:
            raise RoundLimitError(f"round cap {config.max_rounds} exceeded", stats())
        round_index += 1
        while True:
            witness = table.check_closed()
            if witness is not None:
                table.extend_close(witness, teacher)
            column = table.check_consistent()
            if column is not None:
                table.extend_consistent(column, teacher)
            if witness is None and column is None:
                break
        hypothesis = table.to_automaton()
        states = am.state_count(hypothesis)
        if snapshots and states <= snapshots[-1].hypothesis_states:
            raise CounterexampleError(f"no growth after counterexample {snapshots[-1].answer!r}")
        if config.on_hypothesis is not None:
            config.on_hypothesis(table, hypothesis)
        counterexample = teacher.equivalence(hypothesis)
        sizes = len(table.s_words), len(table.e_words), table.n  # before the counterexample joins
        if counterexample is None:
            snapshots.append(RoundSnapshot(round_index, *sizes, states, "yes"))
            return hypothesis, stats()
        # Checks first that the counterexample is a legal word.
        table.handle_counterexample(counterexample, teacher)
        snapshots.append(RoundSnapshot(round_index, *sizes, states, serialize_word(counterexample)))
        longest = max(longest, len(counterexample))
        # The cell (counterexample, eps) is filled by now, so this asks no query.
        claimed = depth(counterexample) <= hypothesis.n and am.accepts(hypothesis, counterexample)
        if claimed == (table.cell(counterexample, ()) is Answer.ONE):
            raise CounterexampleError(f"hypothesis is right on {serialize_word(counterexample)!r}")
