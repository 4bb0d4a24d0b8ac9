"""Command-line front end: compile expressions, answer single membership
queries, and run full learning sessions.

Exit codes: 0 success, 2 parse/usage errors (a negative ``--oracle-len``
or ``--max-rounds`` among them), 3 oracle disagreement on a learned
machine, 4 round cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import automaton as am
from . import regex as rx
from .learner import LearnConfig, RoundLimitError, run_nlstar
from .oracle import EnumBound, brute_equivalence
from .teacher import Answer, Teacher
from .words import IllegalWordError, parse_word, serialize_word


def cmd_compile(args) -> int:
    machine = am.compile(args.cne, args.sigma)
    if args.emit == "dot":
        sys.stdout.write(am.to_dot(machine))
    else:
        sys.stdout.write(am.to_json(machine))
    return 0


def cmd_member(args) -> int:
    teacher = Teacher(am.determinize(am.compile(args.cne, args.sigma)))
    try:
        print(teacher.membership(args.word).value)
    except IllegalWordError:
        print("bottom")
    return 0


def cmd_learn(args) -> int:
    teacher = Teacher(am.determinize(am.compile(args.cne, args.sigma)), am.Strategy(args.strategy))
    # Equivalence queries leave the table alone, so the grid drawn just
    # before each one is the table of that round.
    grids = []
    config = LearnConfig(
        max_rounds=args.max_rounds, on_hypothesis=lambda table, _: grids.append(render_grid(table))
    )
    try:
        learned, stats = run_nlstar(teacher, config)
    except RoundLimitError as exc:
        _write_log(args.log, teacher)
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.emit == "dot":
        sys.stdout.write(am.to_dot(learned))
    elif args.emit == "table":
        sys.stdout.write(grids[-1])
    else:
        sys.stdout.write(am.to_json(learned))
    document = stats._asdict()
    document["rounds"] = [
        {**snapshot._asdict(), "table": grid} for snapshot, grid in zip(stats.rounds, grids)
    ]
    sys.stderr.write(json.dumps(document, indent=2) + "\n")
    _write_log(args.log, teacher)
    if args.oracle_len is not None:
        witness = brute_equivalence(
            learned, args.cne, EnumBound(args.oracle_len, rx.theta(args.cne) + 1)
        )
        if witness is not None:
            print(
                f"error: learned machine disagrees with the target on "
                f"{serialize_word(witness)!r}",
                file=sys.stderr,
            )
            return 3
    return 0


def render_grid(table) -> str:
    """Plain-text table: register column, row labels, one column per suffix."""
    grid = [["reg", "label"] + [serialize_word(e) or "eps" for e in table.e_words]]
    for label in table.labels():
        row = table.row(label)
        cells = ["⊥" if cell is Answer.BOTTOM else cell.value for cell in table.values(label)]
        grid.append(["-" if row is None else str(row[1]), serialize_word(label) or "eps"] + cells)
    widths = [max(map(len, column)) for column in zip(*grid)]
    lines = [" | ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip() for line in grid]
    rule = "-+-".join("-" * w for w in widths)
    # A rule under the header and one between S and its extensions, if any.
    if len(lines) > len(table.s_words) + 1:
        lines.insert(len(table.s_words) + 1, rule)
    lines.insert(1, rule)
    return "\n".join(lines) + "\n"


def _write_log(path, teacher):
    """Write the teacher's log as JSON lines, the query text format."""
    if path is None:
        return
    with open(path, "w") as handle:
        for index, (kind, query, answer) in enumerate(teacher.log, 1):
            if kind == "member":
                query, answer = serialize_word(query), answer.value
            else:
                query = am.to_document(query)
                answer = "yes" if answer is None else serialize_word(answer)
            record = {"kind": kind, "input": query, "answer": answer, "index": index}
            handle.write(json.dumps(record) + "\n")


def count(text) -> int:
    """Argparse type of the bounds: a non-negative int."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlstar",
        description="Learn deterministic automata over alphabets with name binders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Every command takes a target, which main parses before dispatching.
    target = argparse.ArgumentParser(add_help=False)
    target.add_argument("--target", required=True, help="closed expression text")

    p_compile = sub.add_parser(
        "compile", parents=[target], help="compile an expression to an automaton"
    )
    p_compile.add_argument("--emit", choices=["json", "dot"], default="json")
    p_compile.set_defaults(func=cmd_compile)

    p_member = sub.add_parser("member", parents=[target], help="answer one membership query")
    p_member.add_argument("--word", required=True, help="word text; prints bottom if illegal")
    p_member.set_defaults(func=cmd_member)

    p_learn = sub.add_parser("learn", parents=[target], help="learn the target language")
    p_learn.add_argument(
        "--strategy", choices=["shortest", "max-fresh", "min-fresh"], default="shortest"
    )
    p_learn.add_argument("--emit", choices=["json", "dot", "table"], default="json")
    p_learn.add_argument("--log", help="write the query log (JSON lines) here")
    p_learn.add_argument("--max-rounds", type=count, default=None)
    p_learn.add_argument(
        "--oracle-len",
        type=count,
        default=None,
        help="cross-check the result against brute-force enumeration up to this length",
    )
    p_learn.set_defaults(func=cmd_learn)

    args = parser.parse_args(argv)
    try:
        # A closed expression over the single-char letters it names.
        args.sigma = rx.infer_sigma(args.target)
        args.cne = rx.canonicalize(rx.parse_regex(args.target, args.sigma))
        if args.command == "member":
            args.word = parse_word(args.word)
    except ValueError as exc:  # the typed syntax and free-name errors
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
