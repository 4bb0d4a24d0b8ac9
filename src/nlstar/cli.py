"""Command-line front end: compile expressions, answer single membership
queries, and run full learning sessions.

Exit codes: 0 success, 2 parse/usage errors, 3 oracle disagreement on a
learned machine, 4 round cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import automaton as am
from . import regex as rx
from .learner import LearnConfig, RoundLimitError, run_nlstar
from .oracle import EnumBound, brute_equivalence
from .teacher import Teacher
from .words import Alphabet, WordSyntaxError, is_legal, parse_word, serialize_word


def _target(text: str):
    """Parse a closed expression, inferring single-char letters."""
    sigma = rx.infer_sigma(text)
    cne = rx.canonicalize(rx.parse_regex(text, sigma))
    return cne, sigma


def cmd_compile(args) -> int:
    try:
        cne, sigma = _target(args.target)
    except (rx.RegexSyntaxError, rx.FreeNameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    machine = am.compile(cne, sigma)
    if args.emit == "dot":
        sys.stdout.write(am.to_dot(machine))
    else:
        sys.stdout.write(am.to_json(machine))
    return 0


def cmd_member(args) -> int:
    try:
        cne, sigma = _target(args.target)
        word = parse_word(args.word)
    except (rx.RegexSyntaxError, rx.FreeNameError, WordSyntaxError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    teacher = Teacher(am.determinize(am.compile(cne, sigma)))
    if not is_legal(word, Alphabet(teacher.sigma, teacher.theta_bound)):
        print("bottom")
        return 0
    print(teacher.membership(word).value)
    return 0


def cmd_learn(args) -> int:
    try:
        cne, sigma = _target(args.target)
    except (rx.RegexSyntaxError, rx.FreeNameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    teacher = Teacher(am.determinize(am.compile(cne, sigma)), am.Strategy(args.strategy))
    try:
        learned, stats = run_nlstar(teacher, LearnConfig(max_rounds=args.max_rounds))
    except RoundLimitError as exc:
        _write_log(args.log, teacher)
        print(f"error: {exc}", file=sys.stderr)
        return 4
    if args.emit == "dot":
        sys.stdout.write(am.to_dot(learned))
    elif args.emit == "table":
        sys.stdout.write(stats.rounds[-1].table)
    else:
        sys.stdout.write(am.to_json(learned))
    sys.stderr.write(stats.to_json())
    _write_log(args.log, teacher)
    if args.oracle_len is not None:
        witness = brute_equivalence(
            learned, cne, EnumBound(args.oracle_len, rx.theta(cne) + 1)
        )
        if witness is not None:
            print(
                f"error: learned machine disagrees with the target on "
                f"{serialize_word(witness)!r}",
                file=sys.stderr,
            )
            return 3
    return 0


def _write_log(path, teacher):
    if path is None:
        return
    with open(path, "w") as handle:
        for record in teacher.log:
            handle.write(json.dumps(record) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlstar",
        description="Learn deterministic automata over alphabets with name binders.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile an expression to an automaton")
    p_compile.add_argument("--target", required=True, help="closed expression text")
    p_compile.add_argument("--emit", choices=["json", "dot"], default="json")
    p_compile.set_defaults(func=cmd_compile)

    p_member = sub.add_parser("member", help="answer one membership query")
    p_member.add_argument("--target", required=True)
    p_member.add_argument("--word", required=True, help="word text; prints bottom if illegal")
    p_member.set_defaults(func=cmd_member)

    p_learn = sub.add_parser("learn", help="learn the target language")
    p_learn.add_argument("--target", required=True)
    p_learn.add_argument(
        "--strategy", choices=["shortest", "max-fresh", "min-fresh"], default="shortest"
    )
    p_learn.add_argument("--emit", choices=["json", "dot", "table"], default="json")
    p_learn.add_argument("--log", help="write the query log (JSON lines) here")
    p_learn.add_argument("--max-rounds", type=int, default=None)
    p_learn.add_argument(
        "--oracle-len",
        type=int,
        default=None,
        help="cross-check the result against brute-force enumeration up to this length",
    )
    p_learn.set_defaults(func=cmd_learn)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
