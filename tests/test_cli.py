import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from nlstar import cli
from nlstar.cli import main, render_grid
from nlstar.learner import init_table
from nlstar.teacher import Teacher

from .corpus import CHILD_ENV


def test_compile_emits_valid_json(capsys):
    assert main(["compile", "--target", "<n. a n>"]) == 0
    doc = json.loads(capsys.readouterr().out)
    labels = [t["label"] for t in doc["transitions"]]
    assert labels.count("open") == 1
    assert labels.count("close") == 1
    assert doc["n"] == 1


def test_compile_emits_dot(capsys):
    assert main(["compile", "--target", "<n. <m.m>* n <k.k*> n>", "--emit", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert "doublecircle" in out


def test_compile_empty_language_has_no_finals(capsys):
    assert main(["compile", "--target", "0"]) == 0
    assert json.loads(capsys.readouterr().out)["finals"] == []


def test_compile_rejects_bad_expression(capsys):
    assert main(["compile", "--target", "a +"]) == 2
    assert "error" in capsys.readouterr().err


def test_member_answers(capsys):
    assert main(["member", "--target", "ab<n.n*>", "--word", "a"]) == 0
    assert capsys.readouterr().out == "P\n"
    assert main(["member", "--target", "ab<n.n*>", "--word", "b"]) == 0
    assert capsys.readouterr().out == "0\n"
    assert main(["member", "--target", "ab<n.n*>", "--word", "a b <<1. >>"]) == 0
    assert capsys.readouterr().out == "1\n"


def test_member_illegal_word_prints_bottom(capsys):
    assert main(["member", "--target", "ab<n.n*>", "--word", ">>"]) == 0
    assert capsys.readouterr().out == "bottom\n"


def test_member_parse_error(capsys):
    assert main(["member", "--target", "ab<n.n*>", "--word", "a ? b"]) == 2
    assert "error" in capsys.readouterr().err
    # ARABIC-INDIC DIGIT ONE is no register reference
    assert main(["member", "--target", "ab<n.n*>", "--word", "a b <<1. \u0661 >>"]) == 2
    assert capsys.readouterr().err.startswith("error: unrecognised token")


@pytest.mark.parametrize("target", ["(" * 3000 + "a" + ")" * 3000, "a" * 3000, "a" + "*" * 3000])
def test_compile_rejects_too_deep_expression(target, capsys):
    assert main(["compile", "--target", target]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_learn_worked_example(tmp_path, capsys):
    log = tmp_path / "queries.log"
    code = main(
        ["learn", "--target", "ab<n.n*>", "--log", str(log), "--oracle-len", "8"]
    )
    assert code == 0
    captured = capsys.readouterr()
    machine = json.loads(captured.out)
    assert len(machine["states"]) == 7
    stats = json.loads(captured.err)
    assert stats["equivalence_queries"] == 2
    assert stats["n"] == 1
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert records[0]["kind"] == "member"
    assert any(r["kind"] == "equiv" for r in records)


def test_learn_classical_target(capsys):
    assert main(["learn", "--target", "a*"]) == 0
    machine = json.loads(capsys.readouterr().out)
    assert machine["n"] == 0
    assert len(machine["states"]) == 1
    assert machine["finals"] == ["q0"]


def test_learn_emit_table(capsys):
    assert main(["learn", "--target", "ab<n.n*>", "--emit", "table"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("reg | label")
    assert "⊥" in out


def test_learn_emit_dot(capsys):
    assert main(["learn", "--target", "ab<n.n*>", "--emit", "dot"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph")
    assert out.count("doublecircle") == 1


def test_grid_matches_initial_table_layout():
    table = init_table(Teacher.from_regex("ab<n.n*>", {"a", "b"}))
    assert render_grid(table) == (
        "reg | label | eps\n"
        "----+-------+----\n"
        "0   | eps   | P\n"
        "----+-------+----\n"
        "0   | a     | P\n"
        "0   | b     | 0\n"
    )


def test_learn_round_cap(capsys):
    assert main(["learn", "--target", "ab<n.n*>", "--max-rounds", "1"]) == 4
    assert "round cap" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--oracle-len", "--max-rounds"])
def test_learn_rejects_negative_bound_before_learning(flag, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["learn", "--target", "ab<n.n*>", flag, "-1"])
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and f"argument {flag}: must not be negative: -1" in err


def test_learn_oracle_disagreement_exit(monkeypatch, capsys):
    # The honest pipeline cannot disagree with itself, so force a witness
    # to check the wiring of exit code 3.
    monkeypatch.setattr(cli, "brute_equivalence", lambda *args, **kw: ("a",))
    assert main(["learn", "--target", "ab<n.n*>", "--oracle-len", "4"]) == 3
    assert "disagrees" in capsys.readouterr().err


def test_learn_strategy_invariance(capsys):
    machines = {}
    for strategy in ["shortest", "max-fresh", "min-fresh"]:
        assert main(["learn", "--target", "ab<n.n*>", "--strategy", strategy]) == 0
        machines[strategy] = capsys.readouterr().out
    # learned machines may differ per strategy only in query paths, not language
    from nlstar import automaton as am

    parsed = {k: am.from_json(v) for k, v in machines.items()}
    assert am.equivalence(parsed["shortest"], parsed["max-fresh"]) is None
    assert am.equivalence(parsed["shortest"], parsed["min-fresh"]) is None


def test_two_processes_produce_identical_bytes(tmp_path):
    # Two hash seeds: no output may depend on set or dict hash order.
    def run(seed):
        log = tmp_path / f"{seed}.log"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "nlstar.cli",
                "learn",
                "--target",
                "ab<n.n*>",
                "--log",
                str(log),
            ],
            capture_output=True,
            check=True,
            env={**CHILD_ENV, "PYTHONHASHSEED": seed},
        )
        return proc.stdout, proc.stderr, log.read_bytes()

    assert run("1") == run("2")


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "learn_json": (["--emit", "json"], 0),
    "learn_table": (["--emit", "table"], 0),
    "learn_round_cap": (["--max-rounds", "1"], 4),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_learn_bytes_match_golden(name, tmp_path):
    # golden/ holds the recorded stdout, stderr and --log bytes of these
    # runs; any change to the output text must re-record them on purpose.
    extra, code = GOLDEN_RUNS[name]
    log = tmp_path / "queries.log"
    proc = subprocess.run(
        [sys.executable, "-m", "nlstar.cli", "learn", "--target", "ab<n.n*>",
         "--log", str(log), *extra],
        capture_output=True,
        env=CHILD_ENV,
    )
    assert proc.returncode == code
    assert proc.stdout == (GOLDEN / f"{name}.stdout").read_bytes()
    assert proc.stderr == (GOLDEN / f"{name}.stderr").read_bytes()
    assert log.read_bytes() == (GOLDEN / f"{name}.log").read_bytes()


@pytest.mark.parametrize("emit", ["json", "dot"])
def test_compile_bytes_match_golden(emit):
    # golden/ holds the recorded stdout of compiling the introduction's
    # expression: the states, layers and edges the constructor keeps, in order.
    proc = subprocess.run(
        [sys.executable, "-m", "nlstar.cli", "compile", "--target", "<n. <m.m>* n <k.k*> n>", "--emit", emit],
        capture_output=True,
        check=True,
        env=CHILD_ENV,
    )
    assert proc.stdout == (GOLDEN / f"compile_{emit}.stdout").read_bytes()
    assert proc.stderr == b""


# The largest learn-scaled bench target: six letters and four nested
# binders.  Its stdout, stderr and log total about 1 MB, so only their
# SHA-256 digests are recorded.
WIDE_TARGET = "<x0. <x1. (f <x2. <x3. (a (b c) + x0 (d eps))* (x1 + f)>>)*>> <x0. (<x1. <x2. <x3. e c + f>>> x0)*>"
WIDE_DIGESTS = {
    "stdout": "d7e59a479dfe4fac2f85ac9a253b35b29b50e27d6cf0531d43b40ecab4372482",
    "stderr": "b8ca270b612bcdf4a2d4d7e0ecc8a408e40cfacbe1fc9753ed14098a932ba010",
    "log": "9de2ae1463df9c5140cd1990c214f5c0453af36152a74e7f6967f063204d3777",
}


# The k-th letter from the end at k = 10: 2,048 states, nearly all of
# them found by closedness repairs, so a long run of the repair loop.
LONG_REPAIR_TARGET = "(a+b)*a" + "(a+b)" * 10
LONG_REPAIR_DIGESTS = {
    "stdout": "79d982352504dcfcaed6c01454730c3faeb970f32cc2eef5507ab997a8bf70ce",
    "stderr": "bb57f70392288e0b19189f9f39ea34d10896ac4e3b1198ee14ca0bb12e446ca5",
    "log": "563bb68bd8d70b26458165e292d9e9250793229d9430c981d02ea9115888a55c",
}


def learn_digests(tmp_path, target, emit):
    """SHA-256 digests of the stdout, stderr and --log bytes of one learn run."""
    log = tmp_path / "queries.log"
    proc = subprocess.run(
        [sys.executable, "-m", "nlstar.cli", "learn", "--target", target,
         "--emit", emit, "--log", str(log)],
        capture_output=True,
        check=True,
        env=CHILD_ENV,
    )
    outputs = {"stdout": proc.stdout, "stderr": proc.stderr, "log": log.read_bytes()}
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def test_wide_learn_bytes_match_recorded_digests(tmp_path):
    assert learn_digests(tmp_path, WIDE_TARGET, "table") == WIDE_DIGESTS


def test_long_repair_learn_bytes_match_recorded_digests(tmp_path):
    assert learn_digests(tmp_path, LONG_REPAIR_TARGET, "json") == LONG_REPAIR_DIGESTS


def test_strategy_script_output_matches_golden():
    # The fresh-strategy counterexamples and query counts of the script's
    # corpus, recorded; a change to any of them must re-record it on purpose.
    script = Path(__file__).parents[1] / "scripts" / "strategy_experiment.py"
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, check=True, env=CHILD_ENV)
    assert proc.stdout == (GOLDEN / "strategy_experiment.stdout").read_bytes()


def test_import_loads_no_dataclasses_machinery():
    # Every CLI call and bench pass pays for the cold import.
    probe = (
        "import sys; before = set(sys.modules); import nlstar; "
        "print(*sorted(set(sys.modules) - before))"
    )
    loaded = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, check=True, env=CHILD_ENV, text=True
    ).stdout.split()
    assert "nlstar" in loaded
    assert not {"dataclasses", "inspect", "ast"} & set(loaded)
