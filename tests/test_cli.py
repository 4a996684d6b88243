"""End-to-end tests driving the command line through subprocesses, and
in-process tests of the exit codes for failures no input can provoke."""

import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import rll.cli as cli_module
import rll.decide as decide_module
import rll.proof as proof_module
from rll.calculus import format_sequent
from rll.corpus import ALPHABET, proofs
from rll.proof import serialize_proof
from rll.expr import Alphabet, parse, pretty
from rll.proof import check, parse_proof
from rll.semantics import member, parse_word
from oracles import gen_expr, gen_guarded_sequent, gen_word

ROOT = Path(__file__).resolve().parent.parent


def rll(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "rll", *argv],
        capture_output=True,
        text=True,
        env=env,
        **kwargs,
    )


def test_member_verdicts_and_exit_codes():
    r = rll("member", "--alphabet", "ab", "--word", "(a)^w", "--expr", "nu X. a X")
    assert r.returncode == 0 and r.stdout == "member\n"
    r = rll("member", "--alphabet", "ab", "--word", "b(a)^w", "--expr", "nu X. a X")
    assert r.returncode == 1 and r.stdout == "nonmember\n"


def test_parse_prints_a_reparseable_canonical_form():
    r = rll("parse", "--alphabet", "ab", "--expr", "f_a")
    assert r.returncode == 0
    e = parse(r.stdout.strip(), ALPHABET)
    assert e == parse("mu X. a X + b X + nu Y. b Y", ALPHABET)


def test_json_envelopes_are_single_lines_with_the_declared_fields():
    r = rll("member", "--alphabet", "ab", "--word", "(ab)^w", "--expr", "i_a", "--json")
    assert r.returncode == 0
    env = json.loads(r.stdout)
    assert env["command"] == "member"
    assert env["inputs"]["word"] == "(ab)^w"
    assert env["result"] == "member"
    assert "witness" not in env


def test_decide_refutes_with_a_checkable_word():
    r = rll("decide", "--alphabet", "ab", "--sequent", "i_a |- f_a")
    assert r.returncode == 1
    verdict, word_text = r.stdout.split()
    assert verdict == "refuted"
    w = parse_word(word_text, ALPHABET)
    # the word must witness the failure of the inclusion
    lhs = parse("nu X. mu Y. a X + b Y", ALPHABET)
    rhs = parse("mu X. a X + b X + nu Y. b Y", ALPHABET)
    assert member(w, lhs) and not member(w, rhs)


def test_decide_emits_a_proof_that_check_accepts(tmp_path):
    out = tmp_path / "proof.prf"
    r = rll(
        "decide",
        "--alphabet",
        "ab",
        "--sequent",
        "only-a |- i_a",
        "--emit-proof",
        str(out),
    )
    assert r.returncode == 0 and r.stdout == "proved\n"
    r = rll("check", str(out))
    assert r.returncode == 0 and r.stdout == "accepted\n"


def test_decide_json_witness_reparses_and_rechecks():
    r = rll("decide", "--alphabet", "ab", "--sequent", "f_b |- i_a", "--json")
    assert r.returncode == 0
    env = json.loads(r.stdout)
    assert env["result"] == "proved"
    p = parse_proof(env["witness"]["proof"])
    assert check(p).ok


def test_decide_flags_unguarded_input():
    r = rll("decide", "--alphabet", "ab", "--sequent", "mu X. X + a X |-")
    assert r.returncode == 4
    assert r.stdout == "unguarded\n"
    assert "not guarded" in r.stderr


def test_check_reports_local_violations_with_exit_2(tmp_path):
    f = tmp_path / "local.prf"
    f.write_text("alphabet: ab\nnode n0: a 0, b 0 |- ; rule l-p ; children n0\nroot n0\n")
    r = rll("check", str(f))
    assert r.returncode == 2
    assert r.stdout.splitlines()[0] == "local"
    assert "violation:" in r.stdout


def test_check_reports_progress_failures_with_a_lasso(tmp_path):
    f = tmp_path / "prog.prf"
    f.write_text(
        "alphabet: ab\n"
        "node n0: nu X. a X |- mu X. a X ; rule nu-l ; children n1\n"
        "node n1: a nu X. a X |- mu X. a X ; rule mu-r ; children n2\n"
        "node n2: a nu X. a X |- a mu X. a X ; rule h_a ; children n0\n"
        "root n0\n"
    )
    r = rll("check", str(f))
    assert r.returncode == 3
    lines = r.stdout.splitlines()
    assert lines[0] == "progress"
    assert lines[1].startswith("lasso: ")
    r = rll("check", str(f), "--json")
    env = json.loads(r.stdout)
    assert env["result"] == "progress"
    assert env["witness"]["cycle"] == ["n0", "n1", "n2"]


def test_complement_output_disagrees_pointwise_with_its_input():
    r = rll("complement", "--alphabet", "ab", "--expr", "nu X. a X")
    assert r.returncode == 0
    ce = parse(r.stdout.strip(), ALPHABET)
    e = parse("nu X. a X", ALPHABET)
    for text in ("(a)^w", "(b)^w", "ab(ab)^w"):
        w = parse_word(text, ALPHABET)
        assert member(w, e) != member(w, ce)


def test_export_apa_writes_dot_and_reports_counts(tmp_path):
    dot = tmp_path / "apa.dot"
    r = rll("export-apa", "--alphabet", "ab", "--expr", "i_a", "--dot", str(dot))
    assert r.returncode == 0
    assert r.stdout.startswith("states=")
    assert dot.read_text().startswith("digraph")


def test_corpus_run_filter_and_determinism():
    r1 = rll("corpus", "run", "--filter", "proofs", "--seed", "7")
    assert r1.returncode == 0
    lines = r1.stdout.splitlines()
    assert lines[-1] == "passed 9/9"
    assert all(line.startswith("PASS proofs/") for line in lines[:-1])
    r2 = rll("corpus", "run", "--filter", "proofs", "--seed", "7")
    assert r2.stdout == r1.stdout


@pytest.mark.parametrize("json_flag", [(), ("--json",)], ids=["text", "json"])
def test_corpus_run_with_a_filter_matching_no_row_exits_64(capsys, json_flag):
    code = cli_module.main(["corpus", "run", "--filter", "nosuchrow", *json_flag])
    out = capsys.readouterr()
    assert code == 64
    assert out.out == ""
    assert out.err == "error: no corpus row matches 'nosuchrow'\n"


def test_corpus_list_and_show():
    r = rll("corpus", "list")
    assert r.returncode == 0
    assert "expression fin-a: mu X. a X + b X + nu Y. b Y" in r.stdout
    assert "decision inf-a-not-fin-a:" in r.stdout
    r = rll("corpus", "show", "f_a")
    assert r.returncode == 0 and "mu X. a X + b X" in r.stdout
    r = rll("corpus", "show", "fin-a-cap-fin-b-empty")
    assert r.returncode == 0 and r.stdout.startswith("alphabet: ab")
    assert check(parse_proof(r.stdout)).ok
    r = rll("corpus", "show", "no-such-entry")
    assert r.returncode == 64


def test_usage_errors_exit_64():
    assert rll("bogus").returncode == 64
    assert rll("member", "--alphabet", "ab").returncode == 64
    assert rll("parse", "--alphabet", "ab", "--expr", "((").returncode == 64
    assert rll("check", "/definitely/not/a/file").returncode == 64


def test_input_nested_too_deeply_exits_64_without_a_traceback():
    chain = "a " * 3000 + "T"
    nested = "(" * 2000 + "T" + ")" * 2000
    for expr in (chain, nested):
        r = rll("parse", "--alphabet", "a", "--expr", expr)
        assert r.returncode == 64
        assert r.stderr.startswith("error: ") and "nested too deeply" in r.stderr
        assert "Traceback" not in r.stderr


# 320 nested binders parse, but later stages recurse deeper than the limit
DEEP_BINDERS = " ".join("nu X%d. a" % k for k in range(320)) + " X0"


@pytest.mark.parametrize(
    "argv",
    [
        ("member", "--alphabet", "a", "--word", "(a)^w", "--expr", DEEP_BINDERS),
        ("export-apa", "--alphabet", "a", "--expr", DEEP_BINDERS),
        ("decide", "--alphabet", "a", "--sequent", DEEP_BINDERS + " |-"),
    ],
    ids=lambda argv: argv[0],
)
def test_input_too_deep_for_later_stages_exits_64_without_a_traceback(argv):
    r = rll(*argv)
    assert r.returncode == 64
    assert r.stderr == "error: expression nested too deeply\n"


# ---------------------------------------------------------------------------
# budget and internal errors, provoked in process


def test_a_search_over_its_node_budget_exits_5(monkeypatch, capsys):
    real_decide = decide_module.decide
    monkeypatch.setattr(cli_module, "decide", lambda s: real_decide(s, max_nodes=3))
    code = cli_module.main(["decide", "--alphabet", "ab", "--sequent", "i_a |- f_a"])
    out = capsys.readouterr()
    assert code == 5
    assert out.out == ""
    assert out.err == "error: proof search exceeded 3 sequents\n"


def test_a_countermodel_failing_its_self_check_exits_70(monkeypatch, capsys):
    monkeypatch.setattr(decide_module, "member", lambda w, e: False)
    code = cli_module.main(["decide", "--alphabet", "ab", "--sequent", "i_a |- f_a"])
    out = capsys.readouterr()
    assert code == 70
    assert out.out == ""
    assert out.err.startswith("error: internal error: countermodel ")
    assert out.err.count("\n") == 1


def test_a_lasso_failing_its_replay_exits_70(monkeypatch, capsys, tmp_path):
    name = next(name for name, (_, expected) in proofs().items() if not expected)
    path = tmp_path / "rejected.prf"
    path.write_text(serialize_proof(proofs()[name][0]), encoding="utf-8")
    monkeypatch.setattr(proof_module, "accepts_lasso", lambda automaton, stem, cycle: True)
    code = cli_module.main(["check", str(path)])
    out = capsys.readouterr()
    assert code == 70
    assert out.out == ""
    assert out.err == "error: internal error: counterexample lasso has a progressing trace\n"


# ---------------------------------------------------------------------------
# the exit-code contract on generated input

EXIT_CODES = {0, 1, 2, 3, 4, 5, 64}
TOKENS = ["a", "b", "c", "0", "T", "X", "Y", "mu", "nu", ".", "(", ")", "+", "&", " ", "|-", ",",
          "(a)^w", "^w", "f_a", "i_a'", "fin-a", "#", ";", "⊤", "μ"]


def _mutate(rng, text):
    """text as it is or with one to three random deletions, insertions of a
    token and truncations."""
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
        i = rng.randint(0, len(text))
        op = rng.random()
        if op < 0.4:
            text = text[:i] + text[i + 1:]
        elif op < 0.8:
            text = text[:i] + rng.choice(TOKENS) + text[i:]
        else:
            text = text[:i]
    return text


def _random_argv(rng):
    alphabet = rng.choice(["ab", "ab", "ab", "abc", "abc", "a", "", "aa"])
    letters = Alphabet(alphabet if alphabet in ("a", "abc") else "ab")
    expr = _mutate(rng, pretty(gen_expr(rng, letters, rng.randint(1, 6))))
    stem, loop = gen_word(rng, letters)
    word = _mutate(rng, "%s(%s)^w" % (stem, loop))
    sequent = _mutate(rng, format_sequent(gen_guarded_sequent(rng, letters, max_size=5)))
    argv = rng.choice([
        ["parse", "--alphabet", alphabet, "--expr", expr],
        ["member", "--alphabet", alphabet, "--word", word, "--expr", expr],
        ["complement", "--alphabet", alphabet, "--expr", expr],
        ["export-apa", "--alphabet", alphabet, "--expr", expr],
        ["decide", "--alphabet", alphabet, "--sequent", sequent],
    ])
    return argv + ["--json"] * rng.randint(0, 1)


RECORD = re.compile(r"node (\S+): (.*?) ; (rule \S+)(.*)")


def _mutated_proof(rng, text):
    """A fixture's proof file with one to three of: a node record dropped, a
    child id or a rule name replaced by another from the file, the sequents
    of two records swapped; then possibly mutated as text."""
    first, *body, last = text.splitlines()
    records = [list(RECORD.fullmatch(line).groups()) for line in body]
    ids = [r[0] for r in records]
    rules = [r[2] for r in records]
    for _ in range(rng.randint(1, 3)):
        r, other = rng.choice(records), rng.choice(records)
        op = rng.randrange(4)
        if op == 0 and len(records) > 1:
            records.remove(r)
        elif op == 1:
            r[1], other[1] = other[1], r[1]
        elif op == 2:
            r[2] = rng.choice(rules)
        else:
            head, _, kids = r[3].rpartition("children ")
            kids = kids.split(", ")
            kids[rng.randrange(len(kids))] = rng.choice(ids)
            r[3] = head + "children " + ", ".join(kids)
    lines = [first] + ["node %s: %s ; %s%s" % tuple(r) for r in records] + [last]
    return _mutate(rng, "\n".join(lines) + "\n")


def test_generated_input_exits_with_a_documented_code(tmp_path):
    rng = random.Random(64)
    for _ in range(800):
        argv = _random_argv(rng)
        assert cli_module.main(argv) in EXIT_CODES, argv
    texts = [serialize_proof(p) for p, _ in proofs().values()]
    path = tmp_path / "mutated.prf"
    for _ in range(300):
        text = _mutated_proof(rng, rng.choice(texts))
        path.write_text(text, encoding="utf-8")
        assert cli_module.main(["check", str(path)]) in EXIT_CODES, text
