"""End-to-end tests driving the command line through subprocesses, and
in-process tests of the exit codes for failures no input can provoke and of
repeated calls in one process."""

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
from rll.calculus import format_sequent, parse_sequent
from rll.corpus import ALPHABET, proofs
from rll.decide import saturate
from rll.proof import serialize_proof
from rll.expr import Alphabet, ParseError, parse, pretty
from rll.proof import check, parse_proof
from rll.semantics import member, parse_word
from oracles import gen_expr, gen_guarded_sequent, gen_word, ref_parse_proof

ROOT = Path(__file__).resolve().parent.parent


def rll(*argv, **kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    kwargs.setdefault("text", True)
    return subprocess.run(
        [sys.executable, "-m", "rll", *argv],
        capture_output=True,
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


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        # a word that spells letters of the alphabet is read as letters
        (["parse", "--alphabet", "any", "--expr", "any T"], 0, "a n y T\n", ""),
        (["parse", "--alphabet", "ab", "--expr", "a any"], 0, "a nu X. a X + b X\n", ""),
        (["parse", "--alphabet", "abc", "--expr", "mu X. a X + any"], 0, "mu X. a X + nu Y. a Y + b Y\n", ""),
        (["parse", "--alphabet", "ab", "--expr", "i_a' + X"], 0,
         "(mu Y. a (nu Z. mu W. a Z + b W) + b Y) + X\n", ""),
        # errors quote what was typed, at its own positions
        (["parse", "--alphabet", "ab", "--expr", "any T"], 64, "",
         "error: trailing input at position 4 in 'any T'\n"),
        (["decide", "--alphabet", "ab", "--sequent", "fin-a |- inf-b c"], 64, "",
         "error: trailing input at position 6 in 'inf-b c'\n"),
        (["parse", "--alphabet", "ab", "--expr", "fin-a-b"], 64, "",
         "error: unknown name or letter outside alphabet: 'fin-a-b' at position 0 in 'fin-a-b'\n"),
        # a name whose letters are not all in the alphabet is refused
        (["parse", "--alphabet", "a", "--expr", "only-b"], 64, "",
         "error: unknown name or letter outside alphabet: 'only-b' at position 0 in 'only-b'\n"),
        (["member", "--alphabet", "a", "--word", "(a)^w", "--expr", "a any"], 64, "",
         "error: unknown name or letter outside alphabet: 'any' at position 2 in 'a any'\n"),
        (["export-apa", "--alphabet", "a", "--expr", "only-a + i_b"], 64, "",
         "error: unknown name or letter outside alphabet: 'i_b' at position 9 in 'only-a + i_b'\n"),
        (["decide", "--alphabet", "a", "--sequent", "only-a |- only-b"], 64, "",
         "error: unknown name or letter outside alphabet: 'only-b' at position 0 in 'only-b'\n"),
    ],
)
def test_bundled_names_are_atoms_and_letters_come_first(capsys, argv, code, out, err):
    assert cli_module.main(argv) == code
    assert capsys.readouterr() == (out, err)


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


def test_decide_serializes_a_proof_only_where_it_is_printed_or_written(monkeypatch, capsys, tmp_path):
    # text mode prints "proved" alone; --json prints the proof text and
    # --emit-proof writes it, and with both flags one text serves both
    calls = []

    def counting(p):
        calls.append(p)
        return serialize_proof(p)

    monkeypatch.setattr(cli_module, "serialize_proof", counting)
    argv = ["decide", "--alphabet", "ab", "--sequent", "f_b |- i_a"]
    out = tmp_path / "proof.prf"
    texts = {}
    for flags in ((), ("--json",), ("--emit-proof", str(out)), ("--json", "--emit-proof", str(out))):
        calls.clear()
        assert cli_module.main(argv + list(flags)) == 0
        texts[flags] = capsys.readouterr().out
        assert len(calls) == (0 if flags == () else 1), flags
    assert texts[()] == texts[("--emit-proof", str(out))] == "proved\n"
    proof = json.loads(texts[("--json",)])["witness"]["proof"]
    assert proof == serialize_proof(calls[0]) == out.read_text(encoding="utf-8")
    assert texts[("--json",)] == texts[("--json", "--emit-proof", str(out))]


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


def test_check_rejects_a_root_keyword_glued_to_its_node_with_exit_64(capsys, tmp_path):
    f = tmp_path / "glued.prf"
    f.write_text("alphabet: ab\nnode n0: mu X. X |- nu X. X ; rule mu-l ; children n0\nrootn0")
    assert cli_module.main(["check", str(f)]) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: unrecognised proof line: 'rootn0'\n"


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


def _renamed_any3_proof():
    """The saturated proof of any3 |- inf-a3 + inf-b3 over abc, with its
    nodes renamed v0..v94 in a shuffled order, its node records shuffled
    and its root line right after the alphabet line."""
    sequent = "nu X. (a X + b X + c X) |- nu X. mu Y. (a X + b Y + c Y) + nu X. mu Y. (b X + a Y + c Y)"
    p = saturate(parse_sequent(sequent, Alphabet("abc")))
    alphabet, *records, root = serialize_proof(p).splitlines()
    rng = random.Random(19)
    ids = ["v%d" % i for i in range(len(records))]
    rng.shuffle(ids)
    rng.shuffle(records)
    text = "\n".join([alphabet, root] + records) + "\n"
    return re.sub(r"\bn(\d+)\b", lambda m: ids[int(m.group(1))], text)


# the lasso that `rll check` prints on that file, in the file's own names
RENAMED_ANY3_STEM = ["v57", "v55", "v84", "v38", "v4", "v62", "v59", "v7", "v17", "v94", "v91", "v78"]
RENAMED_ANY3_CYCLE = [
    "v78", "v0", "v43", "v8", "v75", "v82", "v40", "v36", "v28",
    "v48", "v85", "v12", "v71", "v39", "v52", "v74", "v25", "v66",
]


def test_check_prints_the_lasso_in_the_file_s_own_node_names(capsys, tmp_path):
    text = _renamed_any3_proof()
    _, root_line, first_record = text.splitlines()[:3]
    assert root_line == "root v57" and not first_record.startswith("node v57:")
    assert "node n" not in text
    f = tmp_path / "renamed.proof"
    f.write_text(text)
    assert cli_module.main(["check", str(f)]) == 3
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == "progress\nlasso: stem %s cycle %s\n" % (
        " ".join(RENAMED_ANY3_STEM), " ".join(RENAMED_ANY3_CYCLE))
    assert cli_module.main(["check", "--json", str(f)]) == 3
    out = capsys.readouterr()
    assert out.err == ""
    assert out.out == (
        '{"command": "check", "inputs": {"file": %s}, "result": "progress", "witness": '
        '{"cycle": %s, "cycle_edges": [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0], '
        '"stem": %s, "stem_edges": [0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0]}}\n'
        % (json.dumps(str(f)), json.dumps(RENAMED_ANY3_CYCLE), json.dumps(RENAMED_ANY3_STEM))
    )


LOOP_RECORD = "node %s: mu X. X |- nu X. X ; rule mu-l ; children %s\n"


@pytest.mark.parametrize(
    "records, root, message",
    [
        ([("top", "top"), ("top", "top")], "top", "duplicate node id 'top'"),
        ([("top", "top")], "bottom", "root 'bottom' is not a node"),
        ([("z", "z"), ("top", "top"), ("a1", "z")], "top", "unreachable nodes: z, a1"),
        # the parser's text, which quotes the child but not the node
        ([("n0", "n1")], "n0", "node n0 references unknown child 'n1'"),
    ],
    ids=["duplicate-id", "root-names-no-node", "unreachable-nodes", "unknown-child"],
)
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_check_refuses_a_malformed_graph_with_exit_64(capsys, tmp_path, records, root, message, json_flag):
    f = tmp_path / "graph.proof"
    f.write_text("alphabet: ab\n" + "".join(LOOP_RECORD % r for r in records) + "root %s\n" % root)
    assert cli_module.main(["check", *json_flag, str(f)]) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err == "error: %s\n" % message


# parse_proof checks every record's id before it parses a later sequent, and
# every child of a record before it infers a later record's omitted principal
@pytest.mark.parametrize(
    "records, message, later_message",
    [
        (
            [LOOP_RECORD % ("n0", "n0"), LOOP_RECORD % ("n0", "n0"), "node n1: a a |- ; rule mu-l ; children n1\n"],
            "duplicate node id 'n0'",
            "unexpected end of input at position 3 in 'a a'",
        ),
        (
            [LOOP_RECORD % ("n0", "n9"), "node n1: a 0 |- T ; rule mu-l ; children n1\n"],
            "node n0 references unknown child 'n9'",
            "node n1: principal formula for μ-l is undetermined; write it explicitly",
        ),
    ],
    ids=["duplicate-id-before-bad-sequent", "unknown-child-before-undetermined-principal"],
)
def test_check_reports_the_first_of_two_faults_in_record_order(capsys, tmp_path, records, message, later_message):
    f = tmp_path / "graph.proof"
    f.write_text("alphabet: ab\n" + "".join(records) + "root n0\n")
    assert cli_module.main(["check", str(f)]) == 64
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    # the later fault alone is refused with its own text
    f.write_text("alphabet: ab\n" + LOOP_RECORD % ("n0", "n0") + records[-1] + "root n0\n")
    assert cli_module.main(["check", str(f)]) == 64
    assert capsys.readouterr() == ("", "error: %s\n" % later_message)


# parse_proof seeds its formula table from the root record alone, yet reports
# faults as a Sequent per record did: the first failing record in file order,
# and within it the first refused formula in printed order, left cedent first
SEEDED_FAULTS = {
    # the root record does not parse, and an earlier record fails otherwise
    "root-malformed-after-a-refused-record": (
        "node n1: a X, nu X. a X |- ; rule h_a ; children n0\n"
        "node n0: a a |- ; rule mu-l ; children n1\n",
        "sequent formulas must be closed: a X"),
    "root-refused-after-a-malformed-record": (
        "node n1: nu X. a X |- a x ; rule h_a ; children n0\n"
        "node n0: a X |- nu X. a X ; rule h_a ; children n1\n",
        "unknown name or letter outside alphabet: 'x' at position 2 in 'a x'"),
    "root-malformed-after-a-duplicate-id": (
        LOOP_RECORD % ("n1", "n1") + LOOP_RECORD % ("n1", "n0") + "node n0: mu X. X ; rule mu-l ; children n1\n",
        "duplicate node id 'n1'"),
    "root-without-a-turnstile-before-an-unknown-child": (
        LOOP_RECORD % ("n1", "n9") + "node n0: mu X. X ; rule mu-l ; children n1\n",
        "a sequent needs exactly one '|-': 'mu X. X'"),
    # the root names no node: every other fault comes first
    "no-root-before-a-malformed-record": (LOOP_RECORD % ("n1", "n1") + "node n2: a a |- ; rule mu-l ; children n2\n",
                                          "unexpected end of input at position 3 in 'a a'"),
    "no-root-before-an-undetermined-principal": (
        LOOP_RECORD % ("n1", "n1") + "node n2: a 0 |- T ; rule mu-l ; children n2\n",
        "node n2: principal formula for μ-l is undetermined; write it explicitly"),
    "no-root": (LOOP_RECORD % ("n1", "n1"), "root 'n0' is not a node"),
    # a refused formula beside formulas that resolve by lookup
    "refused-beside-lookups": (
        "node n0: nu X. a X |- nu X. a X + b X ; rule nu-l ; children n1\n"
        "node n1: a nu X. a X, nu X. a X |- a W, nu X. a X + b X, b Y ; rule mu-l ; children n1\n",
        "sequent formulas must be closed: a W"),
    # the least refused formula by expr_sort_key on the left, not the first in the text
    "refused-left-and-right": (
        "node n0: nu X. a X |- nu X. a X + b X ; rule nu-l ; children n1\n"
        "node n1: b Y, a nu X. a X, a W |- a U, nu X. a X + b X ; rule mu-l ; children n1\n",
        "sequent formulas must be closed: a W"),
    "refused-before-a-malformed-formula": (
        "node n0: nu X. a X |- nu X. a X + b X ; rule nu-l ; children n1\n"
        "node n1: a Y, nu X. a X |- nu X. a X + b X, a x ; rule mu-l ; children n1\n",
        "unknown name or letter outside alphabet: 'x' at position 3 in ' a x'"),
}


@pytest.mark.parametrize("name", sorted(SEEDED_FAULTS))
def test_check_reports_faults_as_a_sequent_per_record_did(capsys, tmp_path, name):
    records, message = SEEDED_FAULTS[name]
    text = "alphabet: ab\n" + records + "root n0\n"
    with pytest.raises(ValueError) as ref:
        ref_parse_proof(text)
    assert str(ref.value) == message
    f = tmp_path / "faulty.proof"
    f.write_text(text)
    assert cli_module.main(["check", str(f)]) == 64
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    with pytest.raises(type(ref.value)):
        parse_proof(text)


# a formula of a record other than the root is parsed over the file's alphabet
# with no names, so the parser refuses a letter outside it, on either side
@pytest.mark.parametrize("sequent, message", [
    ("a nu X. a X |- nu X. a X + b X, c T", "unknown name or letter outside alphabet: 'c' at position 1 in ' c T'"),
    ("a nu X. a X, b c T |- nu X. a X + b X", "unknown name or letter outside alphabet: 'c' at position 3 in ' b c T'"),
], ids=["right", "left"])
def test_check_refuses_a_letter_outside_the_alphabet_in_a_record_other_than_the_root(capsys, tmp_path, sequent, message):
    text = ("alphabet: ab\nnode n0: nu X. a X |- nu X. a X + b X ; rule nu-l ; children n1\n"
            "node n1: %s ; rule mu-l ; children n1\nroot n0\n" % sequent)
    with pytest.raises(ValueError) as ref:
        ref_parse_proof(text)
    assert str(ref.value) == message
    f = tmp_path / "letter.proof"
    f.write_text(text)
    assert cli_module.main(["check", str(f)]) == 64
    assert capsys.readouterr() == ("", "error: %s\n" % message)
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_proof(text)


# parse_proof gives each node the premisses its children carry, so a μ-l node
# with the wrong number of children is a schema violation, not a malformed graph
SCHEMA_VIOLATION = "node n0: premisses do not match the μ-l schema for this conclusion"


@pytest.mark.parametrize("children", ["n0, n0", ""], ids=["two-children", "no-children"])
def test_check_reports_a_child_count_off_the_schema_with_exit_2(capsys, tmp_path, children):
    f = tmp_path / "count.proof"
    f.write_text("alphabet: ab\nnode n0: mu X. X |- nu X. X ; rule mu-l principal mu X. X ; "
                 "children %s\nroot n0\n" % children)
    assert cli_module.main(["check", str(f)]) == 2
    assert capsys.readouterr() == ("local\nviolation: %s\n" % SCHEMA_VIOLATION, "")
    assert cli_module.main(["check", "--json", str(f)]) == 2
    assert capsys.readouterr() == (
        '{"command": "check", "inputs": {"file": %s}, "result": "local", "witness": {"violations": [%s]}}\n'
        % (json.dumps(str(f)), json.dumps(SCHEMA_VIOLATION, ensure_ascii=False)), "")


# a sequent is checked where it enters: parse_sequent and parse_proof build it
# through the checking constructor, never the unchecked premiss path
OPEN_SEQUENT_ERROR = "error: sequent formulas must be closed: a X\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_decide_refuses_an_open_sequent_with_exit_64(capsys, json_flag):
    assert cli_module.main(["decide", "--alphabet", "ab", "--sequent", "a X |- b 0", *json_flag]) == 64
    assert capsys.readouterr() == ("", OPEN_SEQUENT_ERROR)


@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["text", "json"])
def test_check_refuses_a_proof_node_with_an_open_sequent_with_exit_64(capsys, tmp_path, json_flag):
    f = tmp_path / "open.proof"
    f.write_text("alphabet: ab\nnode n0: a X |- ; rule h_a ; children n0\nroot n0\n")
    assert cli_module.main(["check", *json_flag, str(f)]) == 64
    assert capsys.readouterr() == ("", OPEN_SEQUENT_ERROR)


# Sequent names the first refused formula in printed order, left cedent first;
# sequents are frozensets of terms that hash by identity, so any other order
# would follow PYTHONHASHSEED
REFUSED_SEQUENT_SCRIPT = """
from rll.calculus import Sequent, parse_sequent
from rll.expr import Alphabet, parse
abc = Alphabet("abc")
for lhs, rhs in [(["c T", "b c T", "a X"], ["c c T"]), (["a T", "b c T"], ["c T", "a Y", "c a T"])]:
    try:
        Sequent([parse(t, abc) for t in lhs], [parse(t, abc) for t in rhs], Alphabet("ab"))
    except ValueError as err:
        print(err)
try:
    parse_sequent("b Y, a Z |- b b V, a a U, a X", Alphabet("ab"))
except ValueError as err:
    print(err)
"""


def test_a_refused_sequent_names_the_same_formula_under_every_hash_seed(tmp_path):
    f = tmp_path / "open.proof"
    f.write_text("alphabet: ab\nnode n0: b Y, a X, a Z |- b b V, a W ; rule h_a ; children n0\nroot n0\n")
    runs = {
        "decide": ("-m", "rll", "decide", "--alphabet", "ab", "--sequent", "a X, b Y, a Z, b b V |- b W, a a U"),
        "check": ("-m", "rll", "check", str(f)),
        "parse_sequent": ("-c", REFUSED_SEQUENT_SCRIPT),
    }
    want = {
        "decide": (64, "", "error: sequent formulas must be closed: a X\n"),
        "check": (64, "", "error: sequent formulas must be closed: a X\n"),
        "parse_sequent": (0, "formula c T uses letters outside the alphabet: c\n"
                             "formula b c T uses letters outside the alphabet: c\n"
                             "sequent formulas must be closed: b Y\n", ""),
    }
    for seed in ("0", "1", "2", "3", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
        for name, argv in runs.items():
            r = subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env)
            assert (r.returncode, r.stdout, r.stderr) == want[name], (seed, name)


def test_parse_sequent_refuses_an_open_formula():
    with pytest.raises(ValueError, match="^sequent formulas must be closed: a X$"):
        parse_sequent("a X |-", ALPHABET)


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


@pytest.mark.parametrize(
    "argv",
    [
        ("decide", "--alphabet", "aé", "--sequent", "|- a T"),
        ("member", "--alphabet", "ab", "--word", "(a)^w", "--expr", "mu T. a T"),
    ],
    ids=["letter-outside-a-z", "binder-named-T"],
)
def test_input_no_parser_can_read_back_exits_64(capsys, argv):
    assert cli_module.main(list(argv)) == 64
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("error: ")


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


@pytest.mark.parametrize(
    "exc", [KeyError("alphabet"), TypeError("bad operand\ntype"), AssertionError()], ids=repr
)
def test_any_other_exception_exits_70_with_one_line(monkeypatch, capsys, exc):
    def fail(args):
        raise exc

    monkeypatch.setattr(cli_module, "_cmd_parse", fail)
    code = cli_module.main(["parse", "--alphabet", "ab", "--expr", "a T"])
    out = capsys.readouterr()
    assert code == 70
    assert out.out == ""
    assert out.err.startswith("error: internal error: %s: " % type(exc).__name__)
    assert out.err.count("\n") == 1 and out.err.endswith("\n")


@pytest.mark.parametrize(
    "exc", [KeyError("alphabet"), TypeError("bad operand\ntype"), AssertionError()], ids=repr
)
def test_a_handler_replaced_after_the_parser_is_built_is_the_one_that_runs(monkeypatch, capsys, exc):
    def fail(args):
        raise exc

    assert cli_module._build_parser() is cli_module._build_parser()
    assert cli_module.main(["parse", "--alphabet", "ab", "--expr", "a T"]) == 0
    assert capsys.readouterr().out == "a T\n"
    monkeypatch.setattr(cli_module, "_cmd_parse", fail)
    code = cli_module.main(["parse", "--alphabet", "ab", "--expr", "a T"])
    out = capsys.readouterr()
    assert code == 70
    assert out.out == ""
    assert out.err.startswith("error: internal error: %s: " % type(exc).__name__)
    assert out.err.count("\n") == 1 and out.err.endswith("\n")


def test_main_called_repeatedly_in_one_process_prints_what_fresh_processes_do(monkeypatch, capsysbinary, tmp_path):
    # the parser is built once per process; no call may see another's
    # arguments, defaults or output
    monkeypatch.setenv("COLUMNS", "80")  # help wraps at one width in both
    monkeypatch.setenv("PYTHONIOENCODING", "utf-8")  # capsysbinary encodes UTF-8
    corpus_run = ["corpus", "run", "--filter", "decisions/id-zero", "--json"]
    calls = [
        ["parse", "--alphabet", "ab", "--expr", "f_a + a T"],
        ["member", "--alphabet", "ab", "--word", "(ab)^w", "--expr", "i_a", "--json"],
        ["member", "--alphabet", "ab"],
        ["--help"],
        ["decide", "--alphabet", "ab", "--sequent", "only-a |- i_a", "--json", "--emit-proof", "{proof}"],
        corpus_run[:2] + ["--seed", "5"] + corpus_run[2:],
        corpus_run,
    ]
    here, fresh = tmp_path / "in-process.prf", tmp_path / "fresh.prf"
    got = []
    for argv in calls:
        code = cli_module.main([str(here) if a == "{proof}" else a for a in argv])
        out = capsysbinary.readouterr()
        got.append((code, out.out, out.err))
    want = []
    for argv in calls:
        r = rll(*[str(fresh) if a == "{proof}" else a for a in argv], text=False)
        want.append((r.returncode, r.stdout, r.stderr))
    assert [code for code, _, _ in got] == [0, 0, 64, 0, 0, 0, 0]
    assert got == want
    assert here.read_bytes() == fresh.read_bytes() and here.read_bytes().startswith(b"alphabet: ab\n")
    assert json.loads(got[-2][1])["inputs"]["seed"] == 5
    assert json.loads(got[-1][1])["inputs"] == {"filter": "decisions/id-zero", "seed": 0}


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
