"""Byte-for-byte regression against the golden CLI capture.

tests/golden/capture.json holds the exit code, stdout and emitted DOT file
of every captured `rll` command line; see tests/golden/regenerate.py for how
it is made and when it may be regenerated.  tests/golden/rows.py dumps rll's
output on every benchmark row; here it runs on the smoke rows only.
tests/golden/graphs.py dumps the progress verdict on seeded random proof
graphs; here it runs on three seeds.  tests/golden/scale.py digests the
trace automaton and verdict of the scale rows, and the round trip of each
row's proof file; here it runs on the refuted 3-letter row.
tests/golden/closures.py digests the numbered closure and colouring of the
bundled, deep and drawn expressions; here it runs on a few draws.
tests/golden/sweep.py decides every sequent between two small terms; here
it runs on the smallest ones.  tests/golden/gates.py runs the full dumps in this checkout
and in a parent one and compares them; here it compares a copy of this
checkout with itself on a short graphs dump, and must report a difference
planted in the copy.
"""

import hashlib
import json
import re
import shutil

import pytest

from golden.regenerate import CAPTURE, cases, run
from golden import closures, gates, graphs, scale, sweep
from golden.rows import dump_lines, workloads
from rll.corpus import EXPRESSIONS
from rll.proof import serialize_proof

with open(CAPTURE, encoding="utf-8") as _f:
    GOLDEN = json.load(_f)


def test_capture_covers_every_case():
    assert {case_id: argv for case_id, argv in cases()} == {k: v["argv"] for k, v in GOLDEN.items()}


@pytest.mark.parametrize("case_id", sorted(GOLDEN))
def test_cli_output_matches_the_capture(case_id):
    want = GOLDEN[case_id]
    got = run(want["argv"])
    assert got == {k: v for k, v in want.items() if k != "argv"}


def test_rows_dump_has_one_well_formed_line_per_smoke_row():
    rows = [row for workload in workloads.WORKLOADS for row in workloads.build_rows(workload, 7, smoke=True)]
    lines = dump_lines(7, smoke=True)
    assert len(lines) == len(rows) and {row.kind for row in rows} == {"suite", "decide", "check", "member"}
    for row, line in zip(rows, lines):
        record = json.loads(line)
        assert "\n" not in line and set(record) == {"id", "exit", "stdout", "stderr", "proof"}
        assert record["id"] == row.id and record["exit"] in (0, 1) and record["stdout"]
        proved = row.kind == "decide" and row.expect["verdict"] == "proved"
        assert (record["proof"] or "").startswith("alphabet: ") == proved, row.id
        if row.kind == "check":  # it read the proof its decide row wrote
            assert record["exit"] == 0, record


def test_graphs_dump_has_one_well_formed_line_per_graph_and_repeats():
    lines = graphs.dump_lines(3)
    assert graphs.dump_lines(3) == lines
    records = [json.loads(line) for line in lines]
    keys = {"seed", "graph", "sequent", "nodes", "reason", "violations", "lasso", "trace_states"}
    for line, record in zip(lines, records):
        assert "\n" not in line and set(record) == keys
        assert record["reason"] in ("accepted", "progress") and record["violations"] == []
        assert (record["lasso"] is None) == (record["reason"] == "accepted")
        assert record["nodes"] >= 1 and record["trace_states"] >= 0
    # per seed, the saturated graph and then its unroll_edge variants, if any
    for seed in range(3):
        kinds = [r["graph"].split()[0] for r in records if r["seed"] == seed]
        assert kinds in (["saturated"], ["saturated", "unroll", "unroll"])
    assert [r["seed"] for r in records] == sorted(r["seed"] for r in records)


def test_graphs_dump_appends_a_band_of_larger_draws(monkeypatch):
    lines = graphs.dump_lines(8)
    records = [json.loads(line) for line in lines]
    # seeds 0..n-1 do not depend on n, so an older dump stays a prefix
    small = [line for line, r in zip(lines, records) if r["seed"] < 4]
    assert graphs.dump_lines(4)[: len(small)] == small
    band = [r for r in records if r["seed"] >= 8]
    assert {r["seed"] for r in band} == {8, 9}
    assert all(r["reason"] in ("accepted", "progress") and r["nodes"] >= 1 for r in band)
    # a draw past the budget prints one line and no unroll variants
    monkeypatch.setattr(graphs, "LARGE_BUDGET", 2)
    over = [json.loads(line) for line in graphs.dump_lines(8)]
    assert over[: len(records) - len(band)] == records[: len(records) - len(band)]
    budget = [r for r in over if r["reason"] == "budget"]
    assert budget and all(r["seed"] >= 8 for r in budget)
    for r in budget:
        assert [o for o in over if o["seed"] == r["seed"]] == [r]
        assert r["graph"] == "saturated" and r["nodes"] is None and r["trace_states"] is None
        assert set(r) == set(records[0])


def test_scale_dump_digests_the_refuted_three_letter_row():
    assert list(scale.ROWS) == ["fin_c", "conj-2/4", "refuted-3"] and list(scale.STRETCH_ROWS) == ["fin-d4"]
    line = scale.dump_line("refuted-3")
    assert "\n" not in line and scale.dump_line("refuted-3") == line
    record = json.loads(line)
    assert set(record) == {"row", "nodes", "trace_states", "automaton_sha256", "reason", "lasso"}
    # the automaton and the lasso that the trace build and the search give today
    assert (record["row"], record["nodes"], record["trace_states"], record["reason"]) == (
        "refuted-3", 534, 8083, "progress")
    assert record["automaton_sha256"] == "fd1ad36c7d20e22bd293f4517964a703702c713373f1d528898bfc15e26e8680"
    lasso = record["lasso"]
    assert lasso["stem"] == ["n%d" % i for i in range(16)] and lasso["stem_edges"] == [0] * 16
    assert lasso["cycle"][0] == "n17" and len(lasso["cycle"]) == len(lasso["cycle_edges"]) == 61
    # the row's proof file reads back to a graph that writes the same bytes and gets the same verdict
    p = scale.saturated("refuted-3")
    assert json.loads(scale.round_trip_line("refuted-3", p)) == {
        "row": "refuted-3", "file_sha256": hashlib.sha256(serialize_proof(p).encode()).hexdigest(),
        "file_reason": "progress"}


def test_closures_dump_has_one_well_formed_line_per_expression():
    lines = closures.dump_lines(20)
    assert closures.dump_lines(20) == lines
    records = [json.loads(line) for line in lines]
    assert [r["name"] for r in records[: len(EXPRESSIONS)]] == list(EXPRESSIONS)
    assert [r["name"] for r in records[-20:]] == ["gen_expr-%d" % seed for seed in range(20)]
    assert len(records) == len(EXPRESSIONS) + 9 + 20
    for line, record in zip(lines, records):
        assert "\n" not in line and set(record) == {"name", "size", "sha256", "colouring"}
        assert len(record["colouring"]) == record["size"] >= 1 and len(record["sha256"]) == 64
    # seeds 0..n-1 do not depend on n, so an older dump stays a prefix
    assert closures.dump_lines(30)[: len(lines)] == lines


def test_sweep_dump_has_one_line_per_block_of_sequents(monkeypatch):
    assert [len(sweep.terms(n)) for n in range(1, 5)] == [2, 10, 54, 318]
    monkeypatch.setattr(sweep, "BLOCK", 100)
    lines = sweep.dump_lines(2, 3)
    assert sweep.dump_lines(2, 3) == lines
    records = [json.loads(line) for line in lines]
    assert [r["block"] for r in records] == list(range(6))  # 10 * 54 sequents
    assert [r["sequents"] for r in records] == [100] * 5 + [40]
    for line, record in zip(lines, records):
        assert "\n" not in line and set(record) == {"block", "sequents", "proved", "refuted", "sha256"}
        assert record["proved"] + record["refuted"] == record["sequents"] and len(record["sha256"]) == 64
    assert sum(r["proved"] for r in records) > 0 and sum(r["refuted"] for r in records) > 0


def test_gates_read_identical_on_a_copy_and_report_a_planted_difference(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(gates, "DUMPS", (("graphs.py", "20"),))
    copy = tmp_path / "copy"
    shutil.copytree(gates.ROOT, copy, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache"))
    assert gates.main([str(copy)]) == 0
    assert re.fullmatch(r"graphs\.py 20: identical \(\d+ lines\)\n", capsys.readouterr().out)
    proof = copy / "src" / "rll" / "proof.py"
    text = proof.read_text(encoding="utf-8")
    assert text.count('return "accepted"') == 1
    proof.write_text(text.replace('return "accepted"', 'return "planted"'), encoding="utf-8")
    assert gates.main([str(copy)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("graphs.py 20: differs at line ") and '"reason": "planted"' in out
