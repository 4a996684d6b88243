"""Byte-for-byte regression against the golden CLI capture.

tests/golden/capture.json holds the exit code, stdout and emitted DOT file
of every captured `rll` command line; see tests/golden/regenerate.py for how
it is made and when it may be regenerated.  tests/golden/rows.py dumps rll's
output on every benchmark row; here it runs on the smoke rows only.
"""

import json

import pytest

from golden.regenerate import CAPTURE, cases, run
from golden.rows import dump_lines, workloads

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
