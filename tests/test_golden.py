"""Byte-for-byte regression against the golden CLI capture.

tests/golden/capture.json holds the exit code, stdout and emitted DOT file
of every captured `rll` command line; see tests/golden/regenerate.py for how
it is made and when it may be regenerated.
"""

import json

import pytest

from golden.regenerate import CAPTURE, cases, run

with open(CAPTURE, encoding="utf-8") as _f:
    GOLDEN = json.load(_f)


def test_capture_covers_every_case():
    assert {case_id: argv for case_id, argv in cases()} == {k: v["argv"] for k, v in GOLDEN.items()}


@pytest.mark.parametrize("case_id", sorted(GOLDEN))
def test_cli_output_matches_the_capture(case_id):
    want = GOLDEN[case_id]
    got = run(want["argv"])
    assert got == {k: v for k, v in want.items() if k != "argv"}
