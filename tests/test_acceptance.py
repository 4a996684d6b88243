"""The acceptance gate: one test per advertised guarantee, in order.

Each test prints a single `criterion N: PASS` line when it succeeds; a
failing criterion shows up as a failed test (and no line).  Criteria:

1. the five bundled inclusion proofs are accepted by the checker;
2. the four single-node unfolding loops get their exact verdicts;
3. the 20-sequent decision corpus is fully verified in both directions;
4. six expressions join with and meet their complements as proved sequents;
5. on >= 1000 random instances, the solver's winning strategies certify
   its winners at every position and the solver on the dual game swaps
   them, plus hand-derived closed forms;
6. every search-generated rule instance is sound (and invertible where
   advertised) on 200 sampled words;
7. closure sizes are bounded by AST sizes and the default colouring obeys
   its two constraints;
8. repeated CLI runs are byte-identical.
"""

import os
import subprocess
import sys
from pathlib import Path

from rll.corpus import (
    CLOSED_FORM_WORDS,
    COMPLEMENT_ROUND_NAMES,
    DECISIONS,
    MEMBERSHIP_SAMPLES,
    SOUNDNESS_WORDS,
    bound_failures,
    closed_form_failures,
    membership_mismatches,
    proofs,
    run_suite,
    saturation_instances,
    soundness_violations,
)
from rll.proof import check

ROOT = Path(__file__).resolve().parent.parent
SEED = 20260815
PAPER_PROOF_NAMES = (
    "only-a-has-inf-a",
    "fin-a-cap-only-a-empty",
    "fin-a-has-inf-b",
    "fin-a-or-inf-a-total",
    "fin-a-cap-fin-b-empty",
)
LOOP_FIXTURE_NAMES = (
    "none-sub-all-unfold-left",
    "none-sub-all-unfold-right",
    "all-sub-none-unfold-left",
    "all-sub-none-unfold-right",
)


def _passed(n, text):
    print("criterion %d: PASS - %s" % (n, text))


def test_criterion_1_bundled_inclusion_proofs_accepted():
    fixtures = proofs()
    assert len(PAPER_PROOF_NAMES) == 5
    for name in PAPER_PROOF_NAMES:
        p, expected = fixtures[name]
        assert expected
        r = check(p)
        assert r.ok, "%s was not accepted: %s" % (name, r.reason)
    _passed(1, "all five bundled inclusion proofs accepted")


def test_criterion_2_single_node_loops_get_exact_verdicts():
    fixtures = proofs()
    expected = {
        "none-sub-all-unfold-left": True,
        "none-sub-all-unfold-right": True,
        "all-sub-none-unfold-left": False,
        "all-sub-none-unfold-right": False,
    }
    assert set(fixtures) - set(PAPER_PROOF_NAMES) == set(LOOP_FIXTURE_NAMES) == set(expected)
    for name, want in expected.items():
        p, _ = fixtures[name]
        r = check(p)
        assert r.ok == want, name
        if not want:
            assert p.order == ("n0",), name
            assert r.lasso is not None and [v for v, _ in r.lasso.cycle] == [0], name
    _passed(2, "2 accepted, 2 rejected with counter-lassos")


def test_criterion_3_twenty_sequent_corpus_fully_verified():
    rows = run_suite(SEED, "decisions/")
    assert [r.name for r in rows] == [name for name, _, _ in DECISIONS]
    assert len(rows) == 20
    assert all(r.ok for r in rows), [r.detail for r in rows if not r.ok]
    proved = sum(verdict == "proved" for _, _, verdict in DECISIONS)
    _passed(3, "%d proofs re-checked, %d countermodels verified" % (proved, len(rows) - proved))


def test_criterion_4_complement_round_trips_as_proofs():
    rows = run_suite(SEED, "complement/")
    assert len(COMPLEMENT_ROUND_NAMES) == 6
    assert [r.name for r in rows] == [
        "%s-%s" % (name, suffix) for name in COMPLEMENT_ROUND_NAMES for suffix in ("total", "empty")
    ]
    assert all(r.ok for r in rows), [r.detail for r in rows if not r.ok]
    _passed(4, "6 expressions, both complement sequents proved and re-checked")


def test_criterion_5_membership_routes_agree_on_random_and_closed_forms():
    assert MEMBERSHIP_SAMPLES >= 1000 and CLOSED_FORM_WORDS >= 50
    mismatches = membership_mismatches(SEED)
    assert mismatches == [], mismatches[:3]
    fails = closed_form_failures(SEED)
    assert fails == [], fails[:3]
    _passed(5, "1000 three-way agreements; closed forms hold")


def test_criterion_6_rule_instances_sound_and_invertible_on_samples():
    assert SOUNDNESS_WORDS >= 200
    table, instances = saturation_instances([s for _, s, _ in DECISIONS])
    unsound, uninvertible = soundness_violations(table, instances, SEED)
    assert unsound == [], unsound[:3]
    assert uninvertible == [], uninvertible[:3]
    _passed(6, "all saturation instances sound and invertible on 200 words")


def test_criterion_7_structural_bounds_hold():
    size_fails, colour_fails = bound_failures()
    assert size_fails == [], size_fails
    assert colour_fails == [], colour_fails
    _passed(7, "closure sizes within AST sizes; colouring constraints hold")


def _run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    r = subprocess.run(
        [sys.executable, "-m", "rll", *argv], capture_output=True, env=env
    )
    return r.returncode, r.stdout, r.stderr


def test_criterion_8_cli_outputs_are_byte_identical_across_runs():
    decide_args = ("decide", "--alphabet", "ab", "--sequent", "i_a |- f_a")
    first = _run_cli(*decide_args)
    second = _run_cli(*decide_args)
    assert first == second
    assert first[0] == 1 and first[1].startswith(b"refuted ")
    corpus_args = ("corpus", "run", "--seed", "7")
    first = _run_cli(*corpus_args)
    second = _run_cli(*corpus_args)
    assert first == second
    assert first[0] == 0
    _passed(8, "decide and seeded corpus runs byte-identical")
