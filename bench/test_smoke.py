"""Smoke test of the benchmark itself: one row of each kind per workload,
traced and untraced, must be answered correctly and report every metric of
BENCHMARK.json with its unit.  The benchmark's membership reference and
complement are also compared with rll's test oracle and with rll itself.

Run from the root of a checkout:
    python3 -m pytest bench/test_smoke.py      or      python3 bench/test_smoke.py
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

import oracle  # noqa: E402
import workloads  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_every_workload_reports_every_metric_with_its_unit():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for workload in workloads.WORKLOADS:
        for trace, listed in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = _run(workload, trace)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2, result
            want = {m["name"]: m["unit"] for m in listed}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, (workload, trace)


def _to_tuple(e):
    from rll.expr import Cap, Letter, Mu, Plus, Top, Var, Zero

    if isinstance(e, Var):
        return oracle.var(e.name)
    if isinstance(e, Zero):
        return oracle.ZERO
    if isinstance(e, Top):
        return oracle.TOP
    if isinstance(e, Letter):
        return oracle.letter(e.letter, _to_tuple(e.body))
    if isinstance(e, (Plus, Cap)):
        return ("plus" if isinstance(e, Plus) else "cap", _to_tuple(e.left), _to_tuple(e.right))
    return ("mu" if isinstance(e, Mu) else "nu", e.var, _to_tuple(e.body))


def test_reference_agrees_with_the_test_oracle_and_rll():
    from oracles import gen_expr, gen_word, member_denotational
    from rll.expr import Alphabet, canonical, complement, parse

    alphabet = Alphabet("abc")
    rng = random.Random(7)
    for _ in range(500):
        e = gen_expr(rng, alphabet, rng.randint(1, 12))
        stem, loop = gen_word(rng, alphabet, 4, 5)
        t = _to_tuple(e)
        assert oracle.member(stem, loop, t) == member_denotational(stem, loop, e)
        assert parse(oracle.show(t), alphabet) == canonical(e)
        mine = parse(oracle.show(oracle.complement(t, "abc")), alphabet)
        assert mine == complement(e, alphabet)


if __name__ == "__main__":
    test_every_workload_reports_every_metric_with_its_unit()
    test_reference_agrees_with_the_test_oracle_and_rll()
    print("ok")
