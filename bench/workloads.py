"""The rows of the three workloads, generated from the workload seed, and
the reference each row's answer is checked against.

Every row is one rll CLI call.  Expected answers never come from rll: member
answers come from the benchmark's own denotational oracle, decide verdicts
are written down below (round trips hold by construction, refutations were
derived by hand), and every refuted word is re-checked with the oracle.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass

import oracle as o
from oracle import ZERO, TOP, cap, letter, mu, nu, plus, var

WORKLOADS = ("suite", "decide", "member")
WORK_DIR = "bench/out/work"


@dataclass
class Row:
    id: str
    argv: list
    kind: str  # "suite" | "decide" | "check" | "member"
    expect: dict


def build_rows(workload: str, seed: int, smoke: bool = False):
    """The rows of a workload.  `smoke` keeps one cheap row of each kind."""
    return {"suite": suite_rows, "decide": decide_rows, "member": member_rows}[workload](seed, smoke)


# ---------------------------------------------------------------------------
# expressions


def inf_letter(i: int, letters: str):
    """Infinitely many letters[i]: nu X. mu Y. (l_i X + the others Y)."""
    rest = [letter(b, var("Y")) for j, b in enumerate(letters) if j != i]
    return nu("X", mu("Y", plus(letter(letters[i], var("X")), *rest)))


def alt(d: int, letters: str):
    """nu X0. mu X1. ... (a0 X0 + ... + a(d-1) X(d-1)): the least index
    among the letters seen infinitely often is even."""
    body = plus(*(letter(letters[i], var("X%d" % i)) for i in range(d)))
    for i in reversed(range(d)):
        body = (nu if i % 2 == 0 else mu)("X%d" % i, body)
    return body


def conj(k: int, letters: str):
    """Every one of the k letters infinitely often."""
    return cap(*(inf_letter(i, letters[:k]) for i in range(k)))


# two letters, as in rll's bundled corpus
ONLY_A = nu("X", letter("a", var("X")))
ONLY_B = nu("X", letter("b", var("X")))
ANY = nu("X", plus(letter("a", var("X")), letter("b", var("X"))))
FIN_A = mu("X", plus(letter("a", var("X")), letter("b", var("X")), nu("Y", letter("b", var("Y")))))
FIN_B = mu("X", plus(letter("a", var("X")), letter("b", var("X")), nu("Y", letter("a", var("Y")))))
INF_A = inf_letter(0, "ab")
INF_B = nu("X", mu("Y", plus(letter("b", var("X")), letter("a", var("Y")))))
INF_A1 = mu("Y", plus(letter("a", INF_A), letter("b", var("Y"))))  # one unfolding
INF_B1 = mu("Y", plus(letter("b", INF_B), letter("a", var("Y"))))

# (name, lhs, rhs, verdict): rll's DECISIONS corpus, verdicts by hand
DECISIONS = (
    ("only-a-has-inf-a", [ONLY_A], [INF_A], "proved"),
    ("fin-a-cap-only-a-empty", [cap(FIN_A, ONLY_A)], [], "proved"),
    ("fin-a-has-inf-b", [FIN_A], [INF_B], "proved"),
    ("fin-a-or-inf-a-total", [], [plus(FIN_A, INF_A)], "proved"),
    ("fin-b-has-inf-a", [FIN_B], [INF_A], "proved"),
    ("id-zero", [ZERO], [ZERO], "proved"),
    ("id-top", [TOP], [TOP], "proved"),
    ("id-only-a", [ONLY_A], [ONLY_A], "proved"),
    ("id-only-b", [ONLY_B], [ONLY_B], "proved"),
    ("id-any", [ANY], [ANY], "proved"),
    ("id-fin-a", [FIN_A], [FIN_A], "proved"),
    ("id-fin-b", [FIN_B], [FIN_B], "proved"),
    ("id-inf-a", [INF_A], [INF_A], "proved"),
    ("id-inf-b", [INF_B], [INF_B], "proved"),
    ("id-inf-a-unfolded", [INF_A1], [INF_A1], "proved"),
    ("id-inf-b-unfolded", [INF_B1], [INF_B1], "proved"),
    ("inf-a-not-fin-a", [INF_A], [FIN_A], "refuted"),  # (a)^w
    ("empty-not-valid", [], [], "refuted"),  # any word
    ("any-not-inf-a", [ANY], [INF_A], "refuted"),  # (b)^w
    ("inf-a-cap-inf-b-not-fin-a", [cap(INF_A, INF_B)], [FIN_A], "refuted"),  # (ab)^w
)

# three letters
INF_A3 = inf_letter(0, "abc")
INF_B3 = nu("X", mu("Y", plus(letter("b", var("X")), letter("a", var("Y")), letter("c", var("Y")))))
INF_C3 = nu("X", mu("Y", plus(letter("c", var("X")), letter("a", var("Y")), letter("b", var("Y")))))
FIN_A3 = mu("X", plus(letter("a", var("X")), letter("b", var("X")), letter("c", var("X")),
                      nu("Y", plus(letter("b", var("Y")), letter("c", var("Y"))))))
FIN_C_SMALL = mu("X", plus(letter("a", var("X")), letter("b", var("X")), letter("c", var("X")),
                           nu("Y", letter("b", var("Y")))))
INF_A_INF_B3 = nu("X", mu("Y", plus(
    letter("a", nu("Z", mu("W", plus(letter("b", var("X")), letter("a", var("W")), letter("c", var("W")))))),
    letter("b", var("Y")),
    letter("c", var("Y")),
)))
ANY3 = nu("X", plus(letter("a", var("X")), letter("b", var("X")), letter("c", var("X"))))

LADDER = (
    ("inf-a3-empty", [cap(INF_A3, o.complement(INF_A3, "abc"))], [], "proved"),
    ("inf-a-inf-b3-empty", [cap(INF_A_INF_B3, o.complement(INF_A_INF_B3, "abc"))], [], "proved"),
    ("fin-c-small-empty", [cap(FIN_C_SMALL, o.complement(FIN_C_SMALL, "abc"))], [], "proved"),
    # (ab)^w has infinitely many a's and b's, no c's after a point
    ("inf-a-inf-b3-not-inf-c3-or-fin-a3", [cap(INF_A3, INF_B3)], [plus(INF_C3, FIN_A3)], "refuted"),
    # (c)^w has neither infinitely many a's nor infinitely many b's
    ("any3-not-inf-a3-or-inf-b3", [ANY3], [plus(INF_A3, INF_B3)], "refuted"),
)


# ---------------------------------------------------------------------------
# suite: `rll corpus run --seed <seed>` and `--seed <seed + 1>`

SUITE_NAMES = (
    tuple("proofs/" + n for n in (
        "only-a-has-inf-a", "fin-a-cap-only-a-empty", "fin-a-has-inf-b",
        "fin-a-or-inf-a-total", "fin-a-cap-fin-b-empty", "none-sub-all-unfold-left",
        "none-sub-all-unfold-right", "all-sub-none-unfold-left", "all-sub-none-unfold-right",
    ))
    + tuple("decisions/" + d[0] for d in DECISIONS)
    + tuple(
        "complement/%s-%s" % (n, s)
        for n in ("only-a", "any", "fin-a", "fin-b", "inf-a", "inf-b")
        for s in ("total", "empty")
    )
    + ("membership/three-way-agreement", "membership/closed-forms",
       "soundness/rule-soundness", "soundness/rule-invertibility",
       "bounds/closure-size", "bounds/colouring")
)

SMOKE_SUITE_FILTER = "decisions/id-zero"


def suite_rows(seed, smoke):
    """The suite for the workload seed and for the next seed.  The suite's
    sampled batches take a few per cent longer on some seeds than on others;
    two seeds per pass narrow that spread."""
    rows = []
    for corpus_seed in (seed, seed + 1):
        argv = ["corpus", "run", "--seed", str(corpus_seed)]
        names = SUITE_NAMES
        if smoke:
            argv += ["--filter", SMOKE_SUITE_FILTER]
            names = tuple(n for n in names if SMOKE_SUITE_FILTER in n)
        rows.append(Row("suite/corpus-run-%d" % corpus_seed, argv, "suite", {"names": names}))
    return rows


# ---------------------------------------------------------------------------
# decide: one `rll decide --json` per sequent, then `rll check` on each proof


def decide_rows(seed, smoke):
    """The seed renames the letters by an order-preserving map, so every
    seed does the same work up to renaming while the argv differ."""
    rng = random.Random(seed)
    fresh = sorted(rng.sample("abcdefghijklmnopqrstuvwxyz", 3))
    table = dict(zip("abc", fresh))
    rows = []
    groups = ((DECISIONS, "ab"), (LADDER, "abc"))
    if smoke:
        groups = ((DECISIONS[:1], "ab"),)
    for entries, letters in groups:
        alphabet = "".join(table[c] for c in letters)
        for name, lhs, rhs, verdict in entries:
            lhs = [o.rename_letters(e, table) for e in lhs]
            rhs = [o.rename_letters(e, table) for e in rhs]
            path = "%s/%s.proof" % (WORK_DIR, name)
            argv = ["decide", "--alphabet", alphabet, "--sequent", o.show_sequent(lhs, rhs),
                    "--json", "--emit-proof", path]
            expect = {"verdict": verdict, "lhs": lhs, "rhs": rhs, "proof_file": path}
            rows.append(Row("decide/" + name, argv, "decide", expect))
            if verdict == "proved":
                rows.append(Row("check/" + name, ["check", "--json", path], "check", {}))
    return rows


# ---------------------------------------------------------------------------
# member: one `rll member` per distinct (expression, word) pair

LETTERS = "abcdef"
# deep rows: high alternation, short words; (stem length, loop length)
DEEP = tuple(("alt-%d" % d, alt(d, LETTERS), LETTERS[:d]) for d in range(3, 7)) + tuple(
    ("conj-%d" % k, conj(k, LETTERS), LETTERS[:k]) for k in range(3, 6)
)
DEEP_SHAPES = ((1, 8), (2, 6), (0, 7), (3, 5))
# long rows: shallow expressions, long periods
LONG = (
    ("inf-a", INF_A, "ab"),
    ("fin-a", FIN_A, "ab"),
    ("alt-2", alt(2, LETTERS), "ab"),
    ("alt-3", alt(3, LETTERS), "abc"),
    ("conj-2", conj(2, LETTERS), "ab"),
    ("conj-3", conj(3, LETTERS), "abc"),
)
LONG_PERIODS = (512, 1024)
LONG_STEM = 4


def _draw(rng, letters, n, every=False):
    while True:
        w = "".join(rng.choice(letters) for _ in range(n))
        if not every or set(w) == set(letters):
            return w


def member_rows(seed, smoke):
    rng = random.Random(seed)
    rows = []

    def add(name, e, letters, stem, loop):
        argv = ["member", "--alphabet", letters, "--word", "%s(%s)^w" % (stem, loop), "--expr", o.show(e)]
        rows.append(Row("member/%s/%d" % (name, len(rows)), argv, "member",
                        {"expr": e, "stem": stem, "loop": loop}))

    for name, e, letters in DEEP[:1] if smoke else DEEP:
        seen = set()
        for stem_len, loop_len in DEEP_SHAPES[:1] if smoke else DEEP_SHAPES:
            while True:
                w = (_draw(rng, letters, stem_len), _draw(rng, letters, loop_len))
                if w not in seen:
                    break
            seen.add(w)
            add(name, e, letters, *w)
    if smoke:
        return rows
    for name, e, letters in LONG:
        for period in LONG_PERIODS:
            # one loop over every letter, one that never shows the first
            add(name, e, letters, _draw(rng, letters, LONG_STEM), _draw(rng, letters, period, every=True))
            add(name, e, letters, _draw(rng, letters, LONG_STEM), _draw(rng, letters[1:], period))
    return rows


# ---------------------------------------------------------------------------
# checking answers


_SUITE_LINE = re.compile(r"(PASS|FAIL) (\S+) - (.*)\Z")
_PROOF_DETAIL = re.compile(r"proof with \d+ nodes re-checked\Z")
_COUNTER_DETAIL = re.compile(r"countermodel (\S+) verified\Z")
_DECISION_BY_NAME = {d[0]: d for d in DECISIONS}


def _word_refutes(word_text, lhs, rhs):
    """None if the word lies in every lhs language and in no rhs one."""
    word = o.parse_word(word_text)
    if word is None:
        return "malformed word %r" % word_text
    for e in lhs:
        if not o.member(*word, e):
            return "countermodel %s is not in %s" % (word_text, o.show(e))
    for f in rhs:
        if o.member(*word, f):
            return "countermodel %s is in %s" % (word_text, o.show(f))
    return None


def check_row(row: Row, out: dict):
    """None when the row's answer is right, else why not.  `out` holds the
    exit code, captured stdout and any exception of one CLI call."""
    if out.get("error"):
        return "raised " + out["error"].strip().splitlines()[-1]
    code, text = out["code"], out["stdout"]
    if row.kind == "member":
        want = o.member(row.expect["stem"], row.expect["loop"], row.expect["expr"])
        got = {(0, "member\n"): True, (1, "nonmember\n"): False}.get((code, text))
        if got is None:
            return "exit %s with output %r" % (code, text[:200])
        return None if got == want else "answered %s, reference says %s" % (got, want)
    if row.kind == "suite":
        return _check_suite(row, code, text)
    try:
        env = json.loads(text)
    except ValueError:
        return "exit %s with non-JSON output %r" % (code, text[:200])
    if row.kind == "check":
        if code != 0 or env.get("result") != "accepted":
            return "check exit %s, result %r" % (code, env.get("result"))
        return None
    verdict = row.expect["verdict"]
    result = env.get("result", "")
    if verdict == "proved":
        if code != 0 or result != "proved":
            return "expected proved, got exit %s, result %r" % (code, result)
        with open(row.expect["proof_file"], encoding="utf-8") as f:
            if f.read() != env.get("witness", {}).get("proof"):
                return "emitted proof file differs from the proof in the envelope"
        return None
    if code != 1 or not result.startswith("refuted "):
        return "expected refuted, got exit %s, result %r" % (code, result)
    word = env.get("witness", {}).get("word", "")
    if result != "refuted " + word:
        return "result %r does not name the witness word %r" % (result, word)
    return _word_refutes(word, row.expect["lhs"], row.expect["rhs"])


def _check_suite(row, code, text):
    lines = text.splitlines()
    names = row.expect["names"]
    if code != 0 or lines[-1:] != ["passed %d/%d" % (len(names), len(names))]:
        return "exit %s, last line %r" % (code, lines[-1:])
    got = []
    for line in lines[:-1]:
        m = _SUITE_LINE.match(line)
        if m is None:
            return "unrecognised line %r" % line
        status, name, detail = m.groups()
        if status != "PASS":
            return "row %s: %s" % (name, detail)
        got.append(name)
        group, _, short = name.partition("/")
        if group != "decisions":
            continue
        _, lhs, rhs, verdict = _DECISION_BY_NAME.get(short, (None, [], [], None))
        if verdict == "proved" and not _PROOF_DETAIL.match(detail):
            return "row %s: expected a proof, got %r" % (name, detail)
        if verdict == "refuted":
            m = _COUNTER_DETAIL.match(detail)
            if m is None:
                return "row %s: expected a countermodel, got %r" % (name, detail)
            why = _word_refutes(m.group(1), lhs, rhs)
            if why:
                return "row %s: %s" % (name, why)
    if tuple(got) != names:
        return "row names differ from the fixed set"
    return None
