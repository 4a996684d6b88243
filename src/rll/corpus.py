"""Built-in fixture corpus: named expressions, decision sequents, and
cyclic-proof fixtures over the two-letter alphabet.

Proof fixtures are constructed from their derivation structure alone: each
node gives (rule, principal, children) and the builder propagates sequents
from the root through rule premisses, so a mis-stated derivation fails to
build rather than silently producing a different proof.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .expr import (
    TOP,
    ZERO,
    Alphabet,
    Cap,
    Letter,
    Mu,
    Nu,
    Plus,
    Var,
    ast_size,
    canonical,
    complement,
    fl_closure,
    parse,
    pretty,
    subformula_leq,
    unfold,
)
from .calculus import LOGICAL_RULE, Sequent, make_instance
from .semantics import (
    UPWord,
    build_eval_game,
    member,
    parse_word,
    solve_spm,
    solve_zielonka,
)
from .automaton import apa_accepts, build_apa, default_coloring
from .proof import ProofGraph, check
from .decide import Proved, Refuted, decide, saturate

ALPHABET = Alphabet("ab")


def _e(text: str):
    return parse(text, ALPHABET)


EXPRESSIONS = {
    "none": _e("mu X. X"),
    "all": _e("nu X. X"),
    "only-a": _e("nu X. a X"),
    "only-b": _e("nu X. b X"),
    "any": _e("nu X. (a X + b X)"),
    "fin-a": _e("mu X. (a X + b X + nu Y. b Y)"),
    "fin-b": _e("mu X. (a X + b X + nu Y. a Y)"),
    "inf-a": _e("nu X. mu Y. (a X + b Y)"),
    "inf-b": _e("nu X. mu Y. (b X + a Y)"),
}
EXPRESSIONS["inf-a-unfolded"] = unfold(EXPRESSIONS["inf-a"])
EXPRESSIONS["inf-b-unfolded"] = unfold(EXPRESSIONS["inf-b"])

_F_A = EXPRESSIONS["fin-a"]
_F_B = EXPRESSIONS["fin-b"]
_I_A = EXPRESSIONS["inf-a"]
_I_B = EXPRESSIONS["inf-b"]
_I_A1 = EXPRESSIONS["inf-a-unfolded"]
_I_B1 = EXPRESSIONS["inf-b-unfolded"]
_REP_A = EXPRESSIONS["only-a"]
_REP_B = EXPRESSIONS["only-b"]


def _seq(lhs, rhs) -> Sequent:
    return Sequent(lhs, rhs, ALPHABET)


# the decision corpus: (name, sequent, expected verdict)
DECISIONS = (
    # provable inclusions
    ("only-a-has-inf-a", _seq({_REP_A}, {_I_A}), "proved"),
    ("fin-a-cap-only-a-empty", _seq({Cap(_F_A, _REP_A)}, set()), "proved"),
    ("fin-a-has-inf-b", _seq({_F_A}, {_I_B}), "proved"),
    ("fin-a-or-inf-a-total", _seq(set(), {Plus(_F_A, _I_A)}), "proved"),
    ("fin-b-has-inf-a", _seq({_F_B}, {_I_A}), "proved"),
    # identities
    ("id-zero", _seq({ZERO}, {ZERO}), "proved"),
    ("id-top", _seq({TOP}, {TOP}), "proved"),
    ("id-only-a", _seq({_REP_A}, {_REP_A}), "proved"),
    ("id-only-b", _seq({_REP_B}, {_REP_B}), "proved"),
    ("id-any", _seq({EXPRESSIONS["any"]}, {EXPRESSIONS["any"]}), "proved"),
    ("id-fin-a", _seq({_F_A}, {_F_A}), "proved"),
    ("id-fin-b", _seq({_F_B}, {_F_B}), "proved"),
    ("id-inf-a", _seq({_I_A}, {_I_A}), "proved"),
    ("id-inf-b", _seq({_I_B}, {_I_B}), "proved"),
    ("id-inf-a-unfolded", _seq({_I_A1}, {_I_A1}), "proved"),
    ("id-inf-b-unfolded", _seq({_I_B1}, {_I_B1}), "proved"),
    # refutable inclusions
    ("inf-a-not-fin-a", _seq({_I_A}, {_F_A}), "refuted"),
    ("empty-not-valid", _seq(set(), set()), "refuted"),
    ("any-not-inf-a", _seq({EXPRESSIONS["any"]}, {_I_A}), "refuted"),
    ("inf-a-cap-inf-b-not-fin-a", _seq({Cap(_I_A, _I_B)}, {_F_A}), "refuted"),
)


def _build_proof(root_sequent: Sequent, derivation, root: str = "n0") -> ProofGraph:
    """Assemble a ProofGraph from {id: (rule, principal, children)} by
    propagating sequents from the root through each instance's premisses."""
    sequents = {root: root_sequent}
    queue = [root]
    ordered = []
    for nid in queue:  # the queue grows while it is walked
        rule, principal, kids = derivation[nid]
        inst = make_instance(rule, sequents[nid], principal)
        if len(inst.premisses) != len(kids):
            raise ValueError("node %s: %d premisses for %d children" % (nid, len(inst.premisses), len(kids)))
        for prem, cid in zip(inst.premisses, kids):
            if cid in sequents:
                if sequents[cid] != prem:
                    raise ValueError("node %s: child %s already carries a different sequent" % (nid, cid))
            else:
                sequents[cid] = prem
                queue.append(cid)
        ordered.append((nid, inst, tuple(kids)))
    return ProofGraph(ordered, root)


def _proof_only_a_has_inf_a() -> ProofGraph:
    # only a's has infinitely many a's: loop unfolds both sides, steps over a
    return _build_proof(
        _seq({_REP_A}, {_I_A}),
        {
            "n0": ("ν-l", _REP_A, ("n1",)),
            "n1": ("ν-r", _I_A, ("n2",)),
            "n2": ("μ-r", _I_A1, ("n3",)),
            "n3": ("+-r", unfold(_I_A1), ("n4",)),
            "n4": ("r-w", Letter("b", _I_A1), ("n5",)),
            "n5": ("h_a", "a", ("n0",)),
        },
    )


def _proof_fin_a_cap_only_a_empty() -> ProofGraph:
    # finitely many a's and only a's is impossible
    ufa = unfold(_F_A)                      # a fin-a + b fin-a + only-b
    pab = Plus(Letter("a", _F_A), Letter("b", _F_A))
    return _build_proof(
        _seq({Cap(_F_A, _REP_A)}, set()),
        {
            "n0": ("∩-l", Cap(_F_A, _REP_A), ("n1",)),
            "n1": ("ν-l", _REP_A, ("n2",)),
            "n2": ("μ-l", _F_A, ("n3",)),
            "n3": ("+-l", ufa, ("n4", "n5")),
            "n4": ("+-l", pab, ("n6", "n7")),
            "n6": ("h_a", "a", ("n1",)),
            "n7": ("l-p", None, ()),
            "n5": ("ν-l", _REP_B, ("n8",)),
            "n8": ("l-p", None, ()),
        },
    )


def _proof_fin_a_has_inf_b() -> ProofGraph:
    # finitely many a's forces infinitely many b's
    ufa = unfold(_F_A)
    pab = Plus(Letter("a", _F_A), Letter("b", _F_A))
    return _build_proof(
        _seq({_F_A}, {_I_B}),
        {
            "n0": ("ν-r", _I_B, ("n1",)),
            "n1": ("μ-r", _I_B1, ("n2",)),
            "n2": ("μ-l", _F_A, ("n3",)),
            "n3": ("+-r", unfold(_I_B1), ("n4",)),
            "n4": ("+-l", ufa, ("n5", "n6")),
            "n5": ("+-l", pab, ("n7", "n8")),
            "n7": ("r-w", Letter("b", _I_B), ("n9",)),
            "n9": ("h_a", "a", ("n1",)),
            "n8": ("r-w", Letter("a", _I_B1), ("n10",)),
            "n10": ("h_b", "b", ("n0",)),
            "n6": ("ν-l", _REP_B, ("n11",)),
            "n11": ("r-w", Letter("a", _I_B1), ("n12",)),
            "n12": ("h_b", "b", ("n13",)),
            "n13": ("ν-r", _I_B, ("n14",)),
            "n14": ("μ-r", _I_B1, ("n15",)),
            "n15": ("ν-l", _REP_B, ("n16",)),
            "n16": ("+-r", unfold(_I_B1), ("n11",)),
        },
    )


def _proof_fin_a_or_inf_a_total() -> ProofGraph:
    # every word has finitely many or infinitely many a's
    ufa = unfold(_F_A)
    pab = Plus(Letter("a", _F_A), Letter("b", _F_A))
    return _build_proof(
        _seq(set(), {Plus(_F_A, _I_A)}),
        {
            "n0": ("+-r", Plus(_F_A, _I_A), ("n1",)),
            "n1": ("μ-r", _F_A, ("n2",)),
            "n2": ("ν-r", _I_A, ("n3",)),
            "n3": ("+-r", ufa, ("n4",)),
            "n4": ("+-r", pab, ("n5",)),
            "n5": ("ν-r", _REP_B, ("n6",)),
            "n6": ("μ-r", _I_A1, ("n7",)),
            "n7": ("+-r", unfold(_I_A1), ("n8",)),
            "n8": ("r-p", None, ("n1", "n9")),
            "n9": ("μ-r", _F_A, ("n10",)),
            "n10": ("+-r", ufa, ("n4",)),
        },
    )


def _proof_fin_a_cap_fin_b_empty() -> ProofGraph:
    # no word has finitely many a's and finitely many b's
    ufa = unfold(_F_A)
    ufb = unfold(_F_B)
    pa = Plus(Letter("a", _F_A), Letter("b", _F_A))
    pb = Plus(Letter("a", _F_B), Letter("b", _F_B))
    return _build_proof(
        _seq({Cap(_F_A, _F_B)}, set()),
        {
            "n0": ("∩-l", Cap(_F_A, _F_B), ("n1",)),
            "n1": ("μ-l", _F_A, ("n2",)),
            "n2": ("μ-l", _F_B, ("n3",)),
            "n3": ("+-l", ufa, ("n4", "n5")),
            "n4": ("+-l", pa, ("n6", "n7")),
            "n6": ("+-l", ufb, ("n8", "n9")),
            "n8": ("+-l", pb, ("n10", "n11")),
            "n10": ("h_a", "a", ("n1",)),
            "n11": ("l-p", None, ()),
            "n9": ("ν-l", _REP_A, ("n12",)),
            "n12": ("h_a", "a", ("n13",)),
            "n13": ("ν-l", _REP_A, ("n14",)),
            "n14": ("μ-l", _F_A, ("n15",)),
            "n15": ("+-l", ufa, ("n16", "n17")),
            "n16": ("+-l", pa, ("n18", "n19")),
            "n18": ("h_a", "a", ("n13",)),
            "n19": ("l-p", None, ()),
            "n17": ("ν-l", _REP_B, ("n20",)),
            "n20": ("l-p", None, ()),
            "n7": ("+-l", ufb, ("n21", "n22")),
            "n21": ("+-l", pb, ("n23", "n24")),
            "n23": ("l-p", None, ()),
            "n24": ("h_b", "b", ("n1",)),
            "n22": ("ν-l", _REP_A, ("n25",)),
            "n25": ("l-p", None, ()),
            "n5": ("+-l", ufb, ("n26", "n27")),
            "n26": ("+-l", pb, ("n28", "n29")),
            "n28": ("ν-l", _REP_B, ("n30",)),
            "n30": ("l-p", None, ()),
            "n29": ("ν-l", _REP_B, ("n31",)),
            "n31": ("h_b", "b", ("n32",)),
            "n32": ("μ-l", _F_B, ("n33",)),
            "n33": ("+-l", ufb, ("n26", "n27")),
            "n27": ("ν-l", _REP_B, ("n34",)),
            "n34": ("ν-l", _REP_A, ("n35",)),
            "n35": ("l-p", None, ()),
        },
    )


def _single_loop(lhs, rhs, rule, principal) -> ProofGraph:
    s = _seq(lhs, rhs)
    return ProofGraph([("n0", make_instance(rule, s, principal), ("n0",))], "n0")


_NONE = EXPRESSIONS["none"]
_ALL = EXPRESSIONS["all"]

# name -> (builder, expected to pass proof.check)
_PROOF_TABLE = (
    ("only-a-has-inf-a", _proof_only_a_has_inf_a, True),
    ("fin-a-cap-only-a-empty", _proof_fin_a_cap_only_a_empty, True),
    ("fin-a-has-inf-b", _proof_fin_a_has_inf_b, True),
    ("fin-a-or-inf-a-total", _proof_fin_a_or_inf_a_total, True),
    ("fin-a-cap-fin-b-empty", _proof_fin_a_cap_fin_b_empty, True),
    ("none-sub-all-unfold-left", lambda: _single_loop({_NONE}, {_ALL}, "μ-l", _NONE), True),
    ("none-sub-all-unfold-right", lambda: _single_loop({_NONE}, {_ALL}, "ν-r", _ALL), True),
    ("all-sub-none-unfold-left", lambda: _single_loop({_ALL}, {_NONE}, "ν-l", _ALL), False),
    ("all-sub-none-unfold-right", lambda: _single_loop({_ALL}, {_NONE}, "μ-r", _NONE), False),
)


def proofs():
    """name -> (ProofGraph, expected-accepted) for every proof fixture."""
    return {name: (build(), expected) for name, build, expected in _PROOF_TABLE}


PAPER_PROOF_NAMES = tuple(name for name, _, expected in _PROOF_TABLE[:5])
LOOP_FIXTURE_NAMES = tuple(name for name, _, _ in _PROOF_TABLE[5:])


# ---------------------------------------------------------------------------
# short aliases accepted wherever a named expression can appear

ALIASES = {
    "f_a": "fin-a",
    "f_b": "fin-b",
    "i_a": "inf-a",
    "i_b": "inf-b",
    "i_a'": "inf-a-unfolded",
    "i_b'": "inf-b-unfolded",
}


def name_table():
    """Every way to refer to a bundled expression: canonical names plus the
    short aliases."""
    table = dict(EXPRESSIONS)
    for alias, name in ALIASES.items():
        table[alias] = EXPRESSIONS[name]
    return table


# ---------------------------------------------------------------------------
# the regression suite behind `corpus run`

COMPLEMENT_ROUND_NAMES = ("only-a", "any", "fin-a", "fin-b", "inf-a", "inf-b")


def sample_word(rng, max_stem: int = 3, max_loop: int = 3) -> UPWord:
    stem = "".join(rng.choice(ALPHABET.letters) for _ in range(rng.randint(0, max_stem)))
    loop = "".join(rng.choice(ALPHABET.letters) for _ in range(rng.randint(1, max_loop)))
    return UPWord(stem, loop, ALPHABET)


def random_expression(rng, size: int, scope=()):
    """A random expression with at most `size` AST nodes, closed when scope
    is empty."""
    choices = ["zero", "top", "mu", "nu", "letter", "letter"]
    if size >= 3:
        choices += ["plus", "cap"]
    if scope:
        choices += ["var", "var"]
    if size <= 1:
        choices = ["zero", "top"] + (["var"] if scope else [])
    kind = rng.choice(choices)
    if kind == "zero":
        return ZERO
    if kind == "top":
        return TOP
    if kind == "var":
        return Var(rng.choice(list(scope)))
    if kind == "letter":
        return Letter(rng.choice(ALPHABET.letters), random_expression(rng, size - 1, scope))
    if kind in ("plus", "cap"):
        ls = rng.randint(1, max(1, size - 2))
        left = random_expression(rng, ls, scope)
        right = random_expression(rng, size - 1 - ls, scope)
        return (Plus if kind == "plus" else Cap)(left, right)
    var = rng.choice(["P", "Q", "R", "S"])
    body = random_expression(rng, size - 1, tuple(scope) + (var,))
    return (Mu if kind == "mu" else Nu)(var, body)


def membership_mismatches(seed: int, samples: int = 1000):
    """Cross-validate word membership three ways on random instances: the
    default game solver, the progress-measure solver, and the acceptance
    game of the expression's automaton.  The two solvers must agree on every
    position of the evaluation game, all three on the word's membership.
    Returns disagreement descriptions."""
    rng = random.Random(seed)
    out = []
    for _ in range(samples):
        e = canonical(random_expression(rng, rng.randint(1, 12)))
        w = sample_word(rng)
        game = build_eval_game(w, e)
        winner, _ = solve_zielonka(game)
        measures = solve_spm(game)
        z, s = winner[0] == 1, measures[0] == 1  # (0, e): a closure lists its root first
        g = apa_accepts(build_apa(e), w)
        if winner != measures or z != g:
            out.append(
                "%s on %s: game=%s, measures=%s, automaton=%s"
                % (pretty(e), w, z, s, g)
            )
    return out


def closed_form_failures(seed: int, words_each: int = 50):
    """Check the bundled expressions against hand-derivable memberships."""
    facts = (
        ("(a)^w", EXPRESSIONS["only-a"], True),
        ("(b)^w", EXPRESSIONS["inf-a"], False),
        ("(ba)^w", Cap(EXPRESSIONS["inf-a"], EXPRESSIONS["inf-b"]), True),
        ("a(b)^w", EXPRESSIONS["fin-a"], True),
    )
    out = []
    for text, e, expected in facts:
        w = parse_word(text, ALPHABET)
        if member(w, e) is not expected:
            out.append("%s in %s should be %s" % (text, pretty(e), expected))
    rng = random.Random(seed)
    for _ in range(words_each):
        w = sample_word(rng)
        if not member(w, EXPRESSIONS["all"]):
            out.append("%s should be in the universal language" % w)
        if member(w, EXPRESSIONS["none"]):
            out.append("%s should not be in the empty language" % w)
    return out


def saturation_instances():
    """Every distinct rule instance the search strategy generates across the
    bundled decision sequents, in first-seen order."""
    seen = {}
    for _, s, _ in DECISIONS:
        p = saturate(s)
        for nid in p.order:
            inst = p.instance[nid]
            if inst not in seen:
                seen[inst] = None
    return tuple(seen)


def _drop_first(w: UPWord) -> UPWord:
    if w.stem:
        return UPWord(w.stem[1:], w.loop, w.alphabet)
    return UPWord("", w.loop[1:] + w.loop[:1], w.alphabet)


SOUNDNESS_WORDS = 200  # sampled words per rule instance in corpus run


def soundness_violations(instances, seed: int, n_words: int = SOUNDNESS_WORDS):
    """Sample-check the given rule instances, as from saturation_instances():
    premiss truth must force conclusion truth at each word (letter rules
    advance the word by their letter), and the non-weakening rules must also
    be invertible.  Returns (soundness failures, invertibility failures)."""
    rng = random.Random(seed)
    words = [sample_word(rng) for _ in range(n_words)]
    memo = {}

    def valid(w, s):
        def m(f):
            key = (w, f)
            if key not in memo:
                memo[key] = member(w, f)
            return memo[key]

        return (not all(m(e) for e in s.lhs_sorted)) or any(m(f) for f in s.rhs_sorted)

    unsound = []
    uninvertible = []
    for inst in instances:
        rule = inst.rule
        for w in words:
            if rule.startswith("h_") or rule == "r-p":
                head = w.letter_at(0)
                if rule == "r-p":
                    prem = inst.premisses[ALPHABET.letters.index(head)]
                elif rule[2:] == head:
                    prem = inst.premisses[0]
                else:
                    # the word cannot enter any left-hand language, so the
                    # conclusion holds outright
                    if not valid(w, inst.conclusion):
                        unsound.append("%s at %s" % (rule, w))
                    continue
                prem_ok = valid(_drop_first(w), prem)
                conc_ok = valid(w, inst.conclusion)
                if prem_ok and not conc_ok:
                    unsound.append("%s at %s" % (rule, w))
                if conc_ok and not prem_ok:
                    uninvertible.append("%s at %s" % (rule, w))
            else:
                prems_ok = all(valid(w, p) for p in inst.premisses)
                conc_ok = valid(w, inst.conclusion)
                if prems_ok and not conc_ok:
                    unsound.append("%s at %s" % (rule, w))
                if conc_ok and not prems_ok and rule in LOGICAL_RULE.values():
                    uninvertible.append("%s at %s" % (rule, w))
    return unsound, uninvertible


def bound_failures():
    """Closure sizes must not exceed AST sizes, and the default colouring
    must be monotone along the subformula order with μ odd and ν even."""
    size_fails = []
    colour_fails = []
    for name, e in EXPRESSIONS.items():
        fl = fl_closure(e)
        if len(fl.members) > ast_size(e):
            size_fails.append(
                "%s: closure %d > AST %d" % (name, len(fl.members), ast_size(e))
            )
        col = default_coloring(fl)
        fixpoints = [m for m in fl.members if isinstance(m, (Mu, Nu))]
        for m in fixpoints:
            if col[m] % 2 != (1 if isinstance(m, Mu) else 0):
                colour_fails.append("%s: %s has colour %d" % (name, pretty(m), col[m]))
        for g in fixpoints:
            for m in fixpoints:
                if subformula_leq(g, m) and col[g] > col[m]:
                    colour_fails.append(
                        "%s: %s above %s" % (name, pretty(g), pretty(m))
                    )
    return size_fails, colour_fails


@dataclass(frozen=True)
class SuiteRow:
    group: str
    name: str
    ok: bool
    detail: str


def run_suite(seed: int, filter_text=None, membership_samples: int = 1000):
    """Run the regression suite and return one SuiteRow per fixture or
    property batch, in a fixed order.  filter_text restricts to rows whose
    "group/name" contains it."""

    def wanted(group, name):
        return filter_text is None or filter_text in "%s/%s" % (group, name)

    rows = []

    for name, (p, expected) in proofs().items():
        if not wanted("proofs", name):
            continue
        r = check(p)
        ok = r.ok == expected and (r.ok or r.lasso is not None)
        want = "accepted" if expected else "rejected"
        detail = "%d nodes, expected %s, got %s" % (len(p.order), want, r.reason)
        rows.append(SuiteRow("proofs", name, ok, detail))

    for name, s, verdict in DECISIONS:
        if not wanted("decisions", name):
            continue
        out = decide(s)
        if verdict == "proved":
            ok = (
                isinstance(out, Proved)
                and out.proof.sequent(out.proof.root) == s
                and check(out.proof).ok
            )
            detail = (
                "proof with %d nodes re-checked" % len(out.proof.order)
                if isinstance(out, Proved)
                else "expected a proof, got a countermodel"
            )
        else:
            ok = isinstance(out, Refuted)
            if ok:
                ok = all(member(out.word, e) for e in s.lhs_sorted) and not any(
                    member(out.word, f) for f in s.rhs_sorted
                )
                detail = "countermodel %s verified" % out.word
            else:
                detail = "expected a countermodel, got a proof"
        rows.append(SuiteRow("decisions", name, ok, detail))

    for name in COMPLEMENT_ROUND_NAMES:
        e = EXPRESSIONS[name]
        ce = complement(e, ALPHABET)
        for suffix, s in (
            ("total", Sequent(set(), {Plus(e, ce)}, ALPHABET)),
            ("empty", Sequent({Cap(e, ce)}, set(), ALPHABET)),
        ):
            if not wanted("complement", "%s-%s" % (name, suffix)):
                continue
            out = decide(s)
            ok = isinstance(out, Proved) and check(out.proof).ok
            detail = (
                "proof with %d nodes re-checked" % len(out.proof.order)
                if isinstance(out, Proved)
                else "expected a proof, got %s" % out.word
            )
            rows.append(SuiteRow("complement", "%s-%s" % (name, suffix), ok, detail))

    if wanted("membership", "three-way-agreement"):
        mismatches = membership_mismatches(seed, membership_samples)
        detail = "%d samples" % membership_samples
        if mismatches:
            detail += "; first disagreement: %s" % mismatches[0]
        rows.append(
            SuiteRow("membership", "three-way-agreement", not mismatches, detail)
        )
    if wanted("membership", "closed-forms"):
        fails = closed_form_failures(seed)
        detail = "4 fixed facts, 50 sampled words each for 0 and ⊤"
        if fails:
            detail = fails[0]
        rows.append(SuiteRow("membership", "closed-forms", not fails, detail))

    if wanted("soundness", "rule-soundness") or wanted("soundness", "rule-invertibility"):
        instances = saturation_instances()
        unsound, uninvertible = soundness_violations(instances, seed)
        for name, failures in (
            ("rule-soundness", unsound),
            ("rule-invertibility", uninvertible),
        ):
            if wanted("soundness", name):
                detail = "%d instances x %d words" % (len(instances), SOUNDNESS_WORDS)
                if failures:
                    detail += "; first: %s" % failures[0]
                rows.append(SuiteRow("soundness", name, not failures, detail))

    size_fails, colour_fails = (None, None)
    if wanted("bounds", "closure-size") or wanted("bounds", "colouring"):
        size_fails, colour_fails = bound_failures()
    if wanted("bounds", "closure-size"):
        detail = "%d expressions" % len(EXPRESSIONS)
        if size_fails:
            detail = size_fails[0]
        rows.append(SuiteRow("bounds", "closure-size", not size_fails, detail))
    if wanted("bounds", "colouring"):
        detail = "%d expressions" % len(EXPRESSIONS)
        if colour_fails:
            detail = colour_fails[0]
        rows.append(SuiteRow("bounds", "colouring", not colour_fails, detail))

    return rows
