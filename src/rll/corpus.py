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
    Top,
    Var,
    ast_size,
    canonical,
    complement,
    expr_sort_key,
    fl_closure,
    parse,
    pretty,
    subformula_leq,
    unfold,
)
from .calculus import LOGICAL_RULE, Sequent, make_instance, premiss_letters
from .semantics import UPWord, member, parse_word, winning_offsets
from .automaton import default_coloring
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
        for prem, cid in zip(inst.premisses, kids):
            if cid not in sequents:
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

# sample sizes of the batches in corpus run
MEMBERSHIP_SAMPLES = 1000  # random (expression, word) pairs whose membership solve is checked
CLOSED_FORM_WORDS = 50  # sampled words each for 0 and T
SOUNDNESS_WORDS = 200  # sampled words per rule instance
MAX_STEM = MAX_LOOP = 3  # most letters in a sampled word's stem and loop; a loop has at least one


def sample_word(rng) -> UPWord:
    stem = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, MAX_STEM)))
    loop = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, MAX_LOOP)))
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
        return Letter(rng.choice(ALPHABET), random_expression(rng, size - 1, scope))
    if kind in ("plus", "cap"):
        ls = rng.randint(1, max(1, size - 2))
        left = random_expression(rng, ls, scope)
        right = random_expression(rng, size - 1 - ls, scope)
        return (Plus if kind == "plus" else Cap)(left, right)
    var = rng.choice(["P", "Q", "R", "S"])
    body = random_expression(rng, size - 1, tuple(scope) + (var,))
    return (Mu if kind == "mu" else Nu)(var, body)


def _fixpoint_offsets(w: UPWord, terms) -> list:
    """Per closed term, the offsets of w whose suffix lies in the term's
    language, as a bitmask: the Knaster-Tarski semantics, walking the term
    with mu and nu iterated from no offset and from every offset."""
    n = w.n_offsets()
    full = (1 << n) - 1

    def walk(f, env):
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, Letter):
            body = walk(f.body, env)
            return sum(1 << o for o in range(n) if w.letter_at(o) == f.letter and body >> w.advance(o) & 1)
        if isinstance(f, Plus):
            return walk(f.left, env) | walk(f.right, env)
        if isinstance(f, Cap):
            return walk(f.left, env) & walk(f.right, env)
        if isinstance(f, (Mu, Nu)):
            x = 0 if isinstance(f, Mu) else full
            while True:
                y = walk(f.body, {**env, f.var: x})
                if y == x:
                    return x
                x = y
        return full if isinstance(f, Top) else 0

    return [walk(f, {}) for f in terms]


def membership_mismatches(seed: int):
    """Check the membership solver that member runs (winning_offsets) on
    random instances, at every offset and closure member, two ways: each
    member's mask must be the Knaster-Tarski semantics of that member
    (fixpoint), and the semantics of the expression's complement must be the
    root's mask negated (dual).  The semantics is a walk of the term alone:
    it reads no closure numbering, colouring or game.  Returns one
    description per failing instance, naming the first place where a check
    fails as its offset and closure member, and the checks that fail there."""
    rng = random.Random(seed)
    out = []
    for _ in range(MEMBERSHIP_SAMPLES):
        e = canonical(random_expression(rng, rng.randint(1, 12)))
        w = sample_word(rng)
        members = fl_closure(e).members
        masks = winning_offsets((w,), e)
        *truth, dual = _fixpoint_offsets(w, members + (complement(e, ALPHABET),))
        m, n = len(members), w.n_offsets()
        legs = {
            "fixpoint": next(((o, k) for o in range(n) for k in range(m) if (masks[k] ^ truth[k]) >> o & 1), None),
            "dual": next(((o, 0) for o in range(n) if ~(masks[0] ^ dual) >> o & 1), None),
        }
        first = min((q for q in legs.values() if q is not None), default=None)
        if first is not None:
            o, k = first
            where = "offset %d in %s" % (o, pretty(members[k]))
            there = " and ".join(leg for leg, q in legs.items() if q == first)
            out.append("%s on %s: at %s, game=%s, failing: %s" % (pretty(e), w, where, masks[k] >> o & 1 == 1, there))
    return out


def closed_form_failures(seed: int):
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
    for _ in range(CLOSED_FORM_WORDS):
        w = sample_word(rng)
        if not member(w, EXPRESSIONS["all"]):
            out.append("%s should be in the universal language" % w)
        if member(w, EXPRESSIONS["none"]):
            out.append("%s should not be in the empty language" % w)
    return out


def saturation_instances():
    """Every distinct rule instance the search strategy generates across the
    bundled decision sequents, in first-seen order."""
    return tuple(dict.fromkeys(inst for _, s, _ in DECISIONS for inst in saturate(s).instance))


def soundness_violations(instances, seed: int):
    """Sample-check the given rule instances, as from saturation_instances():
    premiss truth must force conclusion truth at each word, and logical and
    letter rules must be invertible.  A letter rule checks the premisses of
    the word's head letter one letter on (h_b has none at a word `a...`).
    One solve, over the distinct words laid end to end and the + of the
    instances' formulas, each of them a closure member, gives every
    formula's truth at each word and one letter on (offsets 0 and
    w.advance(0)), read as masks over the word indices.  Returns (soundness
    failures, invertibility failures), instance by instance and word by
    word."""
    rng = random.Random(seed)
    words = [sample_word(rng) for _ in range(SOUNDNESS_WORDS)]
    distinct = tuple(dict.fromkeys(words))
    formulas = {f for inst in instances for s in (inst.conclusion, *inst.premisses) for f in s.lhs | s.rhs}
    root = ZERO
    for f in sorted(formulas, key=expr_sort_key):
        root = Plus(root, f)
    bases, base = {}, 0
    for w in distinct:
        bases[w] = base
        base += w.n_offsets()
    bits = [(bases[w], bases[w] + w.advance(0)) for w in words]  # per word: now, one letter on
    every = (1 << len(words)) - 1
    truth = {}  # (formula, one letter on?) -> the words where it is true
    for f, mask in zip(fl_closure(root).members, winning_offsets(distinct, root)):
        if f in formulas:
            for on in (0, 1):
                truth[f, on] = sum(1 << j for j, b in enumerate(bits) if mask >> b[on] & 1)
    head = {c: sum(1 << j for j, w in enumerate(words) if w.letter_at(0) == c) for c in ALPHABET}
    holds = {}  # (sequent, one letter on?) -> the words where some of Γ fails or some of Δ holds

    def valid(s: Sequent, on: int) -> int:
        got = holds.get((s, on))
        if got is None:
            lhs, rhs = every, 0
            for f in s.lhs:
                lhs &= truth[f, on]
            for f in s.rhs:
                rhs |= truth[f, on]
            got = holds[s, on] = every & ~lhs | rhs
        return got

    unsound = []
    uninvertible = []
    for inst in instances:
        letters = premiss_letters(inst)
        prems_ok = every
        for i, p in enumerate(inst.premisses):
            prems_ok &= valid(p, 0) if letters is None else valid(p, 1) | ~head.get(letters[i], 0)
        conc_ok = valid(inst.conclusion, 0)
        invertible = letters is not None or inst.rule in LOGICAL_RULE.values()
        for out, bad in ((unsound, prems_ok & ~conc_ok), (uninvertible, invertible and conc_ok & ~prems_ok)):
            while bad:
                low = bad & -bad
                out.append("%s at %s" % (inst.rule, words[low.bit_length() - 1]))
                bad ^= low
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
        fixpoints = [(m, c) for m, c in zip(fl.members, default_coloring(fl)) if isinstance(m, (Mu, Nu))]
        for m, c in fixpoints:
            if c % 2 != (1 if isinstance(m, Mu) else 0):
                colour_fails.append("%s: %s has colour %d" % (name, pretty(m), c))
        for g, cg in fixpoints:
            for m, cm in fixpoints:
                if subformula_leq(g, m) and cg > cm:
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


def run_suite(seed: int, filter_text=None):
    """Run the regression suite and return one SuiteRow per fixture or
    property batch, in a fixed order.  filter_text restricts to rows whose
    "group/name" contains it.  Rows that call decide take its checked verdict."""

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
            ok = isinstance(out, Proved)
            detail = (
                "proof with %d nodes re-checked" % len(out.proof.order)
                if ok
                else "expected a proof, got a countermodel"
            )
        else:
            ok = isinstance(out, Refuted)
            detail = "countermodel %s verified" % out.word if ok else "expected a countermodel, got a proof"
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
            ok = isinstance(out, Proved)
            detail = (
                "proof with %d nodes re-checked" % len(out.proof.order)
                if ok
                else "expected a proof, got %s" % out.word
            )
            rows.append(SuiteRow("complement", "%s-%s" % (name, suffix), ok, detail))

    if wanted("membership", "three-way-agreement"):
        mismatches = membership_mismatches(seed)
        detail = "%d samples" % MEMBERSHIP_SAMPLES
        if mismatches:
            detail += "; first disagreement: %s" % mismatches[0]
        rows.append(
            SuiteRow("membership", "three-way-agreement", not mismatches, detail)
        )
    if wanted("membership", "closed-forms"):
        fails = closed_form_failures(seed)
        detail = "4 fixed facts, %d sampled words each for 0 and ⊤" % CLOSED_FORM_WORDS
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
