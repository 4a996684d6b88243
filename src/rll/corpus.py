"""Built-in fixture corpus: named expressions, decision sequents, and
cyclic-proof fixtures over the two-letter alphabet.

Proof fixtures are the rows of one table, _PROOFS, each a derivation given
by its structure alone: each node gives (rule, principal, children), and
_build_proof, the one builder, propagates cedent masks over one formula
table from the root through rule premisses.  A mis-stated derivation never
silently produces a different proof: an entry that the root does not reach
or a child with no entry fails to build, and children that do not carry
their node's premisses fail check_local.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache

from .expr import (
    TOP,
    ZERO,
    Alphabet,
    Cap,
    Expr,
    Letter,
    Mu,
    Nu,
    Plus,
    Top,
    Var,
    ast_size,
    built_canonical,
    complement,
    fl_closure,
    free_vars,
    parse,
    pretty,
    subformula_leq,
    unfold,
)
from .calculus import LOGICAL_RULE, FormulaTable, Sequent, premiss_letters, premiss_masks
from .semantics import UPWord, member, parse_word, winning_offsets
from .automaton import default_coloring
from .proof import NodeNumbering, ProofGraph, check
from .decide import Proved, decide, saturate

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


_ROOT = "n0"  # the root's id in every derivation


def _build_proof(root_sequent: Sequent, derivation) -> ProofGraph:
    """Assemble a ProofGraph from {id: (rule, principal, children)} over
    the formula table of the root sequent's closure, by propagating cedent
    masks from the root, _ROOT, through premiss_masks, child by child.  An
    entry that the root does not reach raises ValueError, and the structure
    is checked by NodeNumbering, as a proof file's is; a child list that
    does not match the premisses is check_local's violation."""
    table = FormulaTable(root_sequent.lhs | root_sequent.rhs, root_sequent.alphabet)
    cedents = {_ROOT: table.masks(root_sequent)}
    queue = [_ROOT]
    nodes = NodeNumbering()
    records = []  # (lhs, rhs, rule, principal code, children names)
    for nid in queue:  # the queue grows while it is walked
        if nid not in derivation:
            continue  # NodeNumbering names the node that lists it
        rule, principal, kids = derivation[nid]
        code = table.code(principal)
        for prem, cid in zip(premiss_masks(table, rule, *cedents[nid], code), kids):
            if cid not in cedents:
                cedents[cid] = prem
                queue.append(cid)
        nodes.add(nid)
        records.append((*cedents[nid], rule, code, kids))
    unreached = [nid for nid in derivation if nid not in cedents]
    if unreached:
        raise ValueError("unreachable nodes: %s" % ", ".join(unreached))
    children = [nodes.children(nid, record[-1]) for nid, record in zip(nodes, records)]
    root_number = nodes.root(_ROOT, children)
    lhs, rhs, rules, principals, _ = zip(*records)
    return ProofGraph(table, nodes, lhs, rhs, rules, principals, children, root_number)


_NONE = EXPRESSIONS["none"]
_ALL = EXPRESSIONS["all"]
_UF_A = unfold(_F_A)  # a fin-a + b fin-a + only-b
_UF_B = unfold(_F_B)
_P_A = Plus(Letter("a", _F_A), Letter("b", _F_A))
_P_B = Plus(Letter("a", _F_B), Letter("b", _F_B))

# the proof fixtures: (name, root sequent, {id: (rule, principal, children)},
# expected to pass proof.check); a single-node loop lists itself as its child
_PROOFS = (
    # only a's has infinitely many a's: loop unfolds both sides, steps over a
    ("only-a-has-inf-a", _seq({_REP_A}, {_I_A}), {
        "n0": ("ν-l", _REP_A, ("n1",)),
        "n1": ("ν-r", _I_A, ("n2",)),
        "n2": ("μ-r", _I_A1, ("n3",)),
        "n3": ("+-r", unfold(_I_A1), ("n4",)),
        "n4": ("r-w", Letter("b", _I_A1), ("n5",)),
        "n5": ("h_a", "a", ("n0",)),
    }, True),
    # finitely many a's and only a's is impossible
    ("fin-a-cap-only-a-empty", _seq({Cap(_F_A, _REP_A)}, set()), {
        "n0": ("∩-l", Cap(_F_A, _REP_A), ("n1",)),
        "n1": ("ν-l", _REP_A, ("n2",)),
        "n2": ("μ-l", _F_A, ("n3",)),
        "n3": ("+-l", _UF_A, ("n4", "n5")),
        "n4": ("+-l", _P_A, ("n6", "n7")),
        "n6": ("h_a", "a", ("n1",)),
        "n7": ("l-p", None, ()),
        "n5": ("ν-l", _REP_B, ("n8",)),
        "n8": ("l-p", None, ()),
    }, True),
    # finitely many a's forces infinitely many b's
    ("fin-a-has-inf-b", _seq({_F_A}, {_I_B}), {
        "n0": ("ν-r", _I_B, ("n1",)),
        "n1": ("μ-r", _I_B1, ("n2",)),
        "n2": ("μ-l", _F_A, ("n3",)),
        "n3": ("+-r", unfold(_I_B1), ("n4",)),
        "n4": ("+-l", _UF_A, ("n5", "n6")),
        "n5": ("+-l", _P_A, ("n7", "n8")),
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
    }, True),
    # every word has finitely many or infinitely many a's
    ("fin-a-or-inf-a-total", _seq(set(), {Plus(_F_A, _I_A)}), {
        "n0": ("+-r", Plus(_F_A, _I_A), ("n1",)),
        "n1": ("μ-r", _F_A, ("n2",)),
        "n2": ("ν-r", _I_A, ("n3",)),
        "n3": ("+-r", _UF_A, ("n4",)),
        "n4": ("+-r", _P_A, ("n5",)),
        "n5": ("ν-r", _REP_B, ("n6",)),
        "n6": ("μ-r", _I_A1, ("n7",)),
        "n7": ("+-r", unfold(_I_A1), ("n8",)),
        "n8": ("r-p", None, ("n1", "n9")),
        "n9": ("μ-r", _F_A, ("n10",)),
        "n10": ("+-r", _UF_A, ("n4",)),
    }, True),
    # no word has finitely many a's and finitely many b's
    ("fin-a-cap-fin-b-empty", _seq({Cap(_F_A, _F_B)}, set()), {
        "n0": ("∩-l", Cap(_F_A, _F_B), ("n1",)),
        "n1": ("μ-l", _F_A, ("n2",)),
        "n2": ("μ-l", _F_B, ("n3",)),
        "n3": ("+-l", _UF_A, ("n4", "n5")),
        "n4": ("+-l", _P_A, ("n6", "n7")),
        "n6": ("+-l", _UF_B, ("n8", "n9")),
        "n8": ("+-l", _P_B, ("n10", "n11")),
        "n10": ("h_a", "a", ("n1",)),
        "n11": ("l-p", None, ()),
        "n9": ("ν-l", _REP_A, ("n12",)),
        "n12": ("h_a", "a", ("n13",)),
        "n13": ("ν-l", _REP_A, ("n14",)),
        "n14": ("μ-l", _F_A, ("n15",)),
        "n15": ("+-l", _UF_A, ("n16", "n17")),
        "n16": ("+-l", _P_A, ("n18", "n19")),
        "n18": ("h_a", "a", ("n13",)),
        "n19": ("l-p", None, ()),
        "n17": ("ν-l", _REP_B, ("n20",)),
        "n20": ("l-p", None, ()),
        "n7": ("+-l", _UF_B, ("n21", "n22")),
        "n21": ("+-l", _P_B, ("n23", "n24")),
        "n23": ("l-p", None, ()),
        "n24": ("h_b", "b", ("n1",)),
        "n22": ("ν-l", _REP_A, ("n25",)),
        "n25": ("l-p", None, ()),
        "n5": ("+-l", _UF_B, ("n26", "n27")),
        "n26": ("+-l", _P_B, ("n28", "n29")),
        "n28": ("ν-l", _REP_B, ("n30",)),
        "n30": ("l-p", None, ()),
        "n29": ("ν-l", _REP_B, ("n31",)),
        "n31": ("h_b", "b", ("n32",)),
        "n32": ("μ-l", _F_B, ("n33",)),
        "n33": ("+-l", _UF_B, ("n26", "n27")),
        "n27": ("ν-l", _REP_B, ("n34",)),
        "n34": ("ν-l", _REP_A, ("n35",)),
        "n35": ("l-p", None, ()),
    }, True),
    ("none-sub-all-unfold-left", _seq({_NONE}, {_ALL}), {"n0": ("μ-l", _NONE, ("n0",))}, True),
    ("none-sub-all-unfold-right", _seq({_NONE}, {_ALL}), {"n0": ("ν-r", _ALL, ("n0",))}, True),
    ("all-sub-none-unfold-left", _seq({_ALL}, {_NONE}), {"n0": ("ν-l", _ALL, ("n0",))}, False),
    ("all-sub-none-unfold-right", _seq({_ALL}, {_NONE}), {"n0": ("μ-r", _NONE, ("n0",))}, False),
)


def proofs():
    """name -> (ProofGraph, expected-accepted) for every proof fixture."""
    return {name: (_build_proof(s, derivation), expected) for name, s, derivation, expected in _PROOFS}


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

# hand-derivable memberships: (word, expression, member?)
CLOSED_FORMS = (
    ("(a)^w", _REP_A, True),
    ("(b)^w", _I_A, False),
    ("(ba)^w", Cap(_I_A, _I_B), True),
    ("a(b)^w", _F_A, True),
)


def sample_word(rng) -> UPWord:
    stem = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, MAX_STEM)))
    loop = "".join(rng.choice(ALPHABET) for _ in range(rng.randint(1, MAX_LOOP)))
    return UPWord(stem, loop, ALPHABET)


def random_expression(rng, size: int, scope=()):
    """A random expression with at most `size` AST nodes, closed and
    canonical as built when scope is empty.  scope holds the names drawn
    for the enclosing binders, outermost first; as parse does, a binder is
    named .d by its depth d, and a variable by the innermost binder of its
    drawn name."""
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
        name = rng.choice(scope)
        return Var(".%d" % (len(scope) - 1 - scope[::-1].index(name)))
    if kind == "letter":
        e = Letter(rng.choice(ALPHABET), random_expression(rng, size - 1, scope))
    elif kind in ("plus", "cap"):
        ls = rng.randint(1, max(1, size - 2))
        left = random_expression(rng, ls, scope)
        right = random_expression(rng, size - 1 - ls, scope)
        e = (Plus if kind == "plus" else Cap)(left, right)
    else:
        var = rng.choice(["P", "Q", "R", "S"])
        body = random_expression(rng, size - 1, (*scope, var))
        e = (Mu if kind == "mu" else Nu)(".%d" % len(scope), body)
    return e if scope else built_canonical(e)


def _fixpoint_offsets(w: UPWord, terms) -> list:
    """Per closed term, the offsets of w whose suffix lies in the term's
    language, as a bitmask: the Knaster-Tarski semantics, walking the term
    with mu and nu iterated from no offset and from every offset.  A letter
    reads one (offset, next offset) table per letter of w, and a closed
    subterm's value, which no environment changes, is kept for the call."""
    n = w.n_offsets()
    full = (1 << n) - 1
    steps = {c: [] for c in w.alphabet}  # letter -> (offset, next offset) where w has it
    for o in range(n):
        steps[w.letter_at(o)].append((o, w.advance(o)))
    closed = {}  # closed subterm -> its value

    def walk(f, env):
        if f in closed:
            return closed[f]
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, Letter):
            body = walk(f.body, env)
            got = sum(1 << o for o, nxt in steps[f.letter] if body >> nxt & 1)
        elif isinstance(f, Plus):
            got = walk(f.left, env) | walk(f.right, env)
        elif isinstance(f, Cap):
            got = walk(f.left, env) & walk(f.right, env)
        elif isinstance(f, (Mu, Nu)):
            got = 0 if isinstance(f, Mu) else full
            while True:
                y = walk(f.body, {**env, f.var: got})
                if y == got:
                    break
                got = y
        else:
            got = full if isinstance(f, Top) else 0
        if not free_vars(f):
            closed[f] = got
        return got

    return [walk(f, {}) for f in terms]


def membership_mismatches(seed: int):
    """Check the membership solver that member runs (winning_offsets) on
    random instances, at every offset and closure member, two ways: each
    member's mask must be the Knaster-Tarski semantics of that member
    (fixpoint), and the semantics of the expression's complement must be the
    root's mask negated (dual).  The semantics is a walk of the term alone:
    it reads no closure numbering, colouring or game.  Each distinct
    expression is solved once over its distinct words laid end to end, which
    checks member's one-word layout and the batched one.  Returns one
    description per failing instance, in sample order, naming the first
    place where a check fails as its offset and closure member, and the
    checks that fail there."""
    rng = random.Random(seed)
    groups = {}  # expression -> word -> sample numbers, in first-seen order
    for i in range(MEMBERSHIP_SAMPLES):
        e = random_expression(rng, rng.randint(1, 12))
        groups.setdefault(e, {}).setdefault(sample_word(rng), []).append(i)
    lines = [None] * MEMBERSHIP_SAMPLES
    while groups:  # popped in first-seen order, so a solved group's closure can be freed
        e = next(iter(groups))
        members, words, base = fl_closure(e).members, groups.pop(e), 0
        batch, ce = winning_offsets(tuple(words), e), complement(e, ALPHABET)
        for w, samples in words.items():
            m, n = len(members), w.n_offsets()
            full = (1 << n) - 1
            masks = [b >> base & full for b in batch]  # w's slice of the batch
            base += n
            *truth, dual = _fixpoint_offsets(w, members + (ce,))
            if masks == truth and (masks[0] ^ dual) & full == full:
                continue  # both legs hold, so there is no first failure to look for
            legs = {
                "fixpoint": next(((o, k) for o in range(n) for k in range(m) if (masks[k] ^ truth[k]) >> o & 1), None),
                "dual": next(((o, 0) for o in range(n) if ~(masks[0] ^ dual) >> o & 1), None),
            }
            first = min((q for q in legs.values() if q is not None), default=None)
            if first is not None:
                o, k = first
                where = "offset %d in %s, game=%s" % (o, pretty(members[k]), masks[k] >> o & 1 == 1)
                there = " and ".join(leg for leg, q in legs.items() if q == first)
                for i in samples:
                    lines[i] = "%s on %s: at %s, failing: %s" % (pretty(e), w, where, there)
    return [line for line in lines if line is not None]


def _laid_end_to_end(words):
    """The distinct words in first-seen order, and each one's base: the bit
    of its offset 0 when they are laid end to end, as winning_offsets lays
    out a batch."""
    distinct = tuple(dict.fromkeys(words))
    bases, base = {}, 0
    for w in distinct:
        bases[w] = base
        base += w.n_offsets()
    return distinct, bases


def closed_form_failures(seed: int):
    """Check the bundled expressions against hand-derivable memberships:
    the fixed facts one member call each, and the sampled words for 0 and T
    in one solve per constant over the distinct words laid end to end, each
    word read at its own offset 0."""
    out = []
    for text, e, expected in CLOSED_FORMS:
        w = parse_word(text, ALPHABET)
        if member(w, e) is not expected:
            out.append("%s in %s should be %s" % (text, pretty(e), expected))
    rng = random.Random(seed)
    words = [sample_word(rng) for _ in range(CLOSED_FORM_WORDS)]
    distinct, bases = _laid_end_to_end(words)
    everything, nothing = (winning_offsets(distinct, EXPRESSIONS[name])[0] for name in ("all", "none"))
    for w in words:
        if not everything >> bases[w] & 1:
            out.append("%s should be in the universal language" % w)
        if nothing >> bases[w] & 1:
            out.append("%s should not be in the empty language" % w)
    return out


def saturation_instances(sequents):
    """The formula table of the closure of the given sequents' formulas,
    over ALPHABET, and every distinct rule instance that the search
    strategy generates across them, in first-seen order.  An instance is
    (rule, principal code, (lhs, rhs), premiss mask pairs), with each
    proof's masks and principal moved onto that one table; there a mask is
    exactly a member set, so instances compare by value."""
    table = FormulaTable({f for s in sequents for f in s.lhs | s.rhs}, ALPHABET)
    instances = []
    for s in sequents:
        p = saturate(s)
        moved = table.renumbered(p.table.formulas, {*p.lhs, *p.rhs})
        cedents = [(moved[lhs], moved[rhs]) for lhs, rhs in zip(p.lhs, p.rhs)]
        instances += [
            (rule, table.number[p.table.formulas[code]] if type(code) is int else code, cedent,
             tuple(map(cedents.__getitem__, kids)))
            for rule, code, cedent, kids in zip(p.rule, p.principal, cedents, p.children)
        ]
    return table, tuple(dict.fromkeys(instances))


def soundness_violations(table: FormulaTable, instances, seed: int):
    """Sample-check rule instances over one formula table, as
    saturation_instances gives them: premiss truth must force conclusion
    truth at each word, and logical and letter rules must be invertible.  A
    letter rule checks the premisses of the word's head letter one letter
    on (h_b has none at a word `a...`).  One solve, over the distinct words
    laid end to end and the + of the table's formulas in number order,
    gives every formula's truth at each word and one letter on (offsets 0
    and w.advance(0)), read as masks over the word indices.  Returns
    (soundness failures, invertibility failures), instance by instance and
    word by word."""
    rng = random.Random(seed)
    words = [sample_word(rng) for _ in range(SOUNDNESS_WORDS)]
    distinct, bases = _laid_end_to_end(words)
    root = ZERO
    for f in table.formulas:
        root = Plus(root, f)
    bits = [(bases[w], bases[w] + w.advance(0)) for w in words]  # per word: now, one letter on
    every = (1 << len(words)) - 1
    truth = {}  # (formula number, one letter on?) -> the words where it is true
    for f, mask in zip(fl_closure(root).members, winning_offsets(distinct, root)):
        n = table.number.get(f)
        if n is not None:
            for on in (0, 1):
                truth[n, on] = sum(1 << j for j, b in enumerate(bits) if mask >> b[on] & 1)
    head = {c: sum(1 << j for j, w in enumerate(words) if w.letter_at(0) == c) for c in ALPHABET}
    holds = {}  # ((lhs, rhs), one letter on?) -> the words where some of Γ fails or some of Δ holds

    def valid(cedents, on: int) -> int:
        got = holds.get((cedents, on))
        if got is None:
            lhs, rhs = every, 0
            for n in table.numbers(cedents[0]):
                lhs &= truth[n, on]
            for n in table.numbers(cedents[1]):
                rhs |= truth[n, on]
            got = holds[cedents, on] = every & ~lhs | rhs
        return got

    unsound = []
    uninvertible = []
    for rule, _, conclusion, premisses in instances:
        letters = premiss_letters(rule, table.alphabet)
        prems_ok = every
        for i, p in enumerate(premisses):
            prems_ok &= valid(p, 0) if letters is None else valid(p, 1) | ~head.get(letters[i], 0)
        conc_ok = valid(conclusion, 0)
        invertible = letters is not None or rule in LOGICAL_RULE.values()
        for out, bad in ((unsound, prems_ok & ~conc_ok), (uninvertible, invertible and conc_ok & ~prems_ok)):
            while bad:
                low = bad & -bad
                out.append("%s at %s" % (rule, words[low.bit_length() - 1]))
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


def _checked(p: ProofGraph, expected: bool):
    """(ok, detail) of check(p) against the expected verdict; a rejection
    must come with its lasso."""
    r = check(p)
    want = "accepted" if expected else "rejected"
    ok = r.ok == expected and (r.ok or r.lasso is not None)
    return ok, "%d nodes, expected %s, got %s" % (len(p.order), want, r.reason)


def _decided(s: Sequent, verdict: str, unproved="expected a proof, got a countermodel"):
    """(ok, detail) of decide(s) against the expected verdict; unproved words
    a countermodel where a proof was expected, with {} for its word."""
    out = decide(s)
    if isinstance(out, Proved):
        if verdict == "proved":
            return True, "proof with %d nodes re-checked" % len(out.proof.order)
        return False, "expected a countermodel, got a proof"
    if verdict == "refuted":
        return True, "countermodel %s verified" % out.word
    return False, unproved.format(out.word)


def _batch(failures, summary: str, first=None):
    """(ok, detail) of a property batch: the summary when nothing fails,
    else "summary; first: failure" when first names the failure, and the
    failure alone otherwise."""
    if not failures:
        return True, summary
    return False, "%s; %s: %s" % (summary, first, failures[0]) if first else failures[0]


def _round_trip(e: Expr, suffix: str) -> Sequent:
    """The complement round trip of e: "total" is |- e + e^c, "empty" is
    e & e^c |-."""
    ce = complement(e, ALPHABET)
    return _seq(set(), {Plus(e, ce)}) if suffix == "total" else _seq({Cap(e, ce)}, set())


def run_suite(seed: int, filter_text=None):
    """Run the regression suite and return one SuiteRow per fixture or
    property batch, in a fixed order.  filter_text restricts to rows whose
    "group/name" contains it, and a row that is not wanted runs nothing.
    Rows that call decide take its checked verdict."""
    rows = []

    def row(group: str, name: str, result):
        """Add the row group/name if it is wanted, with the (ok, detail) that
        result() gives; result runs at once or not at all, so it may read
        the caller's loop variables."""
        if filter_text is None or filter_text in "%s/%s" % (group, name):
            rows.append(SuiteRow(group, name, *result()))

    for name, s, derivation, expected in _PROOFS:
        row("proofs", name, lambda: _checked(_build_proof(s, derivation), expected))

    for name, s, verdict in DECISIONS:
        row("decisions", name, lambda: _decided(s, verdict))

    for name in COMPLEMENT_ROUND_NAMES:
        for suffix in ("total", "empty"):
            row("complement", "%s-%s" % (name, suffix), lambda: _decided(
                _round_trip(EXPRESSIONS[name], suffix), "proved", "expected a proof, got {}"))

    row("membership", "three-way-agreement", lambda: _batch(
        membership_mismatches(seed), "%d samples" % MEMBERSHIP_SAMPLES, "first disagreement"))
    row("membership", "closed-forms", lambda: _batch(
        closed_form_failures(seed),
        "%d fixed facts, %d sampled words each for 0 and ⊤" % (len(CLOSED_FORMS), CLOSED_FORM_WORDS)))

    @cache  # one batch backs both rows
    def soundness():
        table, instances = saturation_instances([s for _, s, _ in DECISIONS])
        return "%d instances x %d words" % (len(instances), SOUNDNESS_WORDS), soundness_violations(
            table, instances, seed)

    bounds = cache(bound_failures)
    for k, name in enumerate(("rule-soundness", "rule-invertibility")):
        row("soundness", name, lambda: _batch(soundness()[1][k], soundness()[0], "first"))
    for k, name in enumerate(("closure-size", "colouring")):
        row("bounds", name, lambda: _batch(bounds()[k], "%d expressions" % len(EXPRESSIONS)))

    return rows
