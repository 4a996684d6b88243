"""Sequents and the inference rules that act on them.

A sequent pairs two finite sets of closed expressions over a shared alphabet
and asserts that the intersection of the left languages is contained in the
union of the right ones.  The rules split into logical rules that decompose
one principal formula, weakenings, and three letter rules: l-p closes a
sequent whose left side holds two formulas with clashing head letters, h_a
strips a common head letter from both sides, and r-p splits a left-empty
sequent into one premiss per alphabet letter.

Rule applications are first-class values (RuleInstance) so that proofs can
store them, and immediate_ancestry exposes how formulas of the premisses
descend from formulas of the conclusion — the raw material for traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .expr import (
    TOP,
    ZERO,
    Alphabet,
    Cap,
    Expr,
    Letter,
    Mu,
    Nu,
    ParseError,
    Plus,
    Top,
    Zero,
    canonical,
    expr_sort_key,
    free_vars,
    parse,
    pretty,
    unfold,
)


def _letters_used(e: Expr):
    out = set()
    stack = [e]
    while stack:
        t = stack.pop()
        if isinstance(t, Letter):
            out.add(t.letter)
            stack.append(t.body)
        elif isinstance(t, (Plus, Cap)):
            stack.append(t.left)
            stack.append(t.right)
        elif isinstance(t, (Mu, Nu)):
            stack.append(t.body)
    return out


class Sequent:
    """Two finite sets of closed expressions; duplicates collapse."""

    __slots__ = ("lhs", "rhs", "alphabet", "_hash")

    def __init__(self, lhs, rhs, alphabet: Alphabet):
        self.lhs = frozenset(canonical(e) for e in lhs)
        self.rhs = frozenset(canonical(e) for e in rhs)
        self.alphabet = alphabet
        for e in self.lhs | self.rhs:
            if free_vars(e):
                raise ValueError("sequent formulas must be closed: %s" % pretty(e))
            stray = _letters_used(e) - set(alphabet)
            if stray:
                raise ValueError(
                    "formula %s uses letters outside the alphabet: %s"
                    % (pretty(e), ", ".join(sorted(stray)))
                )
        self._hash = hash((self.lhs, self.rhs, alphabet))

    @property
    def lhs_sorted(self) -> Tuple[Expr, ...]:
        return tuple(sorted(self.lhs, key=expr_sort_key))

    @property
    def rhs_sorted(self) -> Tuple[Expr, ...]:
        return tuple(sorted(self.rhs, key=expr_sort_key))

    def __eq__(self, other):
        return (
            isinstance(other, Sequent)
            and other.lhs == self.lhs
            and other.rhs == self.rhs
            and other.alphabet == self.alphabet
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        return format_sequent(self)

    def __repr__(self):
        return "Sequent[%s]" % format_sequent(self)


def format_sequent(s: Sequent) -> str:
    left = ", ".join(pretty(e) for e in s.lhs_sorted)
    right = ", ".join(pretty(e) for e in s.rhs_sorted)
    return ("%s |- %s" % (left, right)).strip()


def parse_sequent(text: str, alphabet: Alphabet) -> Sequent:
    """Parse `e1, e2 |- f1, f2`; either side may be empty."""
    parts = text.split("|-")
    if len(parts) != 2:
        raise ParseError("a sequent needs exactly one '|-': %r" % text)

    def cedent(chunk):
        chunk = chunk.strip()
        if not chunk:
            return ()
        return tuple(parse(piece, alphabet) for piece in chunk.split(","))

    return Sequent(cedent(parts[0]), cedent(parts[1]), alphabet)


# ---------------------------------------------------------------------------
# rules

RULE_NAMES = (
    "l-p",
    "r-p",
    "l-w",
    "r-w",
    "0-l",
    "+-l",
    "μ-l",
    "⊤-l",
    "∩-l",
    "ν-l",
    "0-r",
    "+-r",
    "μ-r",
    "⊤-r",
    "∩-r",
    "ν-r",
)  # plus h_<letter>, one per alphabet letter

_ASCII_RULE_ALIASES = {
    "mu-l": "μ-l",
    "nu-l": "ν-l",
    "cap-l": "∩-l",
    "top-l": "⊤-l",
    "mu-r": "μ-r",
    "nu-r": "ν-r",
    "cap-r": "∩-r",
    "top-r": "⊤-r",
}


def canonical_rule_name(name: str) -> str:
    return _ASCII_RULE_ALIASES.get(name, name)


@dataclass(frozen=True)
class RuleInstance:
    """One application of a rule: its name, the conclusion, the principal
    formula (a letter for h_a, absent for l-p/r-p) and the premisses in
    order — left before right summand, alphabet order for r-p."""

    rule: str
    conclusion: Sequent
    principal: Union[Expr, str, None]
    premisses: Tuple[Sequent, ...]


@dataclass(frozen=True)
class AncestryEdge:
    """A formula of a premiss descending from a formula of the conclusion.

    kind is "principal" when the premiss formula is an auxiliary of the
    decomposed principal, "letter" when a head letter was stripped (h_a and
    r-p), and "identity" when the formula simply persists."""

    premiss_index: int
    premiss_side: str
    premiss_formula: Expr
    conclusion_side: str
    conclusion_formula: Expr
    kind: str


class _Violation(ValueError):
    pass


def _need(cond: bool, message: str):
    if not cond:
        raise _Violation(message)


_LEFT_LOGICAL = {"+-l": Plus, "∩-l": Cap, "μ-l": Mu, "ν-l": Nu}
_RIGHT_LOGICAL = {"+-r": Plus, "∩-r": Cap, "μ-r": Mu, "ν-r": Nu}
AXIOM_RULES = ("0-l", "⊤-r", "l-p")


def _expected_premisses(rule, s: Sequent, principal):
    ab = s.alphabet
    if rule == "0-l":
        _need(principal == ZERO and ZERO in s.lhs, "0-l requires 0 on the left")
        return ()
    if rule == "⊤-r":
        _need(principal == TOP and TOP in s.rhs, "⊤-r requires ⊤ on the right")
        return ()
    if rule == "⊤-l":
        _need(principal == TOP and TOP in s.lhs, "⊤-l requires ⊤ on the left")
        return (Sequent(s.lhs - {TOP}, s.rhs, ab),)
    if rule == "0-r":
        _need(principal == ZERO and ZERO in s.rhs, "0-r requires 0 on the right")
        return (Sequent(s.lhs, s.rhs - {ZERO}, ab),)
    if rule in _LEFT_LOGICAL:
        cls = _LEFT_LOGICAL[rule]
        _need(
            isinstance(principal, cls) and principal in s.lhs,
            "%s requires a principal %s-formula on the left" % (rule, rule[0]),
        )
        rest = s.lhs - {principal}
        if rule == "+-l":
            return (
                Sequent(rest | {principal.left}, s.rhs, ab),
                Sequent(rest | {principal.right}, s.rhs, ab),
            )
        if rule == "∩-l":
            return (Sequent(rest | {principal.left, principal.right}, s.rhs, ab),)
        return (Sequent(rest | {unfold(principal)}, s.rhs, ab),)
    if rule in _RIGHT_LOGICAL:
        cls = _RIGHT_LOGICAL[rule]
        _need(
            isinstance(principal, cls) and principal in s.rhs,
            "%s requires a principal %s-formula on the right" % (rule, rule[0]),
        )
        rest = s.rhs - {principal}
        if rule == "+-r":
            return (Sequent(s.lhs, rest | {principal.left, principal.right}, ab),)
        if rule == "∩-r":
            return (
                Sequent(s.lhs, rest | {principal.left}, ab),
                Sequent(s.lhs, rest | {principal.right}, ab),
            )
        return (Sequent(s.lhs, rest | {unfold(principal)}, ab),)
    if rule == "l-w":
        _need(isinstance(principal, Expr) and principal in s.lhs, "l-w must drop a left formula")
        return (Sequent(s.lhs - {principal}, s.rhs, ab),)
    if rule == "r-w":
        _need(isinstance(principal, Expr) and principal in s.rhs, "r-w must drop a right formula")
        return (Sequent(s.lhs, s.rhs - {principal}, ab),)
    if rule == "l-p":
        _need(principal is None, "l-p takes no principal formula")
        _need(len(s.lhs) == 2 and not s.rhs, "l-p requires exactly two left formulas and an empty right side")
        e1, e2 = s.lhs_sorted
        _need(
            isinstance(e1, Letter) and isinstance(e2, Letter) and e1.letter != e2.letter,
            "l-p requires two distinct head letters",
        )
        return ()
    if rule == "r-p":
        _need(principal is None, "r-p takes no principal formula")
        _need(not s.lhs, "r-p requires an empty left side")
        _need(all(isinstance(e, Letter) for e in s.rhs), "r-p requires every right formula to start with a letter")
        return tuple(
            Sequent((), [e.body for e in s.rhs if e.letter == c], ab) for c in ab
        )
    if rule.startswith("h_"):
        a = rule[2:]
        _need(a in ab, "h_%s names a letter outside the alphabet" % a)
        _need(principal == a, "h_%s takes the letter %r as principal" % (a, a))
        _need(bool(s.lhs), "h_%s requires a nonempty left side" % a)
        _need(
            all(isinstance(e, Letter) and e.letter == a for e in s.lhs),
            "h_%s requires every left formula to start with %s" % (a, a),
        )
        _need(
            all(isinstance(e, Letter) and e.letter == a for e in s.rhs),
            "h_%s requires every right formula to start with %s" % (a, a),
        )
        return (Sequent([e.body for e in s.lhs], [e.body for e in s.rhs], ab),)
    raise _Violation("unknown rule %r" % rule)


def make_instance(rule: str, conclusion: Sequent, principal=None) -> RuleInstance:
    """Build the rule instance with the given conclusion and principal,
    raising ValueError when the rule does not apply."""
    rule = canonical_rule_name(rule)
    if isinstance(principal, Expr):
        principal = canonical(principal)
    return RuleInstance(rule, conclusion, principal, _expected_premisses(rule, conclusion, principal))


def _instance_key(r: RuleInstance):
    k = expr_sort_key(r.principal) if isinstance(r.principal, Expr) else ()
    return (r.rule, k)


def applicable_steps(s: Sequent):
    """All rule instances concluding s, duplicate-free, ordered by rule name
    and then by principal formula."""
    out = []

    def add(rule, principal):
        try:
            out.append(RuleInstance(rule, s, principal, _expected_premisses(rule, s, principal)))
        except _Violation:
            pass

    for e in s.lhs_sorted:
        if isinstance(e, Zero):
            add("0-l", ZERO)
        elif isinstance(e, Top):
            add("⊤-l", TOP)
        elif isinstance(e, Plus):
            add("+-l", e)
        elif isinstance(e, Cap):
            add("∩-l", e)
        elif isinstance(e, Mu):
            add("μ-l", e)
        elif isinstance(e, Nu):
            add("ν-l", e)
        add("l-w", e)
    for e in s.rhs_sorted:
        if isinstance(e, Zero):
            add("0-r", ZERO)
        elif isinstance(e, Top):
            add("⊤-r", TOP)
        elif isinstance(e, Plus):
            add("+-r", e)
        elif isinstance(e, Cap):
            add("∩-r", e)
        elif isinstance(e, Mu):
            add("μ-r", e)
        elif isinstance(e, Nu):
            add("ν-r", e)
        add("r-w", e)
    heads = {e.letter for e in s.lhs if isinstance(e, Letter)}
    if s.lhs and len(heads) == 1 and all(isinstance(e, Letter) for e in s.lhs):
        a = next(iter(heads))
        add("h_" + a, a)
    add("l-p", None)
    add("r-p", None)
    out.sort(key=_instance_key)
    return out


def validate_instance(r: RuleInstance) -> Optional[str]:
    """None when the instance matches its rule's schema (side conditions
    included), otherwise a description of the violation.

    A +-l whose second premiss drops the context — just the right summand
    against the old right side — is also accepted; it abbreviates the full
    rule preceded by weakenings."""
    rule = canonical_rule_name(r.rule)
    try:
        expected = _expected_premisses(rule, r.conclusion, r.principal)
    except _Violation as v:
        return str(v)
    if tuple(r.premisses) == tuple(expected):
        return None
    if rule == "+-l":
        degenerate = (
            expected[0],
            Sequent({r.principal.right}, r.conclusion.rhs, r.conclusion.alphabet),
        )
        if tuple(r.premisses) == degenerate:
            return None
    return "premisses do not match the %s schema for this conclusion" % rule


def _principal_side_and_aux(r: RuleInstance):
    p = r.principal
    rule = r.rule
    if rule == "+-l":
        return "L", ({p.left}, {p.right})
    if rule == "∩-l":
        return "L", ({p.left, p.right},)
    if rule in ("μ-l", "ν-l"):
        return "L", ({unfold(p)},)
    if rule in ("⊤-l", "l-w"):
        return "L", (set(),)
    if rule == "+-r":
        return "R", ({p.left, p.right},)
    if rule == "∩-r":
        return "R", ({p.left}, {p.right})
    if rule in ("μ-r", "ν-r"):
        return "R", ({unfold(p)},)
    if rule in ("0-r", "r-w"):
        return "R", (set(),)
    raise ValueError("no principal side for rule %r" % rule)


def immediate_ancestry(r: RuleInstance):
    """The descent of premiss formulas from conclusion formulas, as a list of
    edges in a fixed order (premiss, then side, then formula).  A principal
    formula whose auxiliary coincides with a persisting formula yields both
    a principal and an identity edge."""
    edges = []
    if r.rule in AXIOM_RULES:
        return edges
    if r.rule.startswith("h_"):
        a = r.rule[2:]
        prem = r.premisses[0]
        for side, cedent in (("L", prem.lhs_sorted), ("R", prem.rhs_sorted)):
            for g in cedent:
                edges.append(AncestryEdge(0, side, g, side, Letter(a, g), "letter"))
        return edges
    if r.rule == "r-p":
        for i, c in enumerate(r.conclusion.alphabet):
            for g in r.premisses[i].rhs_sorted:
                edges.append(AncestryEdge(i, "R", g, "R", Letter(c, g), "letter"))
        return edges
    side, aux = _principal_side_and_aux(r)
    for i, prem in enumerate(r.premisses):
        for sd, cedent, conc in (
            ("L", prem.lhs_sorted, r.conclusion.lhs),
            ("R", prem.rhs_sorted, r.conclusion.rhs),
        ):
            for g in cedent:
                if sd == side and i < len(aux) and g in aux[i]:
                    edges.append(AncestryEdge(i, sd, g, sd, r.principal, "principal"))
                if g in conc:
                    edges.append(AncestryEdge(i, sd, g, sd, g, "identity"))
    return edges
