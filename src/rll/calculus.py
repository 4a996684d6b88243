"""Sequents and the inference rules that act on them.

A sequent pairs two finite sets of closed expressions over a shared alphabet
and asserts that the intersection of the left languages is contained in the
union of the right ones.  The rules split into logical rules that decompose
one principal formula, weakenings, and three letter rules: l-p closes a
sequent whose left side holds two formulas with clashing head letters, h_a
strips a common head letter from both sides, and r-p splits a left-empty
sequent into one premiss per alphabet letter.

This module is the one place that states each rule fact.  PRINCIPAL_RULES
and the three letter rules are every rule there is.  Traces follow formulas
from a conclusion into its premisses: premiss_letters names the letter that
each premiss of h_a or r-p strips, so a formula with that head letter
descends to its body; auxiliaries names the formulas that take a principal's
place in each premiss; any other formula that a premiss keeps descends to
itself.  Rule applications are first-class values (RuleInstance) so that
proofs can store them.  A sequent
is checked once, where it enters, and interned as terms are, so equality is
identity; a premiss is derived without re-checking, as a table lookup.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional, Tuple, Union

from .expr import (
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
    letters_of,
    parse,
    pretty,
    unfold,
)


# (lhs, rhs, alphabet) -> the one live sequent with them; like expr._NODES,
# it holds no sequent alive
_SEQUENTS = weakref.WeakValueDictionary()


class Sequent:
    """Two finite sets of closed expressions; duplicates collapse.  The
    constructor checks every formula and returns the one live sequent with
    these cedents and alphabet, so equality is identity; _premiss derives rule
    premisses without re-checking.  lhs_sorted and rhs_sorted are the cedents
    sorted once, when the sequent is first built."""

    __slots__ = ("lhs", "rhs", "alphabet", "lhs_sorted", "rhs_sorted", "__weakref__")

    def __new__(cls, lhs, rhs, alphabet: Alphabet):
        lhs = frozenset(canonical(e) for e in lhs)
        rhs = frozenset(canonical(e) for e in rhs)
        refused = [e for e in lhs | rhs if free_vars(e) or letters_of(e).difference(alphabet)]
        if refused:  # name the first in printed order, left cedent first, whatever the hash seed
            e = min(refused, key=lambda e: (e not in lhs, expr_sort_key(e)))
            if free_vars(e):
                raise ValueError("sequent formulas must be closed: %s" % pretty(e))
            stray = ", ".join(sorted(letters_of(e).difference(alphabet)))
            raise ValueError("formula %s uses letters outside the alphabet: %s" % (pretty(e), stray))
        return _premiss(lhs, rhs, alphabet)

    def __str__(self):
        return format_sequent(self)

    def __repr__(self):
        return "Sequent[%s]" % format_sequent(self)


def _premiss(lhs, rhs, alphabet: Alphabet) -> Sequent:
    """The one live sequent with these cedents, built on first use.  A rule
    premiss comes here straight from parts of a checked conclusion's formulas,
    without the constructor's checks, which it passes by construction: the
    left, right or body of a closed canonical +, & or letter term is closed
    and canonical, unfold returns a canonical term, and neither adds a
    letter."""
    key = (frozenset(lhs), frozenset(rhs), alphabet)
    s = _SEQUENTS.get(key)
    if s is None:
        s = object.__new__(Sequent)
        s.lhs, s.rhs, s.alphabet = key
        s.lhs_sorted = tuple(sorted(s.lhs, key=expr_sort_key))
        s.rhs_sorted = tuple(sorted(s.rhs, key=expr_sort_key))
        _SEQUENTS[key] = s
    return s


def format_sequent(s: Sequent) -> str:
    left = ", ".join(pretty(e) for e in s.lhs_sorted)
    right = ", ".join(pretty(e) for e in s.rhs_sorted)
    return ("%s |- %s" % (left, right)).strip()


def parse_sequent(text: str, alphabet: Alphabet, formulas=None, names=None) -> Sequent:
    """Parse `e1, e2 |- f1, f2`; either side may be empty.  `names` is
    passed on to parse.  `formulas`, a dict from formula text to term that
    a caller may share across sequents, is read and filled: a text found
    there is not parsed again."""
    parts = text.split("|-")
    if len(parts) != 2:
        raise ParseError("a sequent needs exactly one '|-': %r" % text)

    if formulas is None:
        formulas = {}

    def formula(piece):
        key = piece.strip()
        if key not in formulas:
            formulas[key] = parse(piece, alphabet, names)
        return formulas[key]

    def cedent(chunk):
        chunk = chunk.strip()
        if not chunk:
            return ()
        return tuple(formula(piece) for piece in chunk.split(","))

    return Sequent(cedent(parts[0]), cedent(parts[1]), alphabet)


# ---------------------------------------------------------------------------
# rules

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


def is_rule_name(rule: str) -> bool:
    """Is this canonical name in the rule table (any h_ name is)?"""
    return rule in PRINCIPAL_RULES or rule in ("l-p", "r-p") or rule.startswith("h_")


@dataclass(frozen=True)
class RuleInstance:
    """One application of a rule: its name, stored canonical (mu-l as μ-l),
    the conclusion, the principal formula, canonical too (a letter for h_a,
    absent for l-p/r-p), and the premisses in order, as a tuple."""

    rule: str
    conclusion: Sequent
    principal: Union[Expr, str, None]
    premisses: Tuple[Sequent, ...]

    def __post_init__(self):
        if self.rule in _ASCII_RULE_ALIASES:
            object.__setattr__(self, "rule", _ASCII_RULE_ALIASES[self.rule])
        if isinstance(self.principal, Expr) and canonical(self.principal) is not self.principal:
            object.__setattr__(self, "principal", canonical(self.principal))


class _Violation(ValueError):
    pass


def _need(cond: bool, message: str):
    if not cond:
        raise _Violation(message)


# The rules that decompose or drop one principal formula, each with the
# constructor its principal must have (any formula, for a weakening) and the
# side of the sequent that the principal is on.
PRINCIPAL_RULES = {
    "0-l": (Zero, "L"),
    "⊤-l": (Top, "L"),
    "+-l": (Plus, "L"),
    "∩-l": (Cap, "L"),
    "μ-l": (Mu, "L"),
    "ν-l": (Nu, "L"),
    "l-w": (Expr, "L"),
    "0-r": (Zero, "R"),
    "⊤-r": (Top, "R"),
    "+-r": (Plus, "R"),
    "∩-r": (Cap, "R"),
    "μ-r": (Mu, "R"),
    "ν-r": (Nu, "R"),
    "r-w": (Expr, "R"),
}
# the logical rule for a principal formula of this constructor on this side
LOGICAL_RULE = {key: rule for rule, key in PRINCIPAL_RULES.items() if key[0] is not Expr}


def auxiliaries(rule, p):
    """The formulas that take the place of principal p in each premiss of
    one of the PRINCIPAL_RULES."""
    if rule in ("+-l", "∩-r"):
        return ({p.left}, {p.right})
    if rule in ("∩-l", "+-r"):
        return ({p.left, p.right},)
    if rule in ("0-l", "⊤-r"):
        return ()
    if rule[0] in "μν":
        return ({unfold(p)},)
    return (set(),)  # ⊤-l, 0-r and the weakenings


def _expected_premisses(rule, s: Sequent, principal):
    ab = s.alphabet
    if rule in PRINCIPAL_RULES:
        cls, side = PRINCIPAL_RULES[rule]
        cedent, where = (s.lhs, "left") if side == "L" else (s.rhs, "right")
        if cls is Expr:
            message = "%s must drop a %s formula" % (rule, where)
        else:
            shape = rule[0] if cls in (Zero, Top) else "a principal %s-formula" % rule[0]
            message = "%s requires %s on the %s" % (rule, shape, where)
        _need(isinstance(principal, cls) and principal in cedent, message)
        rest = cedent - {principal}
        if side == "L":
            return tuple(_premiss(rest | aux, s.rhs, ab) for aux in auxiliaries(rule, principal))
        return tuple(_premiss(s.lhs, rest | aux, ab) for aux in auxiliaries(rule, principal))
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
            _premiss((), [e.body for e in s.rhs if e.letter == c], ab) for c in ab
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
        return (_premiss([e.body for e in s.lhs], [e.body for e in s.rhs], ab),)
    raise _Violation("unknown rule %r" % rule)


def make_instance(rule: str, conclusion: Sequent, principal=None) -> RuleInstance:
    """Build the rule instance with the given conclusion and principal,
    raising ValueError when the rule does not apply."""
    rule = canonical_rule_name(rule)
    if isinstance(principal, Expr):
        principal = canonical(principal)
    return RuleInstance(rule, conclusion, principal, _expected_premisses(rule, conclusion, principal))


def validate_instance(r: RuleInstance) -> Optional[str]:
    """None when the instance matches its rule's schema (side conditions
    included), otherwise a description of the violation.

    A +-l whose second premiss drops the context — just the right summand
    against the old right side — is also accepted; it abbreviates the full
    rule preceded by weakenings."""
    try:
        expected = _expected_premisses(r.rule, r.conclusion, r.principal)
    except _Violation as v:
        return str(v)
    if r.premisses == expected:
        return None
    if r.rule == "+-l":
        degenerate = (
            expected[0],
            _premiss({r.principal.right}, r.conclusion.rhs, r.conclusion.alphabet),
        )
        if r.premisses == degenerate:
            return None
    return "premisses do not match the %s schema for this conclusion" % r.rule


def premiss_letters(r: RuleInstance) -> Optional[Tuple[str, ...]]:
    """The letter that each premiss of a letter rule strips: ("a",) for h_a
    and, for r-p, the alphabet itself, which is the tuple of its letters in
    order.  None for every other rule."""
    if r.rule == "r-p":
        return r.conclusion.alphabet
    if r.rule.startswith("h_"):
        return (r.rule[2:],)
    return None

