"""Sequents, the formula table, and the inference rules that act on them.

A sequent pairs two finite sets of closed expressions over a shared alphabet
and asserts that the intersection of the left languages is contained in the
union of the right ones.  The rules split into logical rules that decompose
one principal formula, weakenings, and three letter rules: l-p closes a
sequent whose left side holds two formulas with clashing head letters, h_a
strips a common head letter from both sides, and r-p splits a left-empty
sequent into one premiss per alphabet letter.

Every stage from saturation to the trace automaton works over one numbering.
A FormulaTable holds the closure of a set of closed formulas, numbered by
expr_sort_key rank, with each number's constructor, head letter, body bit
and auxiliary masks; a cedent is a mask over those numbers, whose ascending
bits are its sorted order.  premiss_masks states each rule's premisses once,
over (lhs mask, rhs mask) pairs; it is the one rule schema, and
schema_violation reads it.  Traces
follow formulas from a conclusion into its premisses: premiss_letters names
the letter that each premiss of h_a or r-p strips, so a formula with that
head letter descends to its body; FormulaTable.auxiliaries names the
formulas that take a principal's place in each premiss; any other formula
that a premiss keeps descends to itself.

A Sequent is the parsed input of a decision and the printed form of the
corpus: it is checked once, where it enters, and compares by value.  Past
that point every stage reads masks, so no rule premiss is built as a
Sequent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

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
    fl_closure,
    free_vars,
    letters_of,
    parse,
    pretty,
    unfold,
)


@dataclass(frozen=True, slots=True)
class Sequent:
    """Two finite sets of closed expressions over an alphabet; duplicates
    collapse.  Construction canonicalises every formula and refuses one that
    is open or uses a letter outside the alphabet.  lhs_sorted and
    rhs_sorted are the cedents sorted once, when the sequent is built."""

    lhs: frozenset
    rhs: frozenset
    alphabet: Alphabet
    lhs_sorted: Tuple[Expr, ...] = field(init=False, repr=False, compare=False)
    rhs_sorted: Tuple[Expr, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lhs = frozenset(canonical(e) for e in self.lhs)
        rhs = frozenset(canonical(e) for e in self.rhs)
        refused = [e for e in lhs | rhs if free_vars(e) or letters_of(e).difference(self.alphabet)]
        if refused:  # name the first in printed order, left cedent first, whatever the hash seed
            e = min(refused, key=lambda e: (e not in lhs, expr_sort_key(e)))
            if free_vars(e):
                raise ValueError("sequent formulas must be closed: %s" % pretty(e))
            stray = ", ".join(sorted(letters_of(e).difference(self.alphabet)))
            raise ValueError("formula %s uses letters outside the alphabet: %s" % (pretty(e), stray))
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "lhs_sorted", tuple(sorted(lhs, key=expr_sort_key)))
        object.__setattr__(self, "rhs_sorted", tuple(sorted(rhs, key=expr_sort_key)))

    def __str__(self):
        return format_sequent(self)

    def __repr__(self):
        return "Sequent[%s]" % format_sequent(self)


def format_sequent(s: Sequent) -> str:
    left = ", ".join(pretty(e) for e in s.lhs_sorted)
    right = ", ".join(pretty(e) for e in s.rhs_sorted)
    return ("%s |- %s" % (left, right)).strip()


def parse_sequent(text: str, alphabet: Alphabet, names=None) -> Sequent:
    """Parse `e1, e2 |- f1, f2`; either side may be empty.  `names` is
    passed on to parse.  A formula text that occurs twice, as in the
    identity `e |- e`, is parsed once."""
    parts = text.split("|-")
    if len(parts) != 2:
        raise ParseError("a sequent needs exactly one '|-': %r" % text)
    terms = {}  # stripped formula text -> term

    def formula(piece):
        key = piece.strip()
        if key not in terms:
            terms[key] = parse(piece, alphabet, names)
        return terms[key]

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


class _Violation(ValueError):
    pass


def _need(cond: bool, message: str, *args):
    """Raise the violation message % args, formatted only then, unless cond."""
    if not cond:
        raise _Violation(message % args if args else message)


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


class FormulaTable:
    """The closure of a set of closed formulas over an alphabet, numbered by
    expr_sort_key rank: formulas[n] is formula n, number maps it back and
    bit maps it to 1 << n.  A set of its formulas is a mask, the OR of
    their bits, so a cedent's ascending bits are its sorted order.  Per
    number: kind[n] is the constructor, letter[n] the head letter of a
    letter formula (else None), body[n] the bit of its body (else 0), and
    aux[side][n] the masks that take formula n's place in each premiss of
    its logical rule on side 0 (left) or 1 (right).  kinds maps each
    constructor to the mask of its formulas, and head each letter to the
    mask of the formulas it heads."""

    def __init__(self, formulas, alphabet: Alphabet):
        closure = set()
        for f in formulas:
            if f not in closure:  # a member's closure lies inside the closure gathered so far
                closure.update(fl_closure(f).members)
        self.alphabet = alphabet
        self.formulas = tuple(sorted(closure, key=expr_sort_key))
        self.number = {f: n for n, f in enumerate(self.formulas)}
        self.bit = bit = {f: 1 << n for n, f in enumerate(self.formulas)}
        self.kind = tuple(map(type, self.formulas))
        self.kinds, self.head = {}, {}
        letter, body, left, right = [], [], [], []
        for n, f in enumerate(self.formulas):
            self.kinds[type(f)] = self.kinds.get(type(f), 0) | 1 << n
            letter.append(f.letter if isinstance(f, Letter) else None)
            body.append(bit[f.body] if isinstance(f, Letter) else 0)
            if isinstance(f, Letter):
                self.head[f.letter] = self.head.get(f.letter, 0) | 1 << n
                aux = None, None
            elif isinstance(f, (Plus, Cap)):
                parts = bit[f.left], bit[f.right]
                joined = (parts[0] | parts[1],)
                aux = (parts, joined) if isinstance(f, Plus) else (joined, parts)
            elif isinstance(f, (Mu, Nu)):
                aux = ((bit[unfold(f)],),) * 2
            else:  # 0 closes on the left and drops on the right, T the other way round
                aux = ((), (0,)) if isinstance(f, Zero) else ((0,), ())
            left.append(aux[0])
            right.append(aux[1])
        self.letter, self.body, self.aux = tuple(letter), tuple(body), (tuple(left), tuple(right))

    def auxiliaries(self, rule: str, n: int):
        """The masks that take the place of principal n in each premiss of
        one of the PRINCIPAL_RULES: none for a weakening, else n's own."""
        cls, side = PRINCIPAL_RULES[rule]
        return (0,) if cls is Expr else self.aux[side == "R"][n]

    def masks(self, s: Sequent):
        """s as a (lhs, rhs) mask pair; every formula of s is in the table."""
        bit = self.bit.__getitem__
        return sum(map(bit, s.lhs)), sum(map(bit, s.rhs))

    def numbers(self, mask: int):
        """The numbers of a mask's bits, ascending."""
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def renumbered(self, formulas, masks):
        """Each of these masks over another numbering, in which formula n
        is formulas[n], as a mask over this table, which holds all of
        them."""
        moved = [self.bit[f] for f in formulas]
        return {m: sum(map(moved.__getitem__, self.numbers(m))) for m in masks}

    def code(self, principal):
        """A principal as the rule schema reads it: a formula's number, or
        the principal itself when it is a letter, none, or a formula with no
        number, which is in no cedent.  A formula is read canonical."""
        if isinstance(principal, Expr):
            principal = canonical(principal)
            return self.number.get(principal, principal)
        return principal


def or_rows(bits: int, rows) -> int:
    """The OR of rows[n] over the numbers n of bits' set bits."""
    out = 0
    while bits:
        low = bits & -bits
        out |= rows[low.bit_length() - 1]
        bits ^= low
    return out


def premiss_masks(table: FormulaTable, rule: str, lhs: int, rhs: int, principal):
    """The premisses of a canonical rule name at the conclusion (lhs, rhs)
    with this principal code, as (lhs, rhs) mask pairs in order; raises
    ValueError, naming the side condition, when the rule does not apply.
    This is the one statement of every rule's schema."""
    if rule in PRINCIPAL_RULES:
        cls, side = PRINCIPAL_RULES[rule]
        cedent, where = (lhs, "left") if side == "L" else (rhs, "right")
        if not (type(principal) is int and cedent >> principal & 1 and cls in (Expr, table.kind[principal])):
            if cls is Expr:
                raise _Violation("%s must drop a %s formula" % (rule, where))
            shape = rule[0] if cls in (Zero, Top) else "a principal %s-formula" % rule[0]
            raise _Violation("%s requires %s on the %s" % (rule, shape, where))
        rest = cedent & ~(1 << principal)
        if side == "L":
            return tuple((rest | aux, rhs) for aux in table.auxiliaries(rule, principal))
        return tuple((lhs, rest | aux) for aux in table.auxiliaries(rule, principal))
    if rule == "l-p":
        _need(principal is None, "l-p takes no principal formula")
        first = lhs & -lhs
        second = lhs ^ first
        _need(second and second & -second == second and not rhs,
              "l-p requires exactly two left formulas and an empty right side")
        e1, e2 = table.letter[first.bit_length() - 1], table.letter[second.bit_length() - 1]
        _need(e1 is not None and e2 is not None and e1 != e2, "l-p requires two distinct head letters")
        return ()
    if rule == "r-p":
        _need(principal is None, "r-p takes no principal formula")
        _need(not lhs, "r-p requires an empty left side")
        _need(not rhs & ~table.kinds.get(Letter, 0), "r-p requires every right formula to start with a letter")
        return tuple((0, or_rows(rhs & table.head.get(c, 0), table.body)) for c in table.alphabet)
    if rule.startswith("h_"):
        a = rule[2:]
        _need(a in table.alphabet, "h_%s names a letter outside the alphabet", a)
        _need(principal == a, "h_%s takes the letter %r as principal", a, a)
        _need(bool(lhs), "h_%s requires a nonempty left side", a)
        heads = table.head.get(a, 0)
        _need(not lhs & ~heads, "h_%s requires every left formula to start with %s", a, a)
        _need(not rhs & ~heads, "h_%s requires every right formula to start with %s", a, a)
        return ((or_rows(lhs, table.body), or_rows(rhs, table.body)),)
    raise _Violation("unknown rule %r" % rule)


def schema_violation(table: FormulaTable, rule: str, lhs: int, rhs: int, principal, premisses) -> Optional[str]:
    """None when the premisses, a tuple of (lhs, rhs) mask pairs, are the
    ones premiss_masks derives (side conditions included), otherwise a
    description of the violation.

    A +-l whose second premiss drops the context — just the right summand
    against the old right side — is also accepted; it abbreviates the full
    rule preceded by weakenings."""
    try:
        expected = premiss_masks(table, rule, lhs, rhs, principal)
    except _Violation as v:
        return str(v)
    if premisses == expected:
        return None
    if rule == "+-l" and premisses == (expected[0], (table.aux[0][principal][1], rhs)):
        return None
    return "premisses do not match the %s schema for this conclusion" % rule


def premiss_letters(rule: str, alphabet: Alphabet) -> Optional[Tuple[str, ...]]:
    """The letter that each premiss of a letter rule strips: ("a",) for h_a
    and, for r-p, the alphabet itself, which is the tuple of its letters in
    order.  None for every other rule."""
    if rule == "r-p":
        return alphabet
    if rule.startswith("h_"):
        return (rule[2:],)
    return None
