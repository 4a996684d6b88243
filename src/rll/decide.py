"""Deciding guarded sequents by canonical proof search.

The search strategy is deterministic: apply closing axioms first, then the
logical rule on the least non-letter formula, and once every formula is
letter-prefixed either clash two distinct head letters (l-p, weakening the
rest away), strip a shared head letter (h_a, weakening mismatched RHS
formulas), or partition on the first letter (r-p) when the LHS is empty.
The strategy and its memo run over the formula table of the closure of the
root sequent: a sequent is a (lhs mask, rhs mask) pair, its premisses come
from the mask rule schema of rll.calculus, and no Sequent is built.
Saturating the strategy with memoised mask pairs yields a finite cyclic
preproof; the sequent is valid exactly when that preproof passes the
progress check, and a failing branch folds into an ultimately periodic
countermodel: each edge of its lasso that leaves a letter rule contributes
the letter that its premiss strips.  Every countermodel is re-verified by
the membership solver before it is returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from .expr import Letter, Top, Zero, expr_sort_key, is_guarded, pretty
from .semantics import UPWord, member
from .calculus import LOGICAL_RULE, FormulaTable, Sequent, premiss_letters, premiss_masks
from .proof import Lasso, ProofGraph, check

MAX_NODES = 200000  # the default node budget: distinct sequents that saturate may meet


class UnguardedSequentError(ValueError):
    """decide only handles sequents whose formulas are all guarded."""


class BudgetExceededError(RuntimeError):
    """saturate met more distinct sequents than its node budget allows."""


def strategy_step(table: FormulaTable, lhs: int, rhs: int):
    """The rule and principal code that the search strategy applies at the
    conclusion (lhs, rhs), masks over the table: a cedent's lowest bit is
    its least formula."""
    zero = lhs & table.kinds.get(Zero, 0)
    if zero:
        return "0-l", _lowest(zero)
    top = rhs & table.kinds.get(Top, 0)
    if top:
        return "⊤-r", _lowest(top)
    logical = (lhs | rhs) & ~table.kinds.get(Letter, 0)
    if logical:
        n = _lowest(logical)
        return LOGICAL_RULE[table.kind[n], "L" if lhs >> n & 1 else "R"], n
    if lhs:
        first = lhs & -lhs
        head = table.letter[_lowest(first)]
        others = lhs & ~table.head[head]
        if others:  # two distinct heads: keep the first formula and the first of another head
            rest = lhs & ~first & ~(others & -others)
            if rest:
                return "l-w", _lowest(rest)
            if rhs:
                return "r-w", _lowest(rhs)
            return "l-p", None
        mismatched = rhs & ~table.head[head]
        if mismatched:
            return "r-w", _lowest(mismatched)
        return "h_" + head, head
    return "r-p", None


def _lowest(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def saturate(s: Sequent, max_nodes: int = MAX_NODES) -> ProofGraph:
    """Expand strategy_step breadth-first over the table of the closure of
    s's formulas, memoising (lhs, rhs) mask pairs into back-edges.
    Terminates because only finitely many mask pairs arise."""
    table = FormulaTable(s.lhs | s.rhs, s.alphabet)
    queue = [table.masks(s)]
    memo = {queue[0]: 0}
    rules, principals, children = [], [], []
    for lhs, rhs in queue:  # the queue grows while it is walked
        rule, principal = strategy_step(table, lhs, rhs)
        kids = []
        for prem in premiss_masks(table, rule, lhs, rhs, principal):
            k = memo.get(prem)
            if k is None:
                if len(memo) >= max_nodes:
                    raise BudgetExceededError("proof search exceeded %d sequents" % max_nodes)
                k = memo[prem] = len(queue)
                queue.append(prem)
            kids.append(k)
        rules.append(rule)
        principals.append(principal)
        children.append(tuple(kids))
    lhs, rhs = zip(*queue)
    return ProofGraph(table, tuple("n%d" % v for v in range(len(queue))), lhs, rhs, tuple(rules),
                      tuple(principals), tuple(children), 0)


def extract_countermodel(p: ProofGraph, lasso: Lasso) -> UPWord:
    """Fold a rejected branch into the word it consumes: an edge j out of
    a letter rule contributes the letter that premiss j strips, as
    premiss_letters names it, and every other edge none."""

    def letters(edges):
        out = []
        for v, j in edges:
            stripped = premiss_letters(p.rule[v], p.alphabet)
            if stripped is not None:
                out.append(stripped[j])
        return "".join(out)

    stem = letters(lasso.stem)
    cycle = letters(lasso.cycle)
    if not cycle:
        raise RuntimeError("internal error: rejected branch consumes no letters on its cycle")
    return UPWord(stem, cycle, p.alphabet)


@dataclass(frozen=True)
class Proved:
    proof: ProofGraph


@dataclass(frozen=True)
class Refuted:
    word: UPWord


def decide(s: Sequent, max_nodes: int = MAX_NODES):
    """Proved(proof) with a checkable cyclic proof, or Refuted(word) with a
    membership-verified countermodel (in every LHS language, in no RHS one)."""
    for e in sorted(s.lhs | s.rhs, key=expr_sort_key):
        if not is_guarded(e):
            raise UnguardedSequentError(
                "decide requires guarded expressions, but %s is not guarded" % pretty(e)
            )
    p = saturate(s, max_nodes=max_nodes)
    r = check(p)
    if r.violations:
        raise RuntimeError("internal error: search built an ill-formed proof: %s" % r.violations[0])
    if r.ok:
        return Proved(p)
    w = extract_countermodel(p, r.lasso)
    for e in s.lhs_sorted:
        if not member(w, e):
            raise RuntimeError(
                "internal error: countermodel %s fails LHS formula %s" % (w, pretty(e))
            )
    for f in s.rhs_sorted:
        if member(w, f):
            raise RuntimeError(
                "internal error: countermodel %s satisfies RHS formula %s" % (w, pretty(f))
            )
    return Refuted(w)
