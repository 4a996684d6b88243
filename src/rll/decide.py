"""Deciding guarded sequents by canonical proof search.

The search strategy is deterministic: apply closing axioms first, then the
logical rule on the least non-letter formula, and once every formula is
letter-prefixed either clash two distinct head letters (l-p, weakening the
rest away), strip a shared head letter (h_a, weakening mismatched RHS
formulas), or partition on the first letter (r-p) when the LHS is empty.
Saturating the strategy with memoised sequents yields a finite cyclic
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
from .calculus import LOGICAL_RULE, RuleInstance, Sequent, make_instance, premiss_letters
from .proof import Lasso, ProofGraph, check


class UnguardedSequentError(ValueError):
    """decide only handles sequents whose formulas are all guarded."""


class BudgetExceededError(RuntimeError):
    """saturate met more distinct sequents than its node budget allows."""


def strategy_step(s: Sequent) -> RuleInstance:
    """The single rule the search strategy applies at s."""
    lhs, rhs = s.lhs_sorted, s.rhs_sorted
    for e in lhs:
        if isinstance(e, Zero):
            return make_instance("0-l", s, e)
    for f in rhs:
        if isinstance(f, Top):
            return make_instance("⊤-r", s, f)
    candidates = [(expr_sort_key(e), "L", e) for e in lhs if not isinstance(e, Letter)]
    candidates += [(expr_sort_key(f), "R", f) for f in rhs if not isinstance(f, Letter)]
    if candidates:
        _, side, e = min(candidates)
        return make_instance(LOGICAL_RULE[type(e), side], s, e)
    if lhs:
        heads = {e.letter for e in lhs}
        if len(heads) >= 2:
            first = lhs[0]
            second = next(e for e in lhs if e.letter != first.letter)
            for e in lhs:
                if e is not first and e is not second:
                    return make_instance("l-w", s, e)
            if rhs:
                return make_instance("r-w", s, rhs[0])
            return make_instance("l-p", s)
        head = lhs[0].letter
        for f in rhs:
            if f.letter != head:
                return make_instance("r-w", s, f)
        return make_instance("h_" + head, s, head)
    return make_instance("r-p", s)


def saturate(s: Sequent, max_nodes: int = 200000) -> ProofGraph:
    """Expand strategy_step breadth-first, memoising sequents into
    back-edges.  Terminates because only finitely many sequents arise."""
    memo = {s: "n0"}
    queue = [s]
    nodes = []
    for current in queue:  # the queue grows while it is walked
        inst = strategy_step(current)
        kids = []
        for prem in inst.premisses:
            if prem not in memo:
                if len(memo) >= max_nodes:
                    raise BudgetExceededError("proof search exceeded %d sequents" % max_nodes)
                memo[prem] = "n%d" % len(memo)
                queue.append(prem)
            kids.append(memo[prem])
        nodes.append((memo[current], inst, tuple(kids)))
    return ProofGraph(nodes, "n0")


def extract_countermodel(p: ProofGraph, lasso: Lasso) -> UPWord:
    """Fold a rejected branch into the word it consumes: an edge j out of
    a letter rule contributes the letter that premiss j strips, as
    premiss_letters names it, and every other edge none."""

    def letters(edges):
        out = []
        for v, j in edges:
            stripped = premiss_letters(p.instance[v])
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


def decide(s: Sequent, max_nodes: int = 200000):
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
