"""Membership of ultimately periodic words, decided by parity games.

A word stem(loop)^w has finitely many distinct suffixes, one per offset below
|stem|+|loop|, so the evaluation game of a closed expression on it is a
finite min-parity game: positions pair an offset with a closure member,
letters advance the offset, + branches for Eloise and & for Abelard,
fixpoints unfold silently, and priorities come from the canonical colouring.
Eloise wins an infinite play iff the least priority seen infinitely often is
even, and she wins from (0, e) iff the word belongs to the language.

Two independent solvers are provided: a recursive attractor solver
(production) and a small-progress-measures solver (oracle); they are
cross-checked against each other and against the automaton route.
"""

from __future__ import annotations

import re
from collections import deque
from typing import NamedTuple

from .automaton import default_coloring
from .expr import Alphabet, Expr, ParseError, Zero, canonical, fl_closure, free_vars


class UPWord:
    """An ultimately periodic word stem(loop)^w over an alphabet."""

    __slots__ = ("stem", "loop", "alphabet")

    def __init__(self, stem: str, loop: str, alphabet: Alphabet):
        if not loop:
            raise ValueError("loop must be nonempty")
        for c in stem + loop:
            if c not in alphabet:
                raise ValueError("letter %r is not in alphabet %s" % (c, alphabet))
        self.stem = stem
        self.loop = loop
        self.alphabet = alphabet

    def n_offsets(self) -> int:
        return len(self.stem) + len(self.loop)

    def letter_at(self, i: int) -> str:
        if i < len(self.stem):
            return self.stem[i]
        return self.loop[(i - len(self.stem)) % len(self.loop)]

    def advance(self, i: int) -> int:
        j = i + 1
        return j if j < self.n_offsets() else len(self.stem)

    def __eq__(self, other):
        return (
            isinstance(other, UPWord)
            and other.stem == self.stem
            and other.loop == self.loop
            and other.alphabet == self.alphabet
        )

    def __hash__(self):
        return hash((self.stem, self.loop, self.alphabet))

    def __str__(self):
        return "%s(%s)^w" % (self.stem, self.loop)

    def __repr__(self):
        return "UPWord(%r, %r, %r)" % (self.stem, self.loop, str(self.alphabet))


_WORD_RE = re.compile(r"([a-z]*)\(([a-z]+)\)\^w\Z")


def parse_word(text: str, alphabet: Alphabet) -> UPWord:
    """Parse the word syntax stem(loop)^w, e.g. ab(ba)^w or (a)^w."""
    m = _WORD_RE.match(text.strip())
    if not m:
        raise ParseError("malformed word %r; expected stem(loop)^w" % text)
    return UPWord(m.group(1), m.group(2), alphabet)


class EvalPosition(NamedTuple):
    offset: int
    formula: Expr


class ParityGame:
    """A finite min-parity game.  Deadlocked positions lose for their owner."""

    __slots__ = ("positions", "owner", "moves", "priority")

    def __init__(self, positions, owner, moves, priority):
        self.positions = tuple(positions)
        self.owner = dict(owner)
        self.moves = {p: tuple(ms) for p, ms in moves.items()}
        self.priority = dict(priority)
        pos_set = set(self.positions)
        for p in self.positions:
            if self.owner.get(p) not in ("E", "A"):
                raise ValueError("position %r lacks an owner" % (p,))
            if p not in self.priority or self.priority[p] < 0:
                raise ValueError("position %r lacks a priority" % (p,))
            for q in self.moves.get(p, ()):
                if q not in pos_set:
                    raise ValueError("move from %r leaves the arena" % (p,))


def build_eval_game(w: UPWord, e: Expr) -> ParityGame:
    """The evaluation game of a closed expression on an ultimately periodic
    word.  Letter positions advance on a match and deadlock (for Eloise) on a
    mismatch; 0 deadlocks for Eloise, T for Abelard; + is Eloise's choice, &
    Abelard's; fixpoints unfold deterministically."""
    if free_vars(e):
        raise ValueError("build_eval_game requires a closed expression")
    fl = fl_closure(e)
    colour = default_coloring(fl)
    positions = []
    owner = {}
    moves = {}
    priority = {}
    for o in range(w.n_offsets()):
        for f in fl.members:
            pos = EvalPosition(o, f)
            positions.append(pos)
            priority[pos] = colour[f]
            kinds = fl.successors[f]
            if not kinds:  # 0 or T
                owner[pos] = "E" if isinstance(f, Zero) else "A"
                moves[pos] = ()
                continue
            if kinds[0][0] == "letter-step":
                owner[pos] = "E"
                if w.letter_at(o) == f.letter:
                    moves[pos] = (EvalPosition(w.advance(o), kinds[0][1]),)
                else:
                    moves[pos] = ()
                continue
            if kinds[0][0] == "unfold":
                owner[pos] = "E"
                moves[pos] = (EvalPosition(o, kinds[0][1]),)
                continue
            # plus or cap
            owner[pos] = "E" if kinds[0][0].startswith("plus") else "A"
            moves[pos] = tuple(EvalPosition(o, t) for _, t in kinds)
    return ParityGame(positions, owner, moves, priority)


# ---------------------------------------------------------------------------
# Zielonka's recursive solver


class _Sink:
    __slots__ = ("tag",)

    def __init__(self, tag):
        self.tag = tag

    def __repr__(self):
        return "<sink %s>" % self.tag


def _totalise(game: ParityGame):
    """Replace deadlocks by moves into losing sinks so the recursion can
    assume totality."""
    positions = list(game.positions)
    owner = dict(game.owner)
    priority = dict(game.priority)
    succ = {}
    sink_odd = _Sink("odd")
    sink_even = _Sink("even")
    used = set()
    for p in game.positions:
        ms = []
        seen = set()
        for q in game.moves[p]:
            if q not in seen:
                seen.add(q)
                ms.append(q)
        if not ms:
            sink = sink_odd if game.owner[p] == "E" else sink_even
            ms = [sink]
            used.add(sink)
        succ[p] = ms
    for sink, pr in ((sink_odd, 1), (sink_even, 0)):
        if sink in used:
            positions.append(sink)
            owner[sink] = "E"
            priority[sink] = pr
            succ[sink] = [sink]
    return positions, owner, succ, priority, {sink_odd, sink_even}


def _attractor(target, player, positions, succ, owner, pred):
    """Positions from which `player` can force the play into `target`;
    returns (attractor in discovery order, attractor strategy)."""
    in_a = set(target)
    order = list(target)
    strat = {}
    pos_set = set(positions)
    cnt = {}
    for p in positions:
        if owner[p] != player:
            cnt[p] = sum(1 for q in succ[p] if q in pos_set)
    queue = deque(order)
    while queue:
        q = queue.popleft()
        for p in pred.get(q, ()):
            if p not in pos_set or p in in_a:
                continue
            if owner[p] == player:
                in_a.add(p)
                strat[p] = q
                order.append(p)
                queue.append(p)
            else:
                cnt[p] -= 1
                if cnt[p] == 0:
                    in_a.add(p)
                    order.append(p)
                    queue.append(p)
    return order, strat


def _zielonka(positions, owner, succ, priority):
    if not positions:
        return set(), set(), {}, {}
    pos_set = set(positions)
    pred = {}
    local_succ = {}
    for p in positions:
        local_succ[p] = [q for q in succ[p] if q in pos_set]
        for q in local_succ[p]:
            pred.setdefault(q, []).append(p)
    d = min(priority[p] for p in positions)
    player = "E" if d % 2 == 0 else "A"
    other = "A" if player == "E" else "E"
    z = [p for p in positions if priority[p] == d]
    a, strat_a = _attractor(z, player, positions, local_succ, owner, pred)
    a_set = set(a)
    rest = [p for p in positions if p not in a_set]
    w_e, w_a, s_e, s_a = _zielonka(rest, owner, local_succ, priority)
    w_player, w_other = (w_e, w_a) if player == "E" else (w_a, w_e)
    s_player, s_other = (s_e, s_a) if player == "E" else (s_a, s_e)
    if not w_other:
        strat = dict(s_player)
        strat.update(strat_a)
        for p in z:
            if owner[p] == player:
                strat[p] = local_succ[p][0]
        win = set(positions)
        if player == "E":
            return win, set(), strat, {}
        return set(), win, {}, strat
    b, strat_b = _attractor(list(w_other), other, positions, local_succ, owner, pred)
    b_set = set(b)
    rest2 = [p for p in positions if p not in b_set]
    w_e2, w_a2, s_e2, s_a2 = _zielonka(rest2, owner, local_succ, priority)
    strat_other = dict(s_other)
    strat_other.update(strat_b)
    if other == "E":
        strat_other.update(s_e2)
        return b_set | w_e2, w_a2, strat_other, s_a2
    strat_other.update(s_a2)
    return w_e2, b_set | w_a2, s_e2, strat_other


def solve_zielonka(game: ParityGame):
    """Solve a min-parity game: returns (win_E, win_A, strategy_E,
    strategy_A) with positional strategies on the respective winning
    regions."""
    positions, owner, succ, priority, sinks = _totalise(game)
    w_e, w_a, s_e, s_a = _zielonka(positions, owner, succ, priority)
    w_e -= sinks
    w_a -= sinks
    strat_e = {p: q for p, q in s_e.items() if p in w_e and game.owner.get(p) == "E" and not isinstance(q, _Sink)}
    strat_a = {p: q for p, q in s_a.items() if p in w_a and game.owner.get(p) == "A" and not isinstance(q, _Sink)}
    return frozenset(w_e), frozenset(w_a), strat_e, strat_a


# ---------------------------------------------------------------------------
# Small progress measures (independent oracle solver)


def solve_spm(game: ParityGame) -> frozenset:
    """Jurdzinski's small-progress-measures solver; returns Eloise's winning
    region.  Implemented over the max-parity mirror of the game."""
    positions, owner, succ, priority, sinks = _totalise(game)
    maxp = max(priority[p] for p in positions)
    top_even = maxp if maxp % 2 == 0 else maxp + 1
    pr = {p: top_even - priority[p] for p in positions}
    odd_prios = sorted({v for v in pr.values() if v % 2 == 1}, reverse=True)
    counts = {i: sum(1 for p in positions if pr[p] == i) for i in odd_prios}
    slot = {i: k for k, i in enumerate(odd_prios)}  # most significant first
    bottom = tuple(0 for _ in odd_prios)
    TOPM = None  # represented as None

    def prog(rho_w, p_v):
        if rho_w is TOPM:
            return TOPM
        keep = sum(1 for i in odd_prios if i >= p_v)
        prefix = list(rho_w[:keep])
        if p_v % 2 == 0:
            return tuple(prefix) + tuple(0 for _ in range(len(odd_prios) - keep))
        # strictly increase within the prefix, least solution
        k = keep - 1
        while k >= 0:
            if prefix[k] < counts[odd_prios[k]]:
                prefix[k] += 1
                for j in range(k + 1, keep):
                    prefix[j] = 0
                return tuple(prefix) + tuple(0 for _ in range(len(odd_prios) - keep))
            k -= 1
        return TOPM

    def less(a, b):  # measure order, None = top
        if b is TOPM:
            return a is not TOPM
        if a is TOPM:
            return False
        return a < b

    rho = {p: bottom for p in positions}
    pred = {}
    for p in positions:
        for q in succ[p]:
            pred.setdefault(q, []).append(p)

    def lift(v):
        vals = [prog(rho[q], pr[v]) for q in succ[v]]
        if owner[v] == "E":
            best = vals[0]
            for x in vals[1:]:
                if less(x, best):
                    best = x
            return best
        best = vals[0]
        for x in vals[1:]:
            if less(best, x):
                best = x
        return best

    queue = deque(positions)
    queued = set(positions)
    while queue:
        v = queue.popleft()
        queued.discard(v)
        new = lift(v)
        if less(rho[v], new):
            rho[v] = new
            for u in pred.get(v, ()):
                if u not in queued:
                    queued.add(u)
                    queue.append(u)
    return frozenset(p for p in game.positions if rho[p] is not TOPM)


# ---------------------------------------------------------------------------


def member(w: UPWord, e: Expr) -> bool:
    """True iff the word lies in the language of the closed expression e."""
    e = canonical(e)
    if free_vars(e):
        raise ValueError("member requires a closed expression; free: %s" % ", ".join(sorted(free_vars(e))))
    game = build_eval_game(w, e)
    win_e, _, _, _ = solve_zielonka(game)
    return EvalPosition(0, e) in win_e
