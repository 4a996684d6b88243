"""Membership of ultimately periodic words, decided by parity games.

A word stem(loop)^w has finitely many distinct suffixes, one per offset below
|stem|+|loop|, so the evaluation game of a closed expression on it is a
finite min-parity game: positions pair an offset with a closure member,
letters advance the offset, + branches for Eloise and & for Abelard,
fixpoints unfold silently, and priorities come from the canonical colouring.
Eloise wins an infinite play iff the least priority seen infinitely often is
even, and she wins from (0, e) iff the word belongs to the language.

Games are numbered end to end, with no label layer: positions are 0..n-1,
held as arrays of owner, priority and successor numbers, and
(o, fl.members[k]) is number o*|fl| + k, read straight off the closure's own
numbering (fl.succ) and colouring.  build_eval_game lays out the one arena:
the closure is the expression's automaton (automaton.build_apa), so this
game is also that automaton's acceptance game.  Eloise wins (o, members[k])
iff the suffix at offset o lies in the language of members[k], so one solve
answers membership for every suffix of the word (suffixes_in).

Zielonka's recursive attractor solver returns per-position arrays: a
winner byte for each position and a winning move wherever the position's
owner wins.  Those moves are positional strategies, and first_uncertified
checks them as a certificate of every reported winner, with no second
solver; `corpus run` checks that certificate on every sampled game, and the
solver against itself on the dual game.
"""

from __future__ import annotations

import re
from typing import Optional

from .automaton import default_coloring
from .expr import Alphabet, Cap, Expr, Letter, ParseError, Top, canonical, fl_closure, free_vars
from .proof import sccs


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


class ParityGame:
    """A finite min-parity game over positions numbered 0..n-1.

    `positions` is range(n).  Position p belongs to Eloise iff `is_e[p]`,
    has priority `prio[p]` and moves to the numbers in `out[p]`; a position
    without moves is a deadlock and loses for its owner, which the solver
    plays as a move into a losing sink numbered n or n+1.  build_eval_game
    fills the arrays well formed: every move stays below n."""

    __slots__ = ("positions", "is_e", "prio", "out")

    def __init__(self, is_e: bytes, prio: tuple, out: tuple):
        self.positions = range(len(is_e))
        self.is_e, self.prio, self.out = is_e, prio, out


def build_eval_game(w: UPWord, e: Expr) -> ParityGame:
    """The evaluation game of a closed expression on an ultimately periodic
    word: (offset o, fl.members[k]) is position o*|fl| + k.  Letter
    positions advance on a match and deadlock (for Eloise) on a mismatch;
    0 deadlocks for Eloise, T for Abelard; + is Eloise's choice, &
    Abelard's; fixpoints unfold deterministically."""
    fl = fl_closure(e)
    m, n = len(fl.members), w.n_offsets()
    next_block = [w.advance(o) * m for o in range(n)]
    letters = [w.letter_at(o) for o in range(n)]
    is_e = bytes(not isinstance(f, (Top, Cap)) for f in fl.members)
    out = [()] * (n * m)  # 0 and T keep no moves
    for k, (f, targets) in enumerate(zip(fl.members, fl.succ)):
        if isinstance(f, Letter):
            t, letter = targets[0], f.letter
            out[k::m] = [(b + t,) if c == letter else () for b, c in zip(next_block, letters)]
        elif targets:  # the same move at every offset, shifted by m
            out[k::m] = list(zip(*(range(t, n * m, m) for t in targets)))
    return ParityGame(is_e * n, default_coloring(fl) * n, tuple(out))


def solve_zielonka(game: ParityGame):
    """Solve a min-parity game: returns (winner, choice) over the positions
    0..n-1, where winner[p] is 1 iff Eloise wins from p and choice[p] is a
    winning move of p's owner wherever that owner wins (a positional
    strategy on each winning region)."""
    # the game made total: position n is a sink for a stuck Eloise (priority
    # 1), n+1 one for a stuck Abelard (priority 0); both belong to Eloise and
    # loop on themselves.  Duplicate moves may stay: the attractor counts
    # successors with multiplicity and meets a position once per move in
    # the predecessor lists.
    n = len(game.positions)
    stuck = ((n + 1,), (n,))  # indexed by is_e
    succ = [ms or stuck[e] for ms, e in zip(game.out, game.is_e)] + [stuck[1], stuck[0]]
    is_e, prio = game.is_e + b"\1\1", game.prio + (1, 0)
    pred = [[] for _ in succ]
    for p, ms in enumerate(succ):
        for q in ms:
            pred[q].append(p)
    # the subgame being solved is the set of positions p with live[p] == 1
    live = bytearray(b"\1") * len(succ)
    choice = [0] * len(succ)  # a move per position; read only where its owner wins
    left = [0] * len(succ)  # 0 outside an attractor search

    def attract(target, to_e):
        """The positions of the subgame from which the player (Eloise iff
        to_e) can force a visit to target, marked 2 in live while the search
        runs; the player's forcing moves go into choice.  An opponent
        position with several moves is attracted once `left`, its count of
        successors in the subgame not yet attracted, taken when the search
        first reaches it, falls to 0."""
        order = list(target)
        for p in order:
            live[p] = 2
        reached = []
        for q in order:
            for p in pred[q]:
                if live[p] != 1:
                    continue
                if is_e[p] == to_e:
                    choice[p] = q
                elif len(succ[p]) > 1:
                    if not left[p]:
                        left[p] = len([r for r in succ[p] if live[r]])
                        reached.append(p)
                    left[p] -= 1
                    if left[p]:
                        continue
                live[p] = 2
                order.append(p)
        for p in reached:
            left[p] = 0
        return order

    def solve(region):
        """(Eloise's, Abelard's) winning positions in the subgame on region,
        with the winners' moves in choice.  Leaves live as it found it."""
        if not region:
            return [], []
        d = min(map(prio.__getitem__, region))
        to_e = d % 2 == 0
        z = [p for p in region if prio[p] == d]
        a = attract(z, to_e)
        for p in a:
            live[p] = 0
        w_e, w_a = solve([p for p in region if live[p]])
        for p in a:
            live[p] = 1
        w_other = w_a if to_e else w_e
        if not w_other:
            for p in z:
                if is_e[p] == to_e:
                    choice[p] = next(q for q in succ[p] if live[q])
            return (region, []) if to_e else ([], region)
        b = attract(w_other, not to_e)
        for p in b:
            live[p] = 0
        w_e, w_a = solve([p for p in region if live[p]])
        for p in b:
            live[p] = 1
        return (w_e, b + w_a) if to_e else (b + w_e, w_a)

    winner = bytearray(len(succ))
    for p in solve(list(range(len(succ))))[0]:
        winner[p] = 1
    return bytes(winner[:n]), choice[:n]


def first_uncertified(game: ParityGame, winner: bytes, choice) -> Optional[int]:
    """Check the strategies in `choice` as a certificate of `winner`: None
    when they prove the winner of every position, else the least position
    at which a check fails.  In each region the winner's choice is a move
    that stays in the region, no opponent move leaves it, and the winner is
    never stuck there.  Then, in each strongly connected component of the
    remaining moves that holds a cycle, the least priority has the winner's
    parity, and the check repeats on the component without its positions
    of that priority: every play the strategies allow is won."""
    failed = set()
    plays = []
    for p, ms in enumerate(game.out):
        if game.is_e[p] == winner[p]:
            ms = (choice[p],) if choice[p] in ms else ()
            if not ms:  # stuck, or a choice that is not a move
                failed.add(p)
        inside = tuple(q for q in ms if winner[q] == winner[p])
        if len(inside) < len(ms):
            failed.add(p)
        plays.append(inside)
    comps = sccs(game.positions, plays)[0]
    while comps:
        comp = comps.pop()
        if len(comp) == 1 and comp[0] not in plays[comp[0]]:
            continue  # no cycle
        d = min(game.prio[p] for p in comp)
        if d % 2 == winner[comp[0]]:  # Eloise (1) wins by an even priority
            failed.add(min(comp))
            continue
        rest = {p for p in comp if game.prio[p] != d}
        comps += sccs(rest, {p: [q for q in plays[p] if q in rest] for p in rest})[0]
    return min(failed, default=None)


# ---------------------------------------------------------------------------


def suffixes_in(w: UPWord, e: Expr) -> bytes:
    """One byte per offset o of the word: 1 iff the suffix at o lies in the
    language of the closed expression e, read off one solved evaluation game
    at the positions (o, e) (a closure lists its root first)."""
    winner, _ = solve_zielonka(build_eval_game(w, e))
    return winner[:: len(fl_closure(e).members)]


def member(w: UPWord, e: Expr) -> bool:
    """True iff the word lies in the language of the closed expression e."""
    e = canonical(e)
    if free_vars(e):
        raise ValueError("member requires a closed expression; free: %s" % ", ".join(sorted(free_vars(e))))
    return suffixes_in(w, e)[0] == 1
