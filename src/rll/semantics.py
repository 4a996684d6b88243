"""Membership of ultimately periodic words, decided by parity games.

A word stem(loop)^w has finitely many distinct suffixes, one per offset below
|stem|+|loop|, so the evaluation game of a closed expression on it is a
finite min-parity game: positions pair an offset with a closure member,
letters advance the offset, + branches for Eloise and & for Abelard,
fixpoints unfold silently, and priorities come from the canonical colouring.
Eloise wins an infinite play iff the least priority seen infinitely often is
even, and she wins from (0, e) iff the word belongs to the language.  The
closure is the expression's automaton (automaton.build_apa), so this game
is also that automaton's acceptance game.

member and suffixes_in solve the game symbolically (winning_offsets): the
offsets where Eloise wins from a closure member form one int bitmask, a
letter move is a shift of it, and Zielonka's recursion runs over lists of
such masks, one per member.  No position is ever laid out, so one solve
answers membership for every suffix of the word.

The explicit game is the cross-check.  build_eval_game numbers it end to
end, with no label layer: positions are 0..n-1, held as arrays of owner,
priority and successor numbers, and (o, fl.members[k]) is number o*|fl| + k,
read straight off the closure's own numbering (fl.succ) and colouring.
solve_zielonka, Zielonka's recursive attractor solver, returns per-position
arrays: a winner byte for each position and a winning move wherever the
position's owner wins.  Those moves are positional strategies, and
first_uncertified checks them as a certificate of every reported winner,
with no second solver; `corpus run` checks that certificate on every
sampled game, and the solver against itself on the dual game, and the
tests check the bitmask winners against the explicit ones at every
position.
"""

from __future__ import annotations

import re
from typing import Optional

from .automaton import default_coloring
from .expr import Alphabet, Cap, Expr, Letter, ParseError, Top, canonical, fl_closure, free_vars
from .proof import tarjan


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
    comps = tarjan(plays, game.positions)
    while comps:  # one round per layer of removed priorities
        label = [-1] * len(plays)  # the component a position is split again in
        rest = []
        for i, comp in enumerate(comps):
            if len(comp) == 1 and comp[0] not in plays[comp[0]]:
                continue  # no cycle
            d = min(game.prio[p] for p in comp)
            if d % 2 == winner[comp[0]]:  # Eloise (1) wins by an even priority
                failed.add(min(comp))
                continue
            for p in comp:
                if game.prio[p] != d:
                    label[p] = i
                    rest.append(p)
        plays = [[q for q in ms if label[q] == label[p]] if label[p] >= 0 else () for p, ms in enumerate(plays)]
        comps = tarjan(plays, rest)
    return min(failed, default=None)


# ---------------------------------------------------------------------------


def winning_offsets(w: UPWord, e: Expr) -> list:
    """Solve the evaluation game of a closed expression on a word over
    bitmasks of offsets: bit o of the k-th int is 1 iff Eloise wins
    (o, fl.members[k]), which is the winner byte o*|fl| + k of
    solve_zielonka(build_eval_game(w, e)).

    A region is a list of m + 2 ints, one offset mask per closure member
    plus two sinks that loop on themselves at every offset: m, where Eloise
    loses (priority 1), and m + 1, where she wins (priority 0).  The moves
    are build_eval_game's, read from the same closure numbering and
    colouring: a letter member steps to its body at the offsets carrying its
    letter and to sink m elsewhere, 0 moves to sink m and T to sink m + 1,
    and every other member moves at the same offset.  The offsets from
    which a letter step lands in a mask B are its pre-image
    (B >> 1) | ((B >> s) & 1) << (n - 1), with s = |stem| and n = |stem| +
    |loop|, masked with the letter's offsets.  The recursion is
    solve_zielonka's, attractor for attractor, so the winning regions are
    the same, and it cannot take more steps than the explicit solver.

    Nested fixpoint iteration over the same masks, the textbook symbolic
    route, was measured first and rejected: each fixpoint restarts its
    inner ones, and a letter step moves a mask by one offset per round, so
    block-structured words blow up.  Alternation depth 6 over the 120-letter
    loop (f^20 e^20 d^20 c^20 b^20 a^20)^w took 12.1 s against 0.003 s for
    the explicit game, and the 240-letter loop ran past 60 s."""
    fl = fl_closure(e)
    m, n, s = len(fl.members), w.n_offsets(), len(w.stem)
    full, last = (1 << n) - 1, n - 1
    lose, win = m, m + 1
    word = w.stem + w.loop
    offsets = {}  # letter -> the offsets that carry it
    # per member: its moves as (target, letter step?, offsets where it exists)
    moves = []
    for f, targets in zip(fl.members, fl.succ):
        if isinstance(f, Letter):
            here = offsets.get(f.letter)
            if here is None:
                here = offsets[f.letter] = sum(1 << o for o, c in enumerate(word) if c == f.letter)
            moves.append(((targets[0], True, here), (lose, False, full & ~here)))
        elif targets:
            moves.append(tuple((t, False, full) for t in targets))
        else:
            moves.append(((win if isinstance(f, Top) else lose, False, full),))
    moves += [((lose, False, full),), ((win, False, full),)]
    is_e = [not isinstance(f, (Top, Cap)) for f in fl.members] + [True, True]
    prio = default_coloring(fl) + (1, 0)
    pred = [[] for _ in moves]
    for k, ms in enumerate(moves):
        for t in {t for t, _, _ in ms}:
            pred[t].append(k)

    def attract(target, to_e, region):
        """The offsets of region from which the player (Eloise iff to_e)
        forces a visit to target: the player's position joins when one of
        its moves lands in the attractor, the opponent's when none of its
        moves that stay in the region lands outside it."""
        attr = list(target)
        work = [k for k, a in enumerate(attr) if a]
        queued = [bool(a) for a in attr]
        while work:
            t = work.pop()
            queued[t] = False
            for k in pred[t]:
                free = region[k] & ~attr[k]
                if not free:
                    continue
                # the player's offsets with a move into the attractor, or
                # the opponent's with a move that stays out of it
                own = is_e[k] == to_e
                got = 0
                for u, step, where in moves[k]:
                    b = attr[u] if own else region[u] & ~attr[u]
                    if step:
                        b = (b >> 1) | ((b >> s) & 1) << last
                    got |= b & where
                got = got & free if own else ~got & free
                if got:
                    attr[k] |= got
                    if not queued[k]:
                        queued[k] = True
                        work.append(k)
        return attr

    def solve(region):
        """Eloise's winning offsets in the subgame on region; Abelard wins
        the rest of it."""
        live = [k for k, r in enumerate(region) if r]
        if not live:
            return region
        d = min(prio[k] for k in live)
        to_e = d % 2 == 0
        a = attract([r if prio[k] == d else 0 for k, r in enumerate(region)], to_e, region)
        sub = [r & ~x for r, x in zip(region, a)]
        w_e = solve(sub)
        w_other = [r & ~x for r, x in zip(sub, w_e)] if to_e else w_e
        if not any(w_other):
            return region if to_e else [0] * len(region)
        b = attract(w_other, not to_e, region)
        w_e = solve([r & ~x for r, x in zip(region, b)])
        return w_e if to_e else [x | y for x, y in zip(b, w_e)]

    return solve([full] * (m + 2))[:m]


def suffixes_in(w: UPWord, e: Expr) -> bytes:
    """One byte per offset o of the word: 1 iff the suffix at o lies in the
    language of the closed expression e, read off the winning offsets of
    the root (a closure lists its root first)."""
    root = winning_offsets(w, e)[0]
    return bytes((root >> o) & 1 for o in range(w.n_offsets()))


def member(w: UPWord, e: Expr) -> bool:
    """True iff the word lies in the language of the closed expression e."""
    e = canonical(e)
    if free_vars(e):
        raise ValueError("member requires a closed expression; free: %s" % ", ".join(sorted(free_vars(e))))
    return winning_offsets(w, e)[0] & 1 == 1
