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

member solves the game symbolically (winning_offsets): the offsets where
Eloise wins from a closure member form one int bitmask, a letter move is a
shift of it, and Zielonka's recursion runs over lists of such masks, one per
member.  No position is ever laid out, so one solve answers membership for
every suffix of the word and every closure member, and words laid end to
end in the masks are solved at once.  `corpus run` checks both layouts, one
solve per expression over its words laid end to end, against the fixpoint
semantics of every member, and the tests against an explicit game solve.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .automaton import default_coloring
from .expr import Alphabet, Cap, Expr, Letter, ParseError, Top, fl_closure, require_closed


@dataclass(frozen=True, slots=True)
class UPWord:
    """An ultimately periodic word stem(loop)^w over an alphabet: a frozen
    dataclass, so it is immutable and compares and hashes by value."""

    stem: str
    loop: str
    alphabet: Alphabet

    def __post_init__(self):
        if not self.loop:
            raise ValueError("loop must be nonempty")
        for c in self.stem + self.loop:
            if c not in self.alphabet:
                raise ValueError("letter %r is not in alphabet %s" % (c, self.alphabet))

    def n_offsets(self) -> int:
        return len(self.stem) + len(self.loop)

    def letter_at(self, i: int) -> str:
        if i < len(self.stem):
            return self.stem[i]
        return self.loop[(i - len(self.stem)) % len(self.loop)]

    def advance(self, i: int) -> int:
        j = i + 1
        return j if j < self.n_offsets() else len(self.stem)

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


def winning_offsets(words, e: Expr) -> list:
    """Solve the evaluation game of a closed expression on words laid end
    to end over bitmasks of offsets: word i's offset o is bit base_i + o,
    with base_i the sum of the earlier words' n_offsets(), and that bit of
    the k-th int is 1 iff Eloise wins from (o, fl.members[k]) on word i,
    that is, iff the suffix of word i at o lies in the language of that
    member.  No move leaves a word, so the game is the disjoint union of
    the words' games and each word's bits are those of its own solve;
    member solves the batch (w,).

    A region is a list of m + 2 ints, one offset mask per closure member
    plus two sinks that loop on themselves at every offset: m, where Eloise
    loses (priority 1), and m + 1, where she wins (priority 0).  The moves
    are read from the closure numbering (fl.succ) and owners and priorities
    from the members and their colouring: a letter member steps to its body
    at the offsets carrying its letter and to sink m elsewhere, 0 moves to
    sink m and T to sink m + 1, and every other member moves at the same
    offset.  The offsets from which a letter step lands in a mask B are its
    pre-image ((B >> 1) & KEEP) | OR over loop lengths L of
    ((B & START_L) << (L - 1)), masked with the letter's offsets, where KEEP
    clears each word's last offset and START_L marks the loop start of each
    word whose loop has length L.  The recursion is Zielonka's, attractor
    for attractor, so it takes no more steps than the recursion over
    explicit positions.

    Nested fixpoint iteration over the same masks, the textbook symbolic
    route, was measured first and rejected: each fixpoint restarts its
    inner ones, and a letter step moves a mask by one offset per round, so
    block-structured words blow up.  Alternation depth 6 over the 120-letter
    loop (f^20 e^20 d^20 c^20 b^20 a^20)^w took 12.1 s against 0.003 s for
    the explicit game, and the 240-letter loop ran past 60 s.  On the short
    words of `corpus run` it is cheap, and there it is the oracle these
    masks are checked against (corpus.membership_mismatches)."""
    fl = fl_closure(e)
    m = len(fl.members)
    word = "".join(w.stem + w.loop for w in words)
    full = (1 << len(word)) - 1
    keep, starts, base = full, {}, 0
    for w in words:
        base += w.n_offsets()
        keep &= ~(1 << (base - 1))
        starts[len(w.loop)] = starts.get(len(w.loop), 0) | 1 << (base - len(w.loop))
    wraps = tuple((start, size - 1) for size, start in starts.items())
    lose, win = m, m + 1
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
                        b, c = (b >> 1) & keep, b
                        for start, shift in wraps:
                            b |= (c & start) << shift
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


def member(w: UPWord, e: Expr) -> bool:
    """True iff the word lies in the language of the closed expression e."""
    require_closed(e, "member")
    return winning_offsets((w,), e)[0] & 1 == 1
