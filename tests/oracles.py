"""Independent test oracles, random generators and test-only algorithms.

- member_denotational computes the language semantics directly: for an
  ultimately periodic word the set of distinct suffixes is finite (one per
  offset of stem+loop), every operator restricts to subsets of that finite
  set, and mu/nu are literal Knaster-Tarski iterations.  It shares no code
  with the game-based membership of rll.semantics, which it cross-checks.
- gen_expr, gen_guarded_expr, gen_word and gen_guarded_sequent draw random
  expressions, guarded expressions, words and guarded sequents.
  alt_text and conj_text write the high-alternation expressions of the
  deep membership rows as parser text.
- ref_free_vars, ref_equal, ref_canonical, ref_unfold, ref_subformula_leq
  and ref_sort_key are plain recursive copies of the term facts that
  rll.expr memoises per interned node.  ref_letters walks a term for its
  letters, which rll.expr reads off the term's closure.  ref_complement
  renames every complement with ref_canonical, where rll.expr builds the
  complement of a canonical term canonical.
- fl_leq, fl_lt and compare_dependency are the closure preorder and the
  dependency order on expressions.
- RuleInstance is one rule application over sequents, and the
  sequent-level view of a numbered graph lives here with it: sequent_of(p,
  v) is node v's Sequent, instances(p) holds each node's rule instance,
  and table_sequent and principal_of read a mask pair and a principal code
  back over a FormulaTable.  rll reads nodes as masks and builds none of
  these.  all_live(p) is a live table in which every node is live, over
  which build_trace_automaton gives the whole graph's automaton.
- ref_saturation_instances dedups the rule instances of saturated graphs
  as sequents, while rll.corpus.saturation_instances moves every graph's
  masks onto one shared table and dedups mask tuples; sequent_instances
  and mask_instances carry instances between the two forms, and the tests
  require the same instances in the same order from both.
- make_instance builds the rule instance at a sequent over the table of
  its conclusion's formulas, applicable_steps lists every rule instance
  that concludes a sequent, and validate_instance checks one against the
  mask rule schema of rll.calculus over its conclusion's formula table.
- from_records numbers a proof graph from records that hold a Sequent
  each, and graph_of builds one from rule instances; unroll_edge
  duplicates the target of one proof edge, which must leave every checking
  verdict unchanged.
- ref_parse_proof reads a proof file by building a Sequent per record and
  numbering the closure of every cedent formula; rll.proof parses only the
  root's formulas, resolves every other text by its printed form and
  builds no Sequent, and the tests require the same graph and the same
  error text from both.
- ref_expected_premisses, ref_violation and ref_check_local state every
  rule's schema over sequents, premiss by premiss, and ref_strategy_step
  and ref_saturate run the search strategy over interned sequents.
  rll.calculus states the schema once, over mask pairs of a formula table,
  and rll.decide saturates over those mask pairs; the tests require the
  same graphs and the same violation texts from both.
- complement_buchi is rank-based Büchi complementation over labelled
  automata, the reference that the profile-based progress search of
  rll.proof is checked against; one_node_automaton presents a labelled
  automaton in the numbered form that search reads.
- ref_immediate_ancestry lists formula ancestry as edges tagged with their
  kind (principal, letter or identity), and ref_grouped_ancestry groups
  them per conclusion formula.  rll.calculus states only the rule facts,
  premiss_letters and the formula table's auxiliary masks, and rll.proof
  reads each state's descent off them as a bitmask over the table's formula
  numbers, with no ancestry table.
- ref_trace_automaton builds the trace automaton of a proof graph as a
  labelled automaton, state by state, over ref_grouped_ancestry; rll.proof
  numbers its states per node, builds each edge's reach rows directly and
  keeps no labels.  Both walk the states breadth-first, so
  ref_numbered_states, which lists the reference's states per node in
  discovery order, names the TraceState that each numbered state of
  rll.proof tracks.
- build_eval_game numbers the evaluation game of rll.semantics end to end,
  with no label layer: positions are 0..n-1, held as arrays of owner,
  priority and successor numbers, and (o, fl.members[k]) is number
  o*|fl| + k, read straight off the closure's own numbering (fl.succ) and
  colouring.  solve_zielonka, Zielonka's recursive attractor solver,
  returns per-position arrays: a winner byte for each position and a
  winning move wherever the position's owner wins.  Those moves are
  positional strategies, and first_uncertified checks them as a
  certificate of every reported winner.  This explicit game is the
  reference that the bitmask solver of rll.semantics (winning_offsets) is
  compared with at every offset and closure member; the product lays out
  no position.
- labelled_game numbers a parity game given as labelled dicts, checking
  them first; build_eval_game builds numbered arrays only.  ref_eval_game
  builds the evaluation game as labelled dicts over EvalPosition labels,
  position by position, each move derived from the member's constructor;
  build_eval_game fills the numbered arrays directly from the closure's
  numbering.
- ref_acceptance_game builds the acceptance game of an alternating parity
  automaton on a word from the automaton's own states and transitions;
  since the automaton is the numbered closure, it must equal the
  evaluation game array for array.
- solve_spm is Jurdzinski's small-progress-measures solver, with its own
  deadlock sinks; it shares no code with solve_zielonka, and the tests
  compare their winners on small games.
- ref_find_unaccepted_branch is the progress search of rll.proof as one
  full pass: loops start at every node of a cyclic SCC, every witness is a
  whole edge tuple, and each loop key holds its (R, A) matrices, composed
  afresh on every step.  rll.proof interns each profile as an int, composes
  each (profile, edge) pair once, decides the verdict over feedback nodes
  and runs the full search, with an early exit, only on a rejection; the
  two must return the same lasso.
- ref_live_nodes lists the nodes from which a cycle can be reached, by
  plain reachability: a node lies on a cycle when a search from its
  children finds it again, and a node is live when a search from it finds
  such a node.  rll.proof reads liveness off its one Tarjan pass and builds
  check's trace automaton and stems over live nodes only; the tests require
  the same nodes from both.
- ref_soundness_violations samples rule instances word by word, while
  rll.corpus reads every formula's truth off one winning_offsets solve over
  all the sampled words and evaluates each sequent at every word at once,
  as masks over the word indices: here each sequent is evaluated formula
  by formula, letter rules take a branch of their own, and membership is
  member_denotational, memoised per (word, formula).  The two must return
  the same failures in the same order.
- ref_membership_mismatches runs the membership row sample by sample:
  each sample's expression is closed, complemented and solved again, one
  word per solve.  rll.corpus solves each distinct expression once over
  its distinct words laid end to end and evaluates each distinct pair
  once; the two must return the same lines in the same order.  The
  reference draws with ref_random_expression, which names binders as the
  user would, and renames the draw with canonical, where rll.corpus draws
  terms canonical as built; and it evaluates with ref_fixpoint_offsets,
  which reads each letter off the word at every letter node, where
  rll.corpus reads a table per word and keeps each closed subterm's value.
  ref_closed_form_failures makes one member call per sampled word and
  constant, where rll.corpus solves each constant once over the sampled
  words laid end to end.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Optional, Tuple, Union

from rll.calculus import (
    LOGICAL_RULE,
    PRINCIPAL_RULES,
    FormulaTable,
    Sequent,
    canonical_rule_name,
    is_rule_name,
    premiss_masks,
    schema_violation,
)
from rll.decide import BudgetExceededError, saturate
from rll.corpus import (
    ALPHABET,
    CLOSED_FORM_WORDS,
    CLOSED_FORMS,
    EXPRESSIONS,
    MEMBERSHIP_SAMPLES,
    SOUNDNESS_WORDS,
    sample_word,
)
from rll.expr import (
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
    Var,
    Zero,
    canonical,
    complement,
    expr_sort_key,
    fl_closure,
    parse,
    pretty,
    subformula_leq,
    unfold,
)
from rll.automaton import default_coloring
from rll.proof import ProofGraph, TraceAutomaton, _after_keyword, tarjan
from rll.semantics import UPWord, member, parse_word, winning_offsets
from golden.scale import trace_state_counts


def member_denotational(stem: str, loop: str, e) -> bool:
    """True iff stem(loop)^w lies in the language of closed expression e,
    by direct fixpoint computation over the word's finite suffix set."""
    if not loop:
        raise ValueError("loop must be nonempty")
    n = len(stem) + len(loop)
    full = frozenset(range(n))

    def letter_at(i):
        return stem[i] if i < len(stem) else loop[(i - len(stem)) % len(loop)]

    def adv(i):
        j = i + 1
        return j if j < n else len(stem)

    def sem(t, env):
        if isinstance(t, Var):
            return env[t.name]
        if isinstance(t, Zero):
            return frozenset()
        if isinstance(t, Top):
            return full
        if isinstance(t, Letter):
            body = sem(t.body, env)
            return frozenset(o for o in range(n) if letter_at(o) == t.letter and adv(o) in body)
        if isinstance(t, Plus):
            return sem(t.left, env) | sem(t.right, env)
        if isinstance(t, Cap):
            return sem(t.left, env) & sem(t.right, env)
        # fixpoints: iterate from the extremal element
        cur = frozenset() if isinstance(t, Mu) else full
        while True:
            inner = dict(env)
            inner[t.var] = cur
            nxt = sem(t.body, inner)
            if nxt == cur:
                return cur
            cur = nxt

    return 0 in sem(e, {})


# ---------------------------------------------------------------------------
# Random generators (all take an explicit random.Random)


def gen_expr(rng, alphabet: Alphabet, size: int, scope=(), letters=True):
    """A random expression with at most `size` AST nodes; closed when scope
    is empty.  Bound variables are drawn from a small uppercase pool."""
    choices = ["zero", "top", "plus", "cap", "mu", "nu"]
    if letters:
        choices += ["letter", "letter"]
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
        return Var(rng.choice(list(scope)))
    if kind == "letter":
        return Letter(rng.choice(alphabet), gen_expr(rng, alphabet, size - 1, scope, letters))
    if kind in ("plus", "cap"):
        ls = rng.randint(1, max(1, size - 2))
        left = gen_expr(rng, alphabet, ls, scope, letters)
        right = gen_expr(rng, alphabet, size - 1 - ls, scope, letters)
        return (Plus if kind == "plus" else Cap)(left, right)
    var = rng.choice(["P", "Q", "R", "S"])
    body = gen_expr(rng, alphabet, size - 1, tuple(scope) + (var,), letters)
    return (Mu if kind == "mu" else Nu)(var, body)


def gen_word(rng, alphabet: Alphabet, max_stem=3, max_loop=3):
    """A random (stem, loop) pair with the given size bounds."""
    stem = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, max_stem)))
    loop = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, max_loop)))
    return stem, loop


def alt_text(d: int) -> str:
    """nu X0. mu X1. ... (a X0 + ... + l X(d-1)) over the first d letters of
    abcdef: the least letter seen infinitely often has an even index."""
    body = " + ".join("%s X%d" % ("abcdef"[i], i) for i in range(d))
    for i in reversed(range(d)):
        body = "%s X%d. (%s)" % ("mu" if i % 2 else "nu", i, body)
    return body


def conj_text(k: int) -> str:
    """Each of the first k letters of abcdef infinitely often: the
    intersection of one nu X. mu Y. (l X + others Y) per letter l."""
    letters = "abcdef"[:k]
    return " & ".join(
        "(nu X. mu Y. (%s X%s))" % (a, "".join(" + %s Y" % b for b in letters if b != a)) for a in letters
    )


def gen_guarded_expr(rng, alphabet: Alphabet, size: int, guarded=(), exposed=()):
    """A random closed guarded expression with at most `size` AST nodes.  A
    bound variable is drawn only from `guarded`, the variables with a letter
    between their binder and here; `exposed` are the others."""
    choices = ["var", "var", "var"] if guarded else []
    if size > 1:
        choices += ["letter", "letter", "plus", "plus", "cap", "mu", "mu", "nu", "nu"]
        choices += ["letter"] * (4 if exposed else 1)
    if size <= 1 or rng.random() < 0.1:
        choices += ["zero", "top"]
    kind = rng.choice(choices)
    if kind == "zero":
        return Zero()
    if kind == "top":
        return Top()
    if kind == "var":
        return Var(rng.choice(guarded))
    if kind == "letter":
        body = gen_guarded_expr(rng, alphabet, size - 1, guarded + exposed)
        return Letter(rng.choice(alphabet), body)
    if kind in ("plus", "cap"):
        ls = rng.randint(1, max(1, size - 2))
        left = gen_guarded_expr(rng, alphabet, ls, guarded, exposed)
        right = gen_guarded_expr(rng, alphabet, max(1, size - 1 - ls), guarded, exposed)
        return (Plus if kind == "plus" else Cap)(left, right)
    var = "X%d" % (len(guarded) + len(exposed))
    body = gen_guarded_expr(rng, alphabet, size - 1, guarded, exposed + (var,))
    return (Mu if kind == "mu" else Nu)(var, body)


def gen_guarded_sequent(rng, alphabet: Alphabet, max_size=8, max_side=2):
    """A random sequent of closed guarded expressions with at most
    `max_size` AST nodes each and at most `max_side` on each side."""

    def side():
        n = rng.randint(0, max_side)
        return {gen_guarded_expr(rng, alphabet, rng.randint(1, max_size)) for _ in range(n)}

    return Sequent(side(), side(), alphabet)


# ---------------------------------------------------------------------------
# The explicit evaluation game, Zielonka's solver over it and the certificate
# of its strategies


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
    comps = tarjan(plays, game.positions, set())
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
        comps = tarjan(plays, rest, set())
    return min(failed, default=None)


def labelled_game(positions, owner, moves, priority):
    """Number a parity game given as labelled dicts (owner "E" or "A"; a
    position missing from `moves` has none, a deadlock) in the order of
    `positions`; returns (labels, game) with labels[p] the label of p.
    Raises ValueError on repeated positions, a missing owner or priority,
    or a move that leaves the arena."""
    labels = tuple(positions)
    number = {p: i for i, p in enumerate(labels)}
    if len(number) != len(labels):
        raise ValueError("positions must be distinct")
    for p in labels:
        if owner.get(p) not in ("E", "A"):
            raise ValueError("position %r lacks an owner" % (p,))
        if p not in priority or priority[p] < 0:
            raise ValueError("position %r lacks a priority" % (p,))
        if not all(q in number for q in moves.get(p, ())):
            raise ValueError("move from %r leaves the arena" % (p,))
    is_e = bytes(owner[p] == "E" for p in labels)
    prio = tuple(priority[p] for p in labels)
    out = tuple(tuple(number[q] for q in moves.get(p, ())) for p in labels)
    return labels, ParityGame(is_e, prio, out)


class EvalPosition(NamedTuple):
    offset: int
    formula: Expr


def ref_eval_game(w, e):
    """The evaluation game of a closed expression on a word as the
    (positions, owner, moves, priority) arguments of labelled_game, built one
    EvalPosition at a time."""
    fl = fl_closure(e)
    positions = []
    owner = {}
    moves = {}
    priority = {}
    for o in range(w.n_offsets()):
        for f, colour in zip(fl.members, default_coloring(fl)):
            pos = EvalPosition(o, f)
            positions.append(pos)
            priority[pos] = colour
            owner[pos] = "A" if isinstance(f, (Top, Cap)) else "E"
            if isinstance(f, Letter):
                moves[pos] = (EvalPosition(w.advance(o), f.body),) if w.letter_at(o) == f.letter else ()
            elif isinstance(f, (Plus, Cap)):
                moves[pos] = (EvalPosition(o, f.left), EvalPosition(o, f.right))
            elif isinstance(f, (Mu, Nu)):
                moves[pos] = (EvalPosition(o, unfold(f)),)
            else:  # 0 or T
                moves[pos] = ()
    return positions, owner, moves, priority


def ref_acceptance_game(apa, w) -> ParityGame:
    """The acceptance game of an automaton (rll.automaton.Apa) on an
    ultimately periodic word: (offset o, state k) is position o*|states| + k,
    owned by Abelard iff state k is universal and coloured like it; an
    epsilon transition stays at o, a letter transition that matches the
    letter at o moves to the next offset, and one that does not is no move."""
    by_source = [[] for _ in apa.states]
    for src, letter, dst in apa.transitions:
        by_source[src].append((letter, dst))
    m, n = len(apa.states), w.n_offsets()
    out = []
    for o in range(n):
        here, there, c = o * m, w.advance(o) * m, w.letter_at(o)
        for moves in by_source:
            out.append(tuple((here if letter is None else there) + j for letter, j in moves if letter in (None, c)))
    is_e = bytes(1 - u for u in apa.universal)
    return ParityGame(is_e * n, apa.colour * n, tuple(out))


def solve_spm(game: ParityGame) -> bytes:
    """Jurdzinski's small-progress-measures solver; returns winner[p], 1 iff
    Eloise wins from p, over the positions 0..n-1.  Implemented over the
    max-parity mirror of the game.  A deadlock moves to a self-looping sink
    that its owner loses: position n (priority 1) for Eloise, n+1 (priority
    0) for Abelard.  It shares no code with solve_zielonka, so the tests
    cross-check the two; its measures grow with the number of odd
    priorities, so it suits small games only."""
    n = len(game.positions)
    succ = [ms or ((n,) if e else (n + 1,)) for ms, e in zip(game.out, game.is_e)] + [(n,), (n + 1,)]
    is_e = game.is_e + b"\1\1"
    priority = game.prio + (1, 0)
    maxp = max(priority)
    top_even = maxp if maxp % 2 == 0 else maxp + 1
    pr = [top_even - c for c in priority]
    odd_prios = sorted({v for v in pr if v % 2 == 1}, reverse=True)
    counts = {i: pr.count(i) for i in odd_prios}
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

    rho = [bottom] * len(succ)
    pred = [[] for _ in succ]
    for p, ms in enumerate(succ):
        for q in ms:
            pred[q].append(p)

    def lift(v):
        vals = [prog(rho[q], pr[v]) for q in succ[v]]
        best = vals[0]
        for x in vals[1:]:
            if (less(x, best) if is_e[v] else less(best, x)):
                best = x
        return best

    queue = deque(range(len(succ)))
    queued = bytearray(b"\1") * len(succ)
    while queue:
        v = queue.popleft()
        queued[v] = 0
        new = lift(v)
        if less(rho[v], new):
            rho[v] = new
            for u in pred[v]:
                if not queued[u]:
                    queued[u] = 1
                    queue.append(u)
    return bytes(rho[p] is not TOPM for p in game.positions)


# ---------------------------------------------------------------------------
# Reference copies of the structural term facts, written as plain recursive
# walks that compare fields instead of node identity.  rll.expr interns its
# terms and memoises these facts per node; the tests check it against these.


def ref_free_vars(e) -> frozenset:
    if isinstance(e, Var):
        return frozenset((e.name,))
    if isinstance(e, Letter):
        return ref_free_vars(e.body)
    if isinstance(e, (Plus, Cap)):
        return ref_free_vars(e.left) | ref_free_vars(e.right)
    if isinstance(e, (Mu, Nu)):
        return ref_free_vars(e.body) - {e.var}
    return frozenset()


def ref_letters(e) -> frozenset:
    """The letters that occur in e."""
    if isinstance(e, Letter):
        return ref_letters(e.body) | {e.letter}
    if isinstance(e, (Plus, Cap)):
        return ref_letters(e.left) | ref_letters(e.right)
    if isinstance(e, (Mu, Nu)):
        return ref_letters(e.body)
    return frozenset()


def ref_equal(x, y) -> bool:
    """Structural equality: same constructor, same fields, recursively."""
    if type(x) is not type(y):
        return False
    if isinstance(x, Var):
        return x.name == y.name
    if isinstance(x, Letter):
        return x.letter == y.letter and ref_equal(x.body, y.body)
    if isinstance(x, (Plus, Cap)):
        return ref_equal(x.left, y.left) and ref_equal(x.right, y.right)
    if isinstance(x, (Mu, Nu)):
        return x.var == y.var and ref_equal(x.body, y.body)
    return True


def ref_canonical(e):
    """Bound variables renamed ".<n>" by binder depth, numbered above any
    free ".<n>" variable."""
    base = 0
    for v in ref_free_vars(e):
        if v.startswith(".") and v[1:].isdigit():
            base = max(base, int(v[1:]) + 1)

    def go(t, depth, env):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, Letter):
            return Letter(t.letter, go(t.body, depth, env))
        if isinstance(t, (Plus, Cap)):
            return type(t)(go(t.left, depth, env), go(t.right, depth, env))
        if isinstance(t, (Mu, Nu)):
            fresh = ".%d" % (base + depth)
            return type(t)(fresh, go(t.body, depth + 1, {**env, t.var: fresh}))
        return t

    return go(e, 0, {})


def ref_unfold(e):
    """sigma X. f  ->  f[X := sigma X. f], substituted in ref_canonical(e)
    and renamed again; an inner binder of X's name stops the substitution."""
    c = ref_canonical(e)

    def sub(t):
        if isinstance(t, Var):
            return c if t.name == c.var else t
        if isinstance(t, Letter):
            return Letter(t.letter, sub(t.body))
        if isinstance(t, (Plus, Cap)):
            return type(t)(sub(t.left), sub(t.right))
        if isinstance(t, (Mu, Nu)):
            return t if t.var == c.var else type(t)(t.var, sub(t.body))
        return t

    return ref_canonical(sub(c.body))


def ref_complement(e, alphabet: Alphabet):
    """The syntactic complement, dualised node by node and then renamed by
    ref_canonical, whatever the input: the path that rll.expr.complement
    keeps for input that is not canonical, without the canonical forms that
    rll.expr keeps per node."""

    def go(t):
        if isinstance(t, Var):
            return t
        if isinstance(t, (Zero, Top)):
            return TOP if isinstance(t, Zero) else ZERO
        if isinstance(t, (Plus, Cap)):
            return (Cap if isinstance(t, Plus) else Plus)(go(t.left), go(t.right))
        if isinstance(t, (Mu, Nu)):
            return (Nu if isinstance(t, Mu) else Mu)(t.var, go(t.body))
        if t.letter not in alphabet:
            raise ValueError("letter %r is not in alphabet %s" % (t.letter, alphabet))
        out = Letter(t.letter, go(t.body))
        for b in alphabet:
            if b != t.letter:
                out = Plus(out, Letter(b, TOP))
        return out

    return ref_canonical(go(e))


def ref_subformula_leq(f, g) -> bool:
    """Some subterm of g is f, both compared after canonical renaming."""
    target = ref_canonical(f)

    def walk(t):
        # renaming keeps each constructor, so only a subterm of f's kind is renamed
        if type(t) is type(target) and ref_equal(ref_canonical(t), target):
            return True
        if isinstance(t, Letter):
            return walk(t.body)
        if isinstance(t, (Plus, Cap)):
            return walk(t.left) or walk(t.right)
        if isinstance(t, (Mu, Nu)):
            return walk(t.body)
        return False

    return walk(ref_canonical(g))


def ref_sort_key(e):
    """(constructor rank, child keys, letter or variable name)."""
    if isinstance(e, Zero):
        return (0, (), "")
    if isinstance(e, Top):
        return (1, (), "")
    if isinstance(e, Var):
        return (2, (), e.name)
    if isinstance(e, Letter):
        return (3, (ref_sort_key(e.body),), e.letter)
    if isinstance(e, Plus):
        return (4, (ref_sort_key(e.left), ref_sort_key(e.right)), "")
    if isinstance(e, Cap):
        return (5, (ref_sort_key(e.left), ref_sort_key(e.right)), "")
    if isinstance(e, Mu):
        return (6, (ref_sort_key(e.body),), e.var)
    return (7, (ref_sort_key(e.body),), e.var)


# ---------------------------------------------------------------------------
# Orders on closure members


def fl_leq(f, g) -> bool:
    """True if g reaches f in zero or more closure steps."""
    return canonical(f) in fl_closure(g).members


def fl_lt(f, g) -> bool:
    """Strict version of fl_leq: g reaches f but not conversely."""
    return fl_leq(f, g) and not fl_leq(g, f)


def compare_dependency(e, f) -> str:
    """Compare in the dependency order: one of 'equal', 'less', 'greater',
    'incomparable'.  e comes strictly before f when e is strictly below f in
    the closure preorder, or the two are mutually reachable and f is a
    subterm of e."""
    ec, fc = canonical(e), canonical(f)
    if ec == fc:
        return "equal"

    def strictly_before(x, y):
        if fl_lt(x, y):
            return True
        return fl_leq(x, y) and fl_leq(y, x) and subformula_leq(y, x)

    if strictly_before(ec, fc):
        return "less"
    if strictly_before(fc, ec):
        return "greater"
    return "incomparable"


# ---------------------------------------------------------------------------
# Rule instances and proof graphs


# ---------------------------------------------------------------------------
# The sequent-level view of masks and proof graphs


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
        object.__setattr__(self, "rule", canonical_rule_name(self.rule))
        if isinstance(self.principal, Expr):
            object.__setattr__(self, "principal", canonical(self.principal))


def table_sequent(table: FormulaTable, lhs: int, rhs: int) -> Sequent:
    """The sequent whose cedents are these masks over the table."""
    formula = table.formulas.__getitem__
    return Sequent(map(formula, table.numbers(lhs)), map(formula, table.numbers(rhs)), table.alphabet)


def principal_of(table: FormulaTable, code):
    """The principal that a code names: FormulaTable.code's inverse."""
    return table.formulas[code] if type(code) is int else code


def sequent_of(p: ProofGraph, v: int) -> Sequent:
    """The sequent of node v of p."""
    return table_sequent(p.table, p.lhs[v], p.rhs[v])


def instances(p: ProofGraph):
    """Per node of p, its rule instance, whose premisses are its children's
    sequents."""
    sequents = [sequent_of(p, v) for v in range(len(p.order))]
    return tuple(
        RuleInstance(rule, s, principal_of(p.table, code), tuple(map(sequents.__getitem__, kids)))
        for rule, s, code, kids in zip(p.rule, sequents, p.principal, p.children)
    )


def all_live(p: ProofGraph):
    """A live table of p, in the form of rll.proof._components, in which
    every node is live: build_trace_automaton over it gives the automaton
    of the whole graph."""
    return [1] * len(p.order)


def ref_saturation_instances(sequents):
    """rll.corpus.saturation_instances over sequents: every distinct rule
    instance of the sequents' saturated graphs, deduped by value in
    first-seen order."""
    return tuple(dict.fromkeys(inst for s in sequents for inst in instances(saturate(s))))


def mask_instances(rule_instances):
    """The formula table of the closure of the instances' formulas, over
    ALPHABET, and each instance over it in the form of
    rll.corpus.saturation_instances: (rule, principal code, (lhs, rhs),
    premiss mask pairs)."""
    table = FormulaTable(
        {f for r in rule_instances for s in (r.conclusion, *r.premisses) for f in s.lhs | s.rhs}, ALPHABET)
    return table, tuple(
        (r.rule, table.code(r.principal), table.masks(r.conclusion), tuple(map(table.masks, r.premisses)))
        for r in rule_instances
    )


def sequent_instances(table: FormulaTable, masked):
    """Instances in the form of rll.corpus.saturation_instances, over the
    table, as RuleInstances."""
    return tuple(
        RuleInstance(rule, table_sequent(table, *conclusion), principal_of(table, code),
                     tuple(table_sequent(table, *m) for m in premisses))
        for rule, code, conclusion, premisses in masked
    )


def applicable_steps(s):
    """All rule instances concluding s, duplicate-free, ordered by rule name
    and then by principal formula."""
    tries = [(rule, e) for rule in PRINCIPAL_RULES for e in s.lhs | s.rhs]
    tries += [("h_" + a, a) for a in s.alphabet] + [("l-p", None), ("r-p", None)]
    out = []
    for rule, principal in tries:
        try:
            out.append(make_instance(rule, s, principal))
        except ValueError:
            pass
    return sorted(
        out,
        key=lambda r: (r.rule, expr_sort_key(r.principal) if isinstance(r.principal, Expr) else ()),
    )


def validate_instance(r):
    """rll.calculus.schema_violation of a rule instance, over the table of
    its sequents' formulas: None when the instance matches its rule's
    schema, otherwise a description of the violation."""
    s = r.conclusion
    table = FormulaTable({f for p in (s, *r.premisses) for f in p.lhs | p.rhs}, s.alphabet)
    premisses = tuple(map(table.masks, r.premisses))
    return schema_violation(table, r.rule, *table.masks(s), table.code(r.principal), premisses)


def make_instance(rule: str, conclusion: Sequent, principal=None) -> RuleInstance:
    """Build the rule instance with the given conclusion and principal,
    raising ValueError when the rule does not apply: premiss_masks over the
    table of the conclusion's formulas."""
    rule = canonical_rule_name(rule)
    table = FormulaTable(conclusion.lhs | conclusion.rhs, conclusion.alphabet)
    premisses = premiss_masks(table, rule, *table.masks(conclusion), table.code(principal))
    return RuleInstance(rule, conclusion, principal, tuple(table_sequent(table, *m) for m in premisses))


def from_records(records, root: str) -> ProofGraph:
    """Number records (name, Sequent, rule, principal, children names)
    over the table of the closure of their formulas.  Checks the structure
    (distinct names, known children, reachability, the root's alphabet
    everywhere) and raises ValueError."""
    records = list(records)
    number = {}
    for nid, *_ in records:
        if nid in number:
            raise ValueError("duplicate node id %r" % nid)
        number[nid] = len(number)
    if root not in number:
        raise ValueError("root %r is not a node" % root)
    alphabet = records[number[root]][1].alphabet
    children = []
    for nid, s, _, _, kids in records:
        if s.alphabet != alphabet:
            raise ValueError("node %r: alphabet differs from the root's" % nid)
        for cid in kids:
            if cid not in number:
                raise ValueError("node %r references unknown child %r" % (nid, cid))
        children.append(tuple(number[cid] for cid in kids))
    reached = bytearray(len(records))
    for comp in tarjan(children, [number[root]], set()):
        for v in comp:
            reached[v] = 1
    unreachable = [nid for (nid, *_), r in zip(records, reached) if not r]
    if unreachable:
        raise ValueError("unreachable nodes: %s" % ", ".join(unreachable))
    table = FormulaTable(set().union(*(s.lhs | s.rhs for _, s, *_ in records)), alphabet)
    lhs, rhs = zip(*(table.masks(s) for _, s, *_ in records))
    rules = [canonical_rule_name(rule) for _, _, rule, _, _ in records]
    principals = [table.code(pr) for *_, pr, _ in records]
    return ProofGraph(table, list(number), lhs, rhs, rules, principals, children, number[root])


def graph_of(nodes, root):
    """from_records over (name, RuleInstance, children names)
    triples.  A graph's premisses are its children's sequents, so the
    instances' own premisses are not read."""
    return from_records(
        [(nid, inst.conclusion, inst.rule, inst.principal, kids) for nid, inst, kids in nodes], root)


def unroll_edge(p, parent: int, index: int):
    """Duplicate the target of one edge: node parent's index-th child
    becomes a fresh copy of the old child (same rule, same children, its
    name primed), and any node left unreachable is dropped.  The branch
    language is unchanged, so every checking verdict must be too."""
    child = p.children[parent][index]
    fresh = len(p.order)
    name = p.order[child] + "'"
    while name in p.order:
        name += "'"
    names = p.order + (name,)
    copied = list(range(fresh)) + [child]  # the node whose sequent, rule and principal each node has
    children = [list(kids) for kids in p.children] + [list(p.children[child])]
    children[parent][index] = fresh
    reachable = {p.root}
    queue = [p.root]
    while queue:
        for c in children[queue.pop()]:
            if c not in reachable:
                reachable.add(c)
                queue.append(c)
    records = []
    view = instances(p)
    for v in range(fresh + 1):
        if v in reachable:
            inst = view[copied[v]]
            records.append((names[v], inst.conclusion, inst.rule, inst.principal, tuple(names[c] for c in children[v])))
    return from_records(records, p.order[p.root])


def _parse_sequent_shared(text: str, alphabet: Alphabet, formulas: dict) -> Sequent:
    """rll.calculus.parse_sequent over a dict from formula text to term
    that ref_parse_proof shares across a file's records: a text found there
    is not parsed again, and a new one is parsed and added.  Sequents and
    errors are those of parse_sequent."""
    parts = text.split("|-")
    if len(parts) != 2:
        raise ParseError("a sequent needs exactly one '|-': %r" % text)

    def formula(piece):
        key = piece.strip()
        if key not in formulas:
            formulas[key] = parse(piece, alphabet)
        return formulas[key]

    def cedent(chunk):
        chunk = chunk.strip()
        if not chunk:
            return ()
        return tuple(formula(piece) for piece in chunk.split(","))

    return Sequent(cedent(parts[0]), cedent(parts[1]), alphabet)


def ref_parse_proof(text: str) -> ProofGraph:
    """rll.proof.parse_proof as it was before it read a file straight into
    the numbered graph: every record's sequent is parsed and checked as a
    Sequent, each distinct formula text parsed once, and from_records
    numbers the closure of every cedent formula.  The product must give the
    same graph, field by field, and the same error text."""
    alphabet = None
    records = []  # (nid, sequent_text, rule, principal_text, children ids)
    root = None
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("alphabet:"):
            if alphabet is not None:
                raise ParseError("duplicate alphabet line")
            alphabet = Alphabet(line[len("alphabet:"):].strip())
            continue
        root_text = _after_keyword(line, "root")
        if root_text is not None:
            if root is not None:
                raise ParseError("duplicate root line")
            root = root_text
            continue
        if not line.startswith("node "):
            raise ParseError("unrecognised proof line: %r" % raw_line)
        if alphabet is None:
            raise ParseError("the alphabet line must precede node records")
        head, _, rest = line[len("node "):].partition(":")
        nid = head.strip()
        if not nid:
            raise ParseError("node record without an id: %r" % raw_line)
        parts = [chunk.strip() for chunk in rest.split(";")]
        if len(parts) < 2 or len(parts) > 3:
            raise ParseError("node %s: expected '<sequent> ; rule ... [; children ...]'" % nid)
        sequent_text = parts[0]
        rule_rest = _after_keyword(parts[1], "rule")
        if rule_rest is None:
            raise ParseError("node %s: missing rule clause" % nid)
        if not rule_rest:
            raise ParseError("node %s: empty rule clause" % nid)
        bits = rule_rest.split(None, 1)
        rule = canonical_rule_name(bits[0])
        if not is_rule_name(rule):
            raise ParseError("node %s: unknown rule %r" % (nid, bits[0]))
        principal_text = None
        if len(bits) > 1:
            principal_text = _after_keyword(bits[1], "principal")
            if principal_text is None:
                raise ParseError("node %s: unexpected text after the rule name" % nid)
        kids = ()
        if len(parts) == 3:
            kid_text = _after_keyword(parts[2], "children")
            if kid_text is None:
                raise ParseError("node %s: expected a children clause" % nid)
            if kid_text:
                kids = tuple(k.strip() for k in kid_text.split(","))
        records.append((nid, sequent_text, rule, principal_text, kids))
    if alphabet is None:
        raise ParseError("missing alphabet line")
    if root is None:
        raise ParseError("missing root line")
    if not records:
        raise ParseError("no node records")

    sequents = {}
    formulas = {}  # formula text -> term, so that each distinct text is parsed once
    for nid, sequent_text, _, _, _ in records:
        if nid in sequents:
            raise ParseError("duplicate node id %r" % nid)
        sequents[nid] = _parse_sequent_shared(sequent_text, alphabet, formulas)
    nodes = []
    table = None  # the file's formula table, built for its first omitted principal
    for nid, _, rule, principal_text, kids in records:
        for cid in kids:
            if cid not in sequents:
                raise ParseError("node %s references unknown child %r" % (nid, cid))
        conclusion = sequents[nid]
        if rule.startswith("h_"):
            if principal_text is not None and principal_text != rule[2:]:
                raise ParseError("node %s: %s acts on the letter %r" % (nid, rule, rule[2:]))
            principal = rule[2:]
        elif principal_text in formulas:
            principal = formulas[principal_text]
        elif principal_text is not None:
            principal = parse(principal_text, alphabet)
        elif rule in ("l-p", "r-p"):
            principal = None
        else:  # only a formula of the rule's class on the rule's side can match, and at most one does
            if table is None:
                table = FormulaTable(set().union(*(s.lhs | s.rhs for s in sequents.values())), alphabet)
            lhs, rhs = table.masks(conclusion)
            premisses = tuple(table.masks(sequents[cid]) for cid in kids)
            principal = next((
                table.formulas[n] for n in table.numbers(lhs if PRINCIPAL_RULES[rule][1] == "L" else rhs)
                if schema_violation(table, rule, lhs, rhs, n, premisses) is None
            ), None)
            if principal is None:
                raise ParseError("node %s: principal formula for %s is undetermined; write it explicitly" % (nid, rule))
        nodes.append((nid, conclusion, rule, principal, kids))
    return from_records(nodes, root)


# ---------------------------------------------------------------------------
# The rule schema and the search strategy over sequents


class RefViolation(ValueError):
    pass


def _need(cond, message):
    if not cond:
        raise RefViolation(message)


def ref_expected_premisses(rule, s, principal):
    """The premisses of a canonical rule name at sequent s with this
    principal, as sequents built by the checking constructor, or
    RefViolation naming the side condition that fails."""
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
            return tuple(Sequent(rest | aux, s.rhs, ab) for aux in _ref_auxiliaries(rule, principal))
        return tuple(Sequent(s.lhs, rest | aux, ab) for aux in _ref_auxiliaries(rule, principal))
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
        return tuple(Sequent((), [e.body for e in s.rhs if e.letter == c], ab) for c in ab)
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
    raise RefViolation("unknown rule %r" % rule)


def ref_violation(rule, s, principal, premisses):
    """None when the premisses are the ones ref_expected_premisses gives, or
    the context-dropping form of a +-l; else the violation's text."""
    try:
        expected = ref_expected_premisses(rule, s, principal)
    except RefViolation as v:
        return str(v)
    if premisses == expected:
        return None
    if rule == "+-l" and premisses == (expected[0], Sequent({principal.right}, s.rhs, s.alphabet)):
        return None
    return "premisses do not match the %s schema for this conclusion" % rule


def ref_check_local(p):
    """check_local's violations, node by node, over the graph's sequents."""
    out = []
    for nid, inst in zip(p.order, instances(p)):
        violation = ref_violation(inst.rule, inst.conclusion, inst.principal, inst.premisses)
        if violation is not None:
            out.append("node %s: %s" % (nid, violation))
    return out


def ref_strategy_step(s):
    """The (rule, principal) that the search strategy applies at s."""
    lhs, rhs = s.lhs_sorted, s.rhs_sorted
    for e in lhs:
        if isinstance(e, Zero):
            return "0-l", e
    for f in rhs:
        if isinstance(f, Top):
            return "⊤-r", f
    candidates = [(expr_sort_key(e), "L", e) for e in lhs if not isinstance(e, Letter)]
    candidates += [(expr_sort_key(f), "R", f) for f in rhs if not isinstance(f, Letter)]
    if candidates:
        _, side, e = min(candidates)
        return LOGICAL_RULE[type(e), side], e
    if lhs:
        heads = {e.letter for e in lhs}
        if len(heads) >= 2:
            first = lhs[0]
            second = next(e for e in lhs if e.letter != first.letter)
            for e in lhs:
                if e is not first and e is not second:
                    return "l-w", e
            if rhs:
                return "r-w", rhs[0]
            return "l-p", None
        head = lhs[0].letter
        for f in rhs:
            if f.letter != head:
                return "r-w", f
        return "h_" + head, head
    return "r-p", None


def ref_saturate(s, max_nodes=200000):
    """ref_strategy_step expanded breadth-first, memoising sequents into
    back-edges: per node, in order, (sequent, rule, principal, children
    numbers).  BudgetExceededError past max_nodes sequents."""
    memo = {s: 0}
    queue = [s]
    nodes = []
    for current in queue:  # the queue grows while it is walked
        rule, principal = ref_strategy_step(current)
        kids = []
        for prem in ref_expected_premisses(rule, current, principal):
            if prem not in memo:
                if len(memo) >= max_nodes:
                    raise BudgetExceededError("proof search exceeded %d sequents" % max_nodes)
                memo[prem] = len(memo)
                queue.append(prem)
            kids.append(memo[prem])
        nodes.append((current, rule, principal, tuple(kids)))
    return nodes


# ---------------------------------------------------------------------------
# Labelled Büchi automata and their complementation


class BuchiAutomaton(NamedTuple):
    """A nondeterministic Büchi automaton with an explicit finite alphabet;
    transitions maps (state, letter) to a tuple of successor states."""

    states: tuple
    alphabet: tuple
    transitions: dict
    initials: tuple
    accepting: frozenset

    def successors(self, q, a):
        return self.transitions.get((q, a), ())


def one_node_automaton(b: BuchiAutomaton):
    """b as a numbered automaton over a graph with the one node 0, whose
    j-th edge reads b.alphabet[j] and leads back to 0; state k is
    b.states[k].  Returns that automaton and the graph's children table.
    edges_of(b, word) spells a word over b.alphabet as edges of that
    graph."""
    number = {q: k for k, q in enumerate(b.states)}

    def mask(qs):
        bits = 0
        for q in qs:
            bits |= 1 << number[q]
        return bits

    automaton = TraceAutomaton(
        root=0,
        initials=tuple(number[q] for q in b.initials),
        reach=(tuple(tuple(mask(b.successors(q, a)) for q in b.states) for a in b.alphabet),),
        accepting=(mask(b.accepting),),
    )
    return automaton, ((0,) * len(b.alphabet),)


def edges_of(b: BuchiAutomaton, word):
    return tuple((0, b.alphabet.index(a)) for a in word)


def complement_buchi(b):
    """Rank-based complementation with tight level rankings, ranks bounded by
    2·|states| (Kupferman & Vardi, "Weak alternating automata are not that
    weak", 2001).  Phase one tracks the subset of reachable states; at any
    step the automaton may guess a tight ranking and from then on verify,
    via the odd/even breakpoint discipline, that every run's rank eventually
    decreases forever — which happens exactly when the input word has no
    accepting run."""
    order = {q: i for i, q in enumerate(b.states)}
    max_rank = 2 * len(b.states)

    def subset_succ(S, a):
        out = set()
        for q in S:
            out.update(b.successors(q, a))
        return frozenset(out)

    def tight_rankings(S, caps):
        # all tight rankings g of S with g(q) <= caps[q] and F-states even
        items = sorted(S, key=lambda q: order[q])
        results = []

        def rec(i, partial):
            if i == len(items):
                ranks = partial.values()
                m = max(ranks)
                if m % 2 == 1 and all(r in ranks for r in range(1, m + 1, 2)):
                    results.append(tuple(sorted(((order[q], r) for q, r in partial.items()))))
                return
            q = items[i]
            for r in range(0, caps[q] + 1):
                if q in b.accepting and r % 2 == 1:
                    continue
                partial[q] = r
                rec(i + 1, partial)
            del partial[q]

        if items:
            rec(0, {})
        return results

    def ranking_to_dict(g):
        return {b.states[i]: r for i, r in g}

    init = ("S", frozenset(b.initials))
    states = {init}
    queue = [init]
    transitions = {}
    accepting = set()
    while queue:
        st = queue.pop(0)
        kind = st[0]
        for a in b.alphabet:
            targets = []
            if kind == "S":
                S = st[1]
                S2 = subset_succ(S, a)
                targets.append(("S", S2))
                if S2:
                    caps = {q: max_rank for q in S2}
                    for g in tight_rankings(S2, caps):
                        targets.append(("R", g, frozenset()))
            else:
                _, g, O = st
                f = ranking_to_dict(g)
                S2 = subset_succ(f.keys(), a)
                if not S2:
                    targets.append(("R", (), frozenset()))
                else:
                    caps = {}
                    for q in f:
                        for q2 in b.successors(q, a):
                            caps[q2] = min(caps.get(q2, max_rank), f[q])
                    O_succ = subset_succ(O, a)
                    for g2 in tight_rankings(S2, caps):
                        f2 = ranking_to_dict(g2)
                        if O:
                            O2 = frozenset(q for q in O_succ if f2[q] % 2 == 0)
                        else:
                            O2 = frozenset(q for q in f2 if f2[q] % 2 == 0)
                        targets.append(("R", g2, O2))
            transitions[(st, a)] = tuple(targets)
            for t in targets:
                if t not in states:
                    states.add(t)
                    queue.append(t)
    for st in states:
        if st[0] == "S" and not st[1]:
            accepting.add(st)
        if st[0] == "R" and not st[2]:
            accepting.add(st)
    ordered = sorted(states, key=_complement_state_key)
    return BuchiAutomaton(tuple(ordered), b.alphabet, transitions, (init,), frozenset(accepting))


def _complement_state_key(st):
    if st[0] == "S":
        return (0, tuple(sorted(map(repr, st[1]))))
    return (1, st[1], tuple(sorted(map(repr, st[2]))))


# ---------------------------------------------------------------------------
# Formula ancestry as a list of tagged edges


class AncestryEdge(NamedTuple):
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


def _ref_auxiliaries(rule, p):
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


def ref_immediate_ancestry(r):
    """The descent of premiss formulas from conclusion formulas, as a list of
    edges in a fixed order (premiss, then side, then formula).  A principal
    formula whose auxiliary coincides with a persisting formula yields both
    a principal and an identity edge."""
    edges = []
    if r.rule in ("0-l", "⊤-r", "l-p"):
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
    side = PRINCIPAL_RULES[r.rule][1]
    aux = _ref_auxiliaries(r.rule, r.principal)
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


def ref_grouped_ancestry(r):
    """ref_immediate_ancestry grouped by (premiss index, conclusion side,
    conclusion formula), each group's premiss formulas de-duplicated and
    sorted by expr_sort_key."""
    grouped = {}
    for edge in ref_immediate_ancestry(r):
        key = (edge.premiss_index, edge.conclusion_side, edge.conclusion_formula)
        grouped.setdefault(key, [])
        if edge.premiss_formula not in grouped[key]:
            grouped[key].append(edge.premiss_formula)
    return {key: tuple(sorted(gs, key=expr_sort_key)) for key, gs in grouped.items()}


# ---------------------------------------------------------------------------
# The trace automaton of a proof graph, labelled


class TraceState(NamedTuple):
    node: int
    side: str
    formula: Expr
    phase: str  # "search" | "committed"
    critical: Optional[Expr]


def ref_trace_automaton(p: ProofGraph) -> BuchiAutomaton:
    """The trace automaton of p as a labelled automaton over the edges
    (v, j): states are TraceStates in breadth-first discovery order, and
    a state is found accepting or dead when it is dequeued."""
    view = instances(p)
    anc = [ref_grouped_ancestry(inst) for inst in view]
    alphabet = tuple((v, j) for v, kids in enumerate(p.children) for j in range(len(kids)))

    root_seq = view[p.root].conclusion
    initials = []
    for side, cedent in (("L", root_seq.lhs_sorted), ("R", root_seq.rhs_sorted)):
        for f in cedent:
            initials.append(TraceState(p.root, side, f, "search", None))

    transitions = {}
    accepting = set()
    states = []
    seen = set(initials)
    queue = list(initials)
    while queue:
        st = queue.pop(0)
        states.append(st)
        inst = view[st.node]
        _, rule_side = PRINCIPAL_RULES.get(inst.rule, (None, None))
        if st.phase == "committed" and rule_side == st.side and inst.principal == st.formula:
            if st.formula == st.critical:
                accepting.add(st)
            elif subformula_leq(st.formula, st.critical):
                continue  # the trace unfolds below its critical formula: dead
        for j, child in enumerate(p.children[st.node]):
            targets = []
            for f2 in anc[st.node].get((j, st.side, st.formula), ()):
                if st.phase == "search":
                    targets.append(TraceState(child, st.side, f2, "search", None))
                    may_commit = isinstance(f2, Mu) if st.side == "L" else isinstance(f2, Nu)
                    if may_commit:
                        targets.append(TraceState(child, st.side, f2, "committed", f2))
                else:
                    targets.append(TraceState(child, st.side, f2, "committed", st.critical))
            if targets:
                transitions[(st, (st.node, j))] = tuple(targets)
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        queue.append(t)
    return BuchiAutomaton(tuple(states), alphabet, transitions, tuple(initials), frozenset(accepting))


def ref_numbered_states(ref: BuchiAutomaton, nodes: int):
    """Per node v below `nodes`, the TraceStates of ref_trace_automaton's
    `ref` at v in discovery order.  rll.proof numbers each node's states in
    the order in which one breadth-first walk finds them, the order in
    which the reference dequeues them, so the k-th is state k of v there."""
    numbered = [[] for _ in range(nodes)]
    for st in ref.states:
        numbered[st.node].append(st)
    return numbered


# ---------------------------------------------------------------------------
# Liveness: the nodes from which a cycle can be reached


def _reachable(children, starts) -> set:
    """The nodes that paths of length zero or more from starts reach."""
    seen = set(starts)
    todo = deque(seen)
    while todo:
        for c in children[todo.popleft()]:
            if c not in seen:
                seen.add(c)
                todo.append(c)
    return seen


def ref_live_nodes(children) -> set:
    """The nodes, numbered below len(children), from which some path
    reaches a node that lies on a cycle; a self-loop is a cycle."""
    on_cycle = {v for v in range(len(children)) if v in _reachable(children, children[v])}
    return {v for v in range(len(children)) if not on_cycle.isdisjoint(_reachable(children, [v]))}


# ---------------------------------------------------------------------------
# The progress search, as one full pass


def ref_find_unaccepted_branch(children, automaton: TraceAutomaton):
    """The progress search of rll.proof as one full pass: loops start at
    every node of every cyclic SCC, witnesses are whole edge tuples, and all
    profiles are built before the lasso test.  Returns None when every
    branch from the root is accepted, otherwise (stem edges, cycle edges)."""
    # per node, its out-edges as (edge, child, reach rows, accepting rows);
    # witnesses share these edge tuples
    out = [
        tuple(
            ((v, j), dst, rows, tuple(row & automaton.accepting[dst] for row in rows))
            for j, (dst, rows) in enumerate(zip(children[v], automaton.reach[v]))
        )
        for v in range(len(children))
    ]

    # strongly connected components of the node graph (loops live inside them)
    sccs = _ref_sccs(children)
    scc_of = {}
    for comp in sccs:
        for v in comp:
            scc_of[v] = id(comp)
    cyclic_nodes = set()
    for comp in sccs:
        if len(comp) > 1 or comp[0] in children[comp[0]]:
            cyclic_nodes.update(comp)

    # stems: reachability profiles of all finite paths from the root
    root = automaton.root
    ident = tuple(1 << k for k in range(trace_state_counts(children, automaton)[root]))
    stems = {(root, ident): ()}
    stem_queue = [(root, ident)]
    for m, r in stem_queue:  # the queue grows while it is walked
        witness = stems[(m, r)]
        for edge, dst, re_, _ in out[m]:
            key = (dst, _ref_compose_r(r, re_))
            if key not in stems:
                stems[key] = witness + (edge,)
                stem_queue.append(key)

    # loop profiles: (start, end, R, A) of paths inside one SCC
    loops = {}
    loop_queue = []
    for v in range(len(children)):
        if v not in cyclic_nodes:
            continue
        for edge, dst, re_, ae_ in out[v]:
            if dst not in cyclic_nodes or scc_of[dst] != scc_of[v]:
                continue
            key = (v, dst, re_, ae_)
            if key not in loops:
                loops[key] = (edge,)
                loop_queue.append(key)
    for key in loop_queue:  # the queue grows while it is walked
        u, v, r, a = key
        witness = loops[key]
        for edge, dst, re_, ae_ in out[v]:
            if dst not in cyclic_nodes or scc_of[dst] != scc_of[u]:
                continue
            r2 = _ref_compose_r(r, re_)
            a2 = tuple(
                _ref_row_or(a_row, re_) | _ref_row_or(r_row, ae_)
                for r_row, a_row in zip(r, a)
            )
            key2 = (u, dst, r2, a2)
            if key2 not in loops:
                loops[key2] = witness + (edge,)
                loop_queue.append(key2)

    stem_items = list(stems.items())
    for (u, v, r, a), loop_witness in loops.items():
        if u != v:
            continue
        rr = _ref_compose_r(r, r)
        aa = tuple(_ref_row_or(a_row, r) | _ref_row_or(r_row, a) for r_row, a_row in zip(r, a))
        if rr != r or aa != a:
            continue  # not idempotent
        diag = 0
        for j, a_row in enumerate(a):
            if (a_row >> j) & 1:
                diag |= 1 << j
        for (m, r_stem), stem_witness in stem_items:
            if m != u:
                continue
            r_total = _ref_compose_r(r_stem, r)
            if not any(r_total[k] & diag for k in automaton.initials):
                return stem_witness, loop_witness
    return None


def _ref_compose_r(r1, r2):
    return tuple(_ref_row_or(bits, r2) for bits in r1)


def _ref_row_or(bits, rows):
    out = 0
    i = 0
    while bits:
        if bits & 1:
            out |= rows[i]
        bits >>= 1
        i += 1
    return out


def _ref_sccs(children):
    index = {}
    low = {}
    onstack = set()
    stack = []
    out = []
    counter = [0]

    for start in range(len(children)):
        if start in index:
            continue
        work = [(start, iter(children[start]))]
        index[start] = low[start] = counter[0]
        counter[0] += 1
        stack.append(start)
        onstack.add(start)
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = low[u] = counter[0]
                    counter[0] += 1
                    stack.append(u)
                    onstack.add(u)
                    work.append((u, iter(children[u])))
                    advanced = True
                    break
                if u in onstack:
                    low[v] = min(low[v], index[u])
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                comp = []
                while True:
                    u = stack.pop()
                    onstack.discard(u)
                    comp.append(u)
                    if u == v:
                        break
                out.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return out


# ---------------------------------------------------------------------------
# Rule soundness on sampled words, one (word, formula) pair at a time


def ref_soundness_violations(instances, seed: int):
    """(soundness failures, invertibility failures) of the rule instances on
    the SOUNDNESS_WORDS words that rll.corpus samples from seed."""
    rng = random.Random(seed)
    words = [sample_word(rng) for _ in range(SOUNDNESS_WORDS)]
    memo = {}

    def valid(w, s):
        def m(f):
            key = (w, f)
            if key not in memo:
                memo[key] = member_denotational(w.stem, w.loop, f)
            return memo[key]

        return (not all(m(e) for e in s.lhs_sorted)) or any(m(f) for f in s.rhs_sorted)

    def drop_first(w):
        if w.stem:
            return UPWord(w.stem[1:], w.loop, w.alphabet)
        return UPWord("", w.loop[1:] + w.loop[:1], w.alphabet)

    unsound = []
    uninvertible = []
    for inst in instances:
        rule = inst.rule
        for w in words:
            if rule.startswith("h_") or rule == "r-p":
                head = w.letter_at(0)
                if rule == "r-p":
                    prem = inst.premisses[ALPHABET.index(head)]
                elif rule[2:] == head:
                    prem = inst.premisses[0]
                else:
                    # the word cannot enter any left-hand language, so the
                    # conclusion holds outright
                    if not valid(w, inst.conclusion):
                        unsound.append("%s at %s" % (rule, w))
                    continue
                prem_ok = valid(drop_first(w), prem)
                conc_ok = valid(w, inst.conclusion)
                if prem_ok and not conc_ok:
                    unsound.append("%s at %s" % (rule, w))
                if conc_ok and not prem_ok:
                    uninvertible.append("%s at %s" % (rule, w))
            else:
                prems_ok = all(valid(w, p) for p in inst.premisses)
                conc_ok = valid(w, inst.conclusion)
                if prems_ok and not conc_ok:
                    unsound.append("%s at %s" % (rule, w))
                if conc_ok and not prems_ok and rule in LOGICAL_RULE.values():
                    uninvertible.append("%s at %s" % (rule, w))
    return unsound, uninvertible


# ---------------------------------------------------------------------------
# The membership rows, one sample at a time


def ref_random_expression(rng, size: int, scope=()):
    """A random expression with at most `size` AST nodes, closed when scope
    is empty."""
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
        return Var(rng.choice(list(scope)))
    if kind == "letter":
        return Letter(rng.choice(ALPHABET), ref_random_expression(rng, size - 1, scope))
    if kind in ("plus", "cap"):
        ls = rng.randint(1, max(1, size - 2))
        left = ref_random_expression(rng, ls, scope)
        right = ref_random_expression(rng, size - 1 - ls, scope)
        return (Plus if kind == "plus" else Cap)(left, right)
    var = rng.choice(["P", "Q", "R", "S"])
    body = ref_random_expression(rng, size - 1, tuple(scope) + (var,))
    return (Mu if kind == "mu" else Nu)(var, body)


def ref_fixpoint_offsets(w: UPWord, terms) -> list:
    """Per closed term, the offsets of w whose suffix lies in the term's
    language, as a bitmask: the Knaster-Tarski semantics, walking the term
    with mu and nu iterated from no offset and from every offset, and
    reading each letter off the word at every letter node."""
    n = w.n_offsets()
    full = (1 << n) - 1

    def walk(f, env):
        if isinstance(f, Var):
            return env[f.name]
        if isinstance(f, Letter):
            body = walk(f.body, env)
            return sum(1 << o for o in range(n) if w.letter_at(o) == f.letter and body >> w.advance(o) & 1)
        if isinstance(f, Plus):
            return walk(f.left, env) | walk(f.right, env)
        if isinstance(f, Cap):
            return walk(f.left, env) & walk(f.right, env)
        if isinstance(f, (Mu, Nu)):
            x = 0 if isinstance(f, Mu) else full
            while True:
                y = walk(f.body, {**env, f.var: x})
                if y == x:
                    return x
                x = y
        return full if isinstance(f, Top) else 0

    return [walk(f, {}) for f in terms]


def ref_membership_mismatches(seed: int):
    """The failure lines of rll.corpus.membership_mismatches, computed
    sample by sample with a one-word solve each, over ref_random_expression
    renamed by canonical and ref_fixpoint_offsets."""
    rng = random.Random(seed)
    out = []
    for _ in range(MEMBERSHIP_SAMPLES):
        e = canonical(ref_random_expression(rng, rng.randint(1, 12)))
        w = sample_word(rng)
        members = fl_closure(e).members
        masks = winning_offsets((w,), e)
        *truth, dual = ref_fixpoint_offsets(w, members + (complement(e, ALPHABET),))
        m, n = len(members), w.n_offsets()
        legs = {
            "fixpoint": next(((o, k) for o in range(n) for k in range(m) if (masks[k] ^ truth[k]) >> o & 1), None),
            "dual": next(((o, 0) for o in range(n) if ~(masks[0] ^ dual) >> o & 1), None),
        }
        first = min((q for q in legs.values() if q is not None), default=None)
        if first is not None:
            o, k = first
            where = "offset %d in %s" % (o, pretty(members[k]))
            there = " and ".join(leg for leg, q in legs.items() if q == first)
            out.append("%s on %s: at %s, game=%s, failing: %s" % (pretty(e), w, where, masks[k] >> o & 1 == 1, there))
    return out


def ref_closed_form_failures(seed: int):
    """The failures of rll.corpus.closed_form_failures, one member call per
    fixed fact and per sampled word and constant."""
    out = []
    for text, e, expected in CLOSED_FORMS:
        w = parse_word(text, ALPHABET)
        if member(w, e) is not expected:
            out.append("%s in %s should be %s" % (text, pretty(e), expected))
    rng = random.Random(seed)
    for _ in range(CLOSED_FORM_WORDS):
        w = sample_word(rng)
        if not member(w, EXPRESSIONS["all"]):
            out.append("%s should be in the universal language" % w)
        if member(w, EXPRESSIONS["none"]):
            out.append("%s should not be in the empty language" % w)
    return out
