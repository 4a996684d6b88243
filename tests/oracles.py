"""Independent test oracles, random generators and test-only algorithms.

- member_denotational computes the language semantics directly: for an
  ultimately periodic word the set of distinct suffixes is finite (one per
  offset of stem+loop), every operator restricts to subsets of that finite
  set, and mu/nu are literal Knaster-Tarski iterations.  It shares no code
  with the game-based membership of rll.semantics, which it cross-checks.
- gen_expr, gen_guarded_expr, gen_word and gen_guarded_sequent draw random
  expressions, guarded expressions, words and guarded sequents.
- ref_free_vars, ref_equal, ref_canonical, ref_subformula_leq and
  ref_sort_key are plain recursive copies of the term facts that rll.expr
  memoises per interned node.
- fl_leq, fl_lt and compare_dependency are the closure preorder and the
  dependency order on expressions.
- applicable_steps lists every rule instance that concludes a sequent.
- unroll_edge duplicates the target of one proof edge, which must leave
  every checking verdict unchanged.
- complement_buchi is rank-based Büchi complementation over labelled
  automata, the reference that the profile-based progress search of
  rll.proof is checked against; one_node_automaton presents a labelled
  automaton in the numbered form that search reads.
- ref_trace_automaton builds the trace automaton of a proof graph as a
  labelled automaton, state by state; rll.proof numbers its states per node
  and builds each edge's reach rows directly.
- labelled_game numbers a parity game given as labelled dicts, checking
  them first; rll.semantics builds its games as numbered arrays only.
  ref_eval_game builds the evaluation game as labelled dicts over
  EvalPosition labels, position by position; rll.semantics fills the
  numbered arrays directly.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from rll.calculus import PRINCIPAL_RULES, Sequent, immediate_ancestry, make_instance
from rll.expr import (
    Alphabet,
    Cap,
    Expr,
    Letter,
    Mu,
    Nu,
    Plus,
    Top,
    Var,
    Zero,
    canonical,
    expr_sort_key,
    fl_closure,
    subformula_leq,
)
from rll.automaton import default_coloring
from rll.proof import ProofGraph, TraceAutomaton
from rll.semantics import ParityGame


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
        return Zero()
    if kind == "top":
        return Top()
    if kind == "var":
        return Var(rng.choice(list(scope)))
    if kind == "letter":
        return Letter(rng.choice(alphabet.letters), gen_expr(rng, alphabet, size - 1, scope, letters))
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
    stem = "".join(rng.choice(alphabet.letters) for _ in range(rng.randint(0, max_stem)))
    loop = "".join(rng.choice(alphabet.letters) for _ in range(rng.randint(1, max_loop)))
    return stem, loop


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
        return Letter(rng.choice(alphabet.letters), body)
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
    return positions, owner, moves, priority


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


def ref_subformula_leq(f, g) -> bool:
    """Some subterm of g is f, both compared after canonical renaming."""
    target = ref_canonical(f)

    def walk(t):
        if ref_equal(ref_canonical(t), target):
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
    return canonical(f) in fl_closure(g)


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


def unroll_edge(p, parent: str, index: int):
    """Duplicate the target of one edge: the parent's index-th child becomes
    a fresh copy of the old child (same rule, same children), and any node
    left unreachable is dropped.  The branch language is unchanged, so every
    checking verdict must be too."""
    child = p.children[parent][index]
    fresh = child + "'"
    while fresh in p.instance:
        fresh += "'"
    children = {nid: list(p.children[nid]) for nid in p.order}
    children[parent][index] = fresh
    children[fresh] = list(p.children[child])
    reachable = {p.root}
    queue = [p.root]
    while queue:
        for c in children[queue.pop()]:
            if c not in reachable:
                reachable.add(c)
                queue.append(c)
    nodes = []
    for nid in p.order:
        if nid in reachable:
            nodes.append((nid, p.instance[nid], tuple(children[nid])))
    if fresh in reachable:
        nodes.append((fresh, p.instance[child], tuple(children[fresh])))
    return ProofGraph(nodes, p.root)


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
    """b as a numbered automaton over a graph with the one node "w", whose
    j-th edge reads b.alphabet[j] and leads back to "w"; state k is
    b.states[k], which also serves as its label.  Returns that automaton and
    the graph's children table.  edges_of(b, word) spells a word over
    b.alphabet as edges of that graph."""
    number = {q: k for k, q in enumerate(b.states)}

    def mask(qs):
        bits = 0
        for q in qs:
            bits |= 1 << number[q]
        return bits

    automaton = TraceAutomaton(
        root="w",
        labels={"w": tuple(b.states)},
        states=tuple(("w", k) for k in range(len(b.states))),
        initials=tuple(number[q] for q in b.initials),
        reach={"w": tuple(tuple(mask(b.successors(q, a)) for q in b.states) for a in b.alphabet)},
        accepting={"w": mask(b.accepting)},
    )
    return automaton, {"w": ("w",) * len(b.alphabet)}


def edges_of(b: BuchiAutomaton, word):
    return tuple(("w", b.alphabet.index(a)) for a in word)


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
# The trace automaton of a proof graph, labelled


class TraceState(NamedTuple):
    node: str
    side: str
    formula: Expr
    phase: str  # "search" | "committed"
    critical: Optional[Expr]


def ref_trace_automaton(p: ProofGraph) -> BuchiAutomaton:
    """The trace automaton of p as a labelled automaton over the edges
    (nid, j): states are TraceStates in breadth-first discovery order, and
    a state is found accepting or dead when it is dequeued."""
    anc = {}
    for nid in p.order:
        grouped = {}
        for edge in immediate_ancestry(p.instance[nid]):
            key = (edge.premiss_index, edge.conclusion_side, edge.conclusion_formula)
            grouped.setdefault(key, [])
            if edge.premiss_formula not in grouped[key]:
                grouped[key].append(edge.premiss_formula)
        for key in grouped:
            grouped[key].sort(key=expr_sort_key)
        anc[nid] = grouped
    alphabet = tuple((nid, j) for nid in p.order for j in range(len(p.children[nid])))

    root_seq = p.sequent(p.root)
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
        inst = p.instance[st.node]
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
