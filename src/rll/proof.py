"""Cyclic proofs as finite graphs, and the progress condition.

A proof is a finite graph of sequents: each node carries a rule, a principal
and children whose sequents are its premisses, and back-edges make the
object cyclic.  The graph is numbered once, when it is built, over one
FormulaTable of rll.calculus: a node is a pair of cedent masks over the
table's formula numbers, and no node's Sequent is built.  Every stage
after that reads node and formula numbers; the names
of a proof file's nodes are read back only to report errors and to print.
Its shape is checked where it is built, by NodeNumbering.  parse_proof reads
a file straight into that numbering: only the root record's formulas are
parsed, every other text that prints a member of their closure is looked
up, and no Sequent is built per record.  Local checking asks of each node
that premiss_masks, the one rule schema, derive exactly its children's
cedents.  The global progress condition asks that every infinite branch
carries a trace — a path of formulas through the ancestry relation — that
commits to a critical left-mu or right-nu formula, never unfolds anything
strictly smaller afterwards, and unfolds the critical formula itself
infinitely often.

build_trace_automaton turns that condition into a Büchi automaton over the
graph's edges whose language is the set of branches possessing such a trace.
While it is built, a state's label is one int over the table's formula
numbers, and its descent along an edge is a mask read off the graph's
cedents, premiss_letters and the table's body bits and auxiliary masks.  The
automaton keeps no labels: its states are numbered per node in discovery
order, and it holds the root's initial states, each node's accepting states
and, per edge, one reach row per state of its source: a bitmask of the
child's states that the state steps to.  check runs the local check and
then decides whether that language covers all branches.  Rather than
complementing the (large) trace automaton, it composes those rows into
boolean reachability/acceptance profiles of finite paths and applies the
standard lasso criterion to idempotent loop profiles (Fogarty & Vardi,
"Efficient Büchi universality checking", TACAS 2010), which is exact for
ultimately periodic branches and therefore for universality.  Those
profiles form a finite monoid, so each distinct one is interned as an int
and composed with each edge only once.  A profile is a tuple of interned
row pairs, one (R row, A row) pair per state of its start, and row k of a
product depends on row k of its left factor alone: a product maps each
row pair through a memoised step per right operand, so each (row pair,
operand) step is computed once however many products share it.

The verdict is decided over loops that start at feedback nodes only: the
nodes an edge reaches while they are on the Tarjan stack, a set that meets
every cycle.  That stays exact, since a bad lasso's cycle can be rotated to
start at a feedback node before the Ramsey argument is applied there; the
size-change principle likewise composes only from call sites (Lee, Jones &
Ben-Amram, "The size-change principle for program termination", POPL 2001).
Only on a rejection does the full search, with loops from every node, build
the lasso: it stops at its first hit, and the lasso is the path of edges
(v, j) that it found, a stem from the root and a cycle back to the stem's
end, re-verified by replay on the same automaton.  A general rank-based
complementation lives in tests/oracles.py as the reference this profile
search is checked against, next to the full search as one pass.

check builds the automaton, and runs both searches, over the live nodes
only: those from which a cycle can be reached.  One Tarjan pass over every
node gives the SCCs, the feedback nodes and the live nodes together, since
it emits each SCC after every SCC it reaches.  That is exact.
A branch that ends at an axiom owes no trace, and every infinite branch,
and every stem to a loop, stays inside the live nodes.  A parent of a live
node is live, so the breadth-first walk meets the states at live nodes in
the same order, and each keeps its number, its reach rows and its
accepting bit.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cache
from typing import Optional, Tuple

from .expr import Alphabet, Expr, Mu, Nu, ParseError, free_vars, parse, pretty, subformula_leq
from .calculus import (
    PRINCIPAL_RULES,
    FormulaTable,
    canonical_rule_name,
    is_rule_name,
    or_rows,
    parse_sequent,
    premiss_letters,
    schema_violation,
)


class ProofGraph:
    """Finite rooted graph of rule applications over one formula table,
    numbered once: node v is the record named order[v]; lhs[v] and rhs[v]
    are its cedents as masks over table's numbers, rule[v] is its canonical
    rule name, principal[v] its principal code (FormulaTable.code: a
    formula number, a letter for h_a, None for l-p and r-p) and children[v]
    holds the numbers of its children; root is a number.  The names are
    read only to report errors and to print.  A premiss is the cedent pair
    of a child, so whether the children carry a node's premisses is a rule
    schema question, check_local's.  Nodes stay masks: no Sequent or rule
    instance is built per node."""

    def __init__(self, table: FormulaTable, order, lhs, rhs, rule, principal, children, root: int):
        self.table, self.order, self.root = table, tuple(order), root
        self.lhs, self.rhs, self.rule = tuple(lhs), tuple(rhs), tuple(rule)
        self.principal, self.children = tuple(principal), tuple(children)

    @property
    def alphabet(self) -> Alphabet:
        return self.table.alphabet


class NodeNumbering(dict):
    """Node name -> number, in record order: the one check of a proof's
    structure, made while its records are read.  add numbers the next
    record and refuses a name already taken, children numbers a record's
    children and refuses one that names no record, and root numbers the
    root and refuses a root that names no record or one that leaves a
    record unreached."""

    def add(self, nid: str):
        if nid in self:
            raise ParseError("duplicate node id %r" % nid)
        self[nid] = len(self)

    def children(self, nid: str, kids) -> Tuple[int, ...]:
        for cid in kids:
            if cid not in self:
                raise ParseError("node %s references unknown child %r" % (nid, cid))
        return tuple(map(self.__getitem__, kids))

    def root(self, root: str, children) -> int:
        """The root's number, given every record's children as numbers."""
        if root not in self:
            raise ValueError("root %r is not a node" % root)
        reached = bytearray(len(self))
        reached[self[root]] = 1
        stack = [self[root]]
        while stack:
            for c in children[stack.pop()]:
                if not reached[c]:
                    reached[c] = 1
                    stack.append(c)
        unreachable = [nid for nid, r in zip(self, reached) if not r]
        if unreachable:
            raise ValueError("unreachable nodes: %s" % ", ".join(unreachable))
        return self[root]


def check_local(p: ProofGraph):
    """Check each node against its rule's schema, the premisses being its
    children's cedents; returns the violations (none for a preproof)."""
    violations = []
    cedents = tuple(zip(p.lhs, p.rhs))
    for v, nid in enumerate(p.order):
        got = tuple(map(cedents.__getitem__, p.children[v]))
        message = schema_violation(p.table, p.rule[v], p.lhs[v], p.rhs[v], p.principal[v], got)
        if message is not None:
            violations.append("node %s: %s" % (nid, message))
    return violations


# ---------------------------------------------------------------------------
# proof files


def _after_keyword(text: str, keyword: str) -> Optional[str]:
    """The stripped text after a leading keyword, or None unless text starts
    with the keyword followed by whitespace or its end."""
    rest = text[len(keyword):]
    if text.startswith(keyword) and (not rest or rest[0].isspace()):
        return rest.strip()
    return None


def _split_records(text: str):
    """The alphabet, the node records (id, sequent text, canonical rule
    name, principal text or None, children ids) in file order and the root
    id of a proof file; raises ParseError on a malformed line."""
    alphabet = None
    records = []
    root = None
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if not line.startswith("node "):  # the alphabet or the root line
            if line.startswith("alphabet:"):
                if alphabet is not None:
                    raise ParseError("duplicate alphabet line")
                alphabet = Alphabet(line[len("alphabet:"):].strip())
                continue
            root_text = _after_keyword(line, "root")
            if root_text is None:
                raise ParseError("unrecognised proof line: %r" % raw_line)
            if root is not None:
                raise ParseError("duplicate root line")
            root = root_text
            continue
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
                kids = tuple(map(str.strip, kid_text.split(",")))
        records.append((nid, sequent_text, rule, principal_text, kids))
    if alphabet is None:
        raise ParseError("missing alphabet line")
    if root is None:
        raise ParseError("missing root line")
    if not records:
        raise ParseError("no node records")
    return alphabet, records, root


def parse_proof(text: str) -> ProofGraph:
    """Load the structured-text proof format:

        alphabet: ab
        node n0: mu X. X |- nu X. X ; rule μ-l principal mu X. X ; children n0
        root n0

    `#` starts a comment; records may appear in any order after the alphabet
    line; ASCII rule aliases (mu-l, top-r, ...) are accepted; the principal
    clause may be omitted when it is unambiguous.  The keywords root, rule,
    principal and children end at whitespace or at the end of their clause,
    so `rootn0` is no root line.

    The file is read straight into a numbered graph, with no Sequent per
    record.  Only the root record's formulas are parsed up front: the
    closure of its formulas is the FormulaTable, and a formula or principal
    text that prints one of its members is looked up by that text, since
    parse(pretty(f)) is f.  Any other text is parsed once and checked once,
    closed and within the alphabet, and is then looked up by its text too;
    if one lies outside the table, the table is renumbered once over the
    closure of every cedent formula.  The one text parsed twice is a root
    formula text that prints no member: once to build the table and once as
    a cedent text.  Faults are reported in file order, as the checking
    constructor of Sequent words them for the first refused sequent; a root
    record that does not parse cleanly, or a root that names no record,
    seeds an empty table."""
    alphabet, records, root = _split_records(text)
    seed = ()
    record = next((r for r in records if r[0] == root), None)
    if record is not None:
        try:
            s = parse_sequent(record[1], alphabet)
            seed = s.lhs | s.rhs
        except ValueError:
            pass  # reported where the record comes in file order
    table = FormulaTable(seed, alphabet)
    numbers = {}  # formula text -> number, a member's also as it follows ", "; principal text -> code
    for n, f in enumerate(table.formulas):
        printed = pretty(f)
        numbers[printed] = numbers[" " + printed] = n
    outside = {}  # term outside the table -> its number, counted on from the table's

    def number(piece):
        n = numbers.get(piece)
        if n is None:
            e = parse(piece, alphabet)
            if free_vars(e):
                raise ValueError("refused formula %s" % piece)
            n = table.number.get(e)
            if n is None:
                n = outside.setdefault(e, len(table.formulas) + len(outside))
            numbers[piece] = n
        return n

    def mask(chunk):
        m = 0
        for piece in chunk.split(",") if chunk.strip() else ():
            n = numbers.get(piece)
            if n is None:
                n = numbers[piece] = number(piece.strip())
            m |= 1 << n
        return m

    nodes = NodeNumbering()
    lhs, rhs = [], []
    for nid, sequent_text, *_ in records:
        nodes.add(nid)
        left, bar, right = sequent_text.partition("|-")
        if bar and "|-" not in right:
            try:
                lhs.append(mask(left))
                rhs.append(mask(right))
                continue
            except ValueError:  # a formula text that does not parse, or one that is refused
                pass
        parse_sequent(sequent_text, alphabet)  # raises the fault as the checking constructor words it
        raise RuntimeError("internal error: node %s: a sequent refused on reading was accepted" % nid)
    if outside:  # renumber once, over the closure of every cedent formula
        old = table.formulas + tuple(outside)
        table = FormulaTable((*seed, *outside), alphabet)
        renumbered = table.renumbered(old, {*lhs, *rhs})
        lhs, rhs = [renumbered[m] for m in lhs], [renumbered[m] for m in rhs]
        numbers = {text: table.number[old[n]] for text, n in numbers.items()}

    rules, principals, children = [], [], []
    for (nid, _, rule, principal_text, kids), left, right in zip(records, lhs, rhs):
        kids = nodes.children(nid, kids)
        if rule.startswith("h_"):
            if principal_text is not None and principal_text != rule[2:]:
                raise ParseError("node %s: %s acts on the letter %r" % (nid, rule, rule[2:]))
            code = rule[2:]
        elif principal_text is not None:
            code = numbers.get(principal_text)
            if code is None:
                code = numbers[principal_text] = table.code(parse(principal_text, alphabet))
        elif rule in ("l-p", "r-p"):
            code = None
        else:  # only a formula of the rule's class on the rule's side can match, and at most one does
            premisses = tuple((lhs[c], rhs[c]) for c in kids)
            code = next((
                n for n in table.numbers(left if PRINCIPAL_RULES[rule][1] == "L" else right)
                if schema_violation(table, rule, left, right, n, premisses) is None
            ), None)
            if code is None:
                raise ParseError("node %s: principal formula for %s is undetermined; write it explicitly" % (nid, rule))
        rules.append(rule)
        principals.append(code)
        children.append(kids)
    return ProofGraph(table, nodes, lhs, rhs, rules, principals, children, nodes.root(root, children))


def serialize_proof(p: ProofGraph) -> str:
    """The proof file of p.  A cedent prints as the texts of its formulas in
    number order, which is their sorted order, each formula's text rendered
    once.  The lines end with an empty one, so that joining them makes the
    only copy of the whole text."""
    table = p.table
    texts = tuple(map(pretty, table.formulas))

    def cedent(mask):  # most right cedents are empty, and an empty one needs no join
        return ", ".join(map(texts.__getitem__, table.numbers(mask))) if mask else ""

    lines = ["alphabet: %s" % str(p.alphabet)]
    for nid, lhs, rhs, rule, code, kids in zip(p.order, p.lhs, p.rhs, p.rule, p.principal, p.children):
        if type(code) is int:
            rule += " principal %s" % texts[code]
        elif isinstance(code, Expr):  # a file's principal that no cedent holds
            rule += " principal %s" % pretty(code)
        lines.append(
            "node %s: %s ; rule %s ; children %s"
            % (nid, ("%s |- %s" % (cedent(lhs), cedent(rhs))).strip(), rule, ", ".join(p.order[c] for c in kids))
        )
    lines.append("root %s" % p.order[p.root])
    lines.append("")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the trace automaton


@dataclass(frozen=True)
class TraceAutomaton:
    """A Büchi automaton over the edges (v, j) of a numbered proof graph,
    whose states are numbered per node in discovery order; which formula a
    state tracks is not kept, since the progress search reads only these
    tables, indexed by node number:

    - initials are the numbers of the root's initial states;
    - reach[v][j][k] is a bitmask of the states of v's j-th child that
      state k steps to along edge j;
    - accepting[v] is a bitmask of v's accepting states.

    The automaton that check builds holds states at live nodes only, and
    the root's initial states: every row into a dead child is empty (0),
    since no infinite branch passes through a dead node.  At live nodes
    the states, their numbers and their rows are those of the whole
    automaton."""

    root: int
    initials: Tuple[int, ...]
    reach: Tuple[Tuple[Tuple[int, ...], ...], ...]
    accepting: Tuple[int, ...]


def build_trace_automaton(p: ProofGraph, live) -> TraceAutomaton:
    """The Büchi automaton over the edges of a locally valid graph accepting
    exactly the branches that carry a progressing trace.  States track a
    formula of the current node's sequent on one side, either still
    searching or committed to a critical formula; committed runs die when a
    strictly smaller formula is unfolded on the trace and visit an
    accepting state whenever the critical formula itself is the one
    unfolded.  Formulas are the graph table's numbers, and a descent is a
    mask read off the graph's cedents and the table's body bits and
    auxiliary masks.

    live is the live table of _components, read as truth values per node:
    only the live nodes and the root are set up, and the walk steps only
    into live children.  A row into a dead child is 0, and no dead node but
    the root holds a state.  Since a parent of a live node is live, every
    state at a live node keeps its number, its rows and its accepting bit;
    with every node live, this is the whole automaton."""
    table = p.table
    cedents = tuple(zip(p.lhs, p.rhs))
    into = tuple(c if up else (0, 0) for c, up in zip(cedents, live))
    width = 2 * len(table.formulas)  # the labels with one critical formula
    may_commit = (table.kinds.get(Mu, 0), table.kinds.get(Nu, 0))  # left mu, right nu
    letter, body = table.letter, table.body
    below = cache(lambda f, c: subformula_leq(table.formulas[f], table.formulas[c]))  # per pair of numbers

    # per node, its principal as 2n + side (negative for none); per edge, the child, its index and
    # cedents, what the edge descends by (the letter it strips, else the mask of its auxiliaries on the
    # rule's side) and its reach rows; all of them only at the nodes that a state can reach
    nodes = len(p.order)
    kept = [v for v in range(nodes) if live[v] or v == p.root]
    principal = [-1] * nodes
    rows = [None] * nodes
    index = [None] * nodes  # per node, label -> its state number there, in discovery order
    steps = [()] * nodes
    for v in kept:
        rows[v] = [[] for _ in p.children[v]]
        index[v] = {}
    for v in kept:  # once every kept node has its index
        rule, kids = p.rule[v], p.children[v]
        via = premiss_letters(rule, table.alphabet) or ()
        if kids and not via:
            side = "LR".index(PRINCIPAL_RULES[rule][1])
            principal[v] = 2 * p.principal[v] + side
            aux = table.auxiliaries(rule, p.principal[v])
            via = [aux[j] & into[c][side] for j, c in enumerate(kids)]
        steps[v] = tuple(zip(kids, map(index.__getitem__, kids), map(into.__getitem__, kids), via, rows[v]))

    accepting = [0] * nodes
    labels = [2 * n + side for side, m in enumerate(cedents[p.root]) for n in range(width // 2) if m >> n & 1]
    initials = tuple(range(len(labels)))
    index[p.root].update(zip(labels, initials))
    queue = [(p.root, k, label) for k, label in enumerate(labels)]  # breadth-first: (node, state number, label)
    for v, k, label in queue:  # the queue grows while it is walked
        critical, key = divmod(label, width)  # critical is the critical number + 1
        side, f = key & 1, key >> 1
        unfolds = key == principal[v]
        if critical and unfolds:
            if f == critical - 1:
                accepting[v] |= 1 << k
            elif below(f, critical - 1):  # the trace unfolds below its critical formula: it dies
                for *_, out in steps[v]:
                    out.append(0)
                continue
        base = label - 2 * f  # a descendant's label differs only in its formula number
        for child, idx, cedent, via, out in steps[v]:
            if type(via) is str:
                down = body[f] & cedent[side] if letter[f] == via else 0
            else:
                down = 1 << f & cedent[side] | (via if unfolds else 0)
            row = 0
            while down:
                low = down & -down
                down ^= low
                f2 = low.bit_length() - 1
                x = base + 2 * f2
                commits = not critical and may_commit[side] & low  # a search may commit to a left mu or right nu
                for x in (x, x + width * (f2 + 1)) if commits else (x,):
                    n = len(idx)
                    k2 = idx.setdefault(x, n)
                    if k2 == n:
                        queue.append((child, n, x))
                    row |= 1 << k2
            out.append(row)
    return TraceAutomaton(
        root=p.root,
        initials=initials,
        reach=tuple(
            ((),) * len(kids) if per_edge is None else tuple(map(tuple, per_edge))
            for kids, per_edge in zip(p.children, rows)
        ),
        accepting=tuple(accepting),
    )


def accepts_lasso(automaton: TraceAutomaton, stem, cycle) -> bool:
    """Does the automaton accept the branch stem·cycle^ω?  stem and cycle
    are sequences of edges (v, j) that form a path from the root, and the
    cycle returns to its first node.  Decided on the finite product of the
    lasso's positions with the states of each position's node."""
    if not cycle:
        raise ValueError("the cycle must be nonempty")
    word = tuple(stem) + tuple(cycle)
    n = len(word)
    wrap = len(stem)
    rows = [automaton.reach[v][j] for v, j in word]

    def advance(i):
        return i + 1 if i + 1 < n else wrap

    def reached(i, start):
        """Per position, the states reachable from the states `start` at
        position i, as bitmasks."""
        found = [0] * n
        found[i] = start
        todo = [(i, start)]
        while todo:
            at, new = todo.pop()
            nxt = advance(at)
            new = or_rows(new, rows[at]) & ~found[nxt]
            if new:
                found[nxt] |= new
                todo.append((nxt, new))
        return found

    initials = 0
    for k in automaton.initials:
        initials |= 1 << k
    found = reached(0, initials)
    for i in range(wrap, n):
        candidates = found[i] & automaton.accepting[word[i][0]]
        k = 0
        while candidates:
            # can the product return to the accepting configuration (i, k)?
            if candidates & 1 and reached(advance(i), rows[i][k])[i] >> k & 1:
                return True
            candidates >>= 1
            k += 1
    return False


# ---------------------------------------------------------------------------
# progress checking


@dataclass(frozen=True)
class Lasso:
    """An infinite branch stem·cycle^ω, as the edges (v, j) it takes: the
    stem leads from the root to the cycle's first node cycle[0][0], and
    the cycle returns there.  The proof graph's order names the nodes."""

    stem: Tuple[Tuple[int, int], ...]
    cycle: Tuple[Tuple[int, int], ...]


class _Numbering(dict):
    """Value -> its number, in first-use order; values[i] is the value
    numbered i."""

    def __init__(self):
        self.values = []

    def __missing__(self, value):
        self[value] = number = len(self.values)
        self.values.append(value)
        return number


class _RowStep(dict):
    """Row-pair id -> the id of the row pair it steps to through one
    operand profile, filled on first use.  Row k of a path's profile is
    the pair (r, a) of the states that its state k reaches and of those it
    reaches through an accepting state; through an operand whose rows are
    (R, A) it steps to (the OR of R over r, the OR of R over a | the OR of
    A over r), which depends on that pair alone."""

    def __init__(self, operand, pairs: _Numbering):
        self.pairs = pairs
        self.rows, self.accepting = zip(*map(pairs.values.__getitem__, operand)) if operand else ((), ())

    def product(self, profile):
        """The profile of a path of this profile followed by the operand."""
        return tuple(map(self.__getitem__, profile))

    def __missing__(self, pair):
        r, a = self.pairs.values[pair]
        rows = self.rows
        self[pair] = out = self.pairs[or_rows(r, rows), or_rows(a, rows) | or_rows(r, self.accepting)]
        return out


def _components(children):
    """The SCC number of each node, the feedback nodes, and per node
    whether it is live, that is, whether a cycle can be reached from it;
    all from one iterative Tarjan pass over every node.  Tarjan's algorithm
    emits each SCC after every SCC it reaches, so liveness is known as the
    walk goes: an edge to a node on the stack adds that node to the
    feedback set and makes its source live, an edge to a finished live
    node makes its source live, and a finished node passes its liveness to
    its tree parent.  An SCC whose root is live when it is emitted (every
    SCC with a cycle) gets the next number; a dead node is a singleton and
    keeps -1.  No path leaves the dead nodes, so the live SCCs, their
    numbers and the feedback set are those of a pass over the live nodes
    alone."""
    n = len(children)
    index = [-1] * n  # -1 unvisited, below n on the stack, n finished dead, n + 1 finished live
    finished = (n, n + 1)  # one int object each, shared by every finished node
    low = [0] * n
    live = bytearray(n)
    scc_of = [-1] * n
    feedback = set()
    stack = []
    counter = numbered = 0
    for start in range(n):
        if index[start] >= 0:
            continue
        index[start] = low[start] = counter
        counter += 1
        stack.append(start)
        work = [(start, iter(children[start]))]
        while work:
            v, it = work[-1]
            for u in it:
                i = index[u]
                if i < 0:
                    index[u] = low[u] = counter
                    counter += 1
                    stack.append(u)
                    work.append((u, iter(children[u])))
                    break
                if i < n:
                    feedback.add(u)
                    live[v] = 1
                    if i < low[v]:
                        low[v] = i
                elif i > n:
                    live[v] = 1
            else:  # v is finished
                work.pop()
                up = live[v]
                if low[v] == index[v]:  # v is the root of an SCC: pop it
                    while True:
                        u = stack.pop()
                        index[u] = finished[up]
                        if up:
                            scc_of[u] = numbered
                        if u == v:
                            break
                    numbered += up
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if up:
                        live[parent] = 1
    return scc_of, feedback, live


def _find_unaccepted_branch(children, automaton: TraceAutomaton, components):
    """Core of the progress check over a graph given by its children table,
    nodes numbered below len(children), its trace automaton and its
    _components.  Returns None when every branch from the root is accepted,
    otherwise (stem edges, cycle edges).

    A profile is a tuple with one row-pair id per state of its start: each
    distinct (R row, A row) pair gets an int id, and each distinct profile
    an int id, both in a numbering owned by the call, so that an id names
    one (R, A) content.  An in-SCC edge carries the id of its own profile.
    Row k of a product depends only on row k of its left factor, so each
    right operand keeps a _RowStep, and a product maps its left factor's
    row pairs through it: each (row pair, operand) step, each (profile,
    operand) product, idempotence test and diagonal, and each rejected-stem
    scan at (node, profile) is computed once for both passes.

    A pass walks the loop keys (u, v, i) of the nonempty paths from a start
    u that stay inside u's SCC, one per profile id i, breadth-first, and
    tests a key for a rejected stem when it closes a loop (v == u).  The
    verdict pass starts loops only at feedback nodes, a set that meets
    every cycle.  Only on a rejection does the witness pass start loops at
    every node; it stops at its first hit, so the lasso is the first one in
    the breadth-first order of loops.  The keys and their order are those
    that the (R, A) matrices themselves would give, so the hit does not
    move."""
    n = len(children)
    scc_of, feedback, live = components
    pairs = _Numbering()  # (R row, A row) -> row-pair id
    ids = _Numbering()  # profile -> profile id
    profiles = ids.values
    products = defaultdict(dict)  # profile id -> operand id -> product id
    steps, diagonals, rejections = {}, {}, {}

    def compose(i, e):
        step = steps.get(e)
        if step is None:
            step = steps[e] = _RowStep(profiles[e], pairs)
        products[i][e] = product = ids[step.product(profiles[i])]
        return product

    # per node, its out-edges inside its SCC as (edge, child, profile id):
    # loops never leave the SCC they start in
    inner = [
        tuple(
            ((v, j), dst, ids[tuple(pairs[row, row & automaton.accepting[dst]] for row in rows)])
            for j, (dst, rows) in enumerate(zip(children[v], automaton.reach[v]))
            if scc_of[dst] == scc_of[v]
        ) if live[v] else ()
        for v in range(n)
    ]

    # stems: per live node, the states that finite paths from the root reach
    # from the initial states, each mask once, linked to the stem it extends
    # and the edge it adds; reached[m] lists m's masks in discovery order.
    # A stem to a loop passes through live nodes only.
    stem_queue = [(automaton.root, sum(1 << k for k in automaton.initials))]
    stems = {stem_queue[0]: None}
    reached = defaultdict(list)
    for key in stem_queue:  # the queue grows while it is walked
        m, mask = key
        reached[m].append(mask)
        for j, (dst, rows) in enumerate(zip(children[m], automaton.reach[m])):
            if not live[dst]:
                continue
            key2 = (dst, or_rows(mask, rows))
            if key2 not in stems:
                stems[key2] = (key, (m, j))
                stem_queue.append(key2)

    def rejected_stem(u, i):
        """The first stem (u, mask) whose lasso with a loop at u of profile
        i has no accepting run, when i is idempotent; else None."""
        if i not in diagonals:  # the diagonal of A, or None when i is not idempotent
            square = products[i].get(i)
            if square is None:
                square = compose(i, i)
            a = (pairs.values[x][1] for x in profiles[i])
            diagonals[i] = sum(row & 1 << k for k, row in enumerate(a)) if square == i else None
        if (u, i) not in rejections:
            r, diag = tuple(pairs.values[x][0] for x in profiles[i]), diagonals[i]
            rejections[u, i] = None if diag is None else next(
                ((u, m) for m in reached[u] if not or_rows(m, r) & diag), None)
        return rejections[u, i]

    if _first_rejection(sorted(feedback), inner, products, compose, rejected_stem)[0] is None:
        return None
    loop, links = _first_rejection(range(n), inner, products, compose, rejected_stem)
    if loop is None:
        raise RuntimeError("internal error: the progress passes disagree")
    return _path(stems, rejected_stem(loop[0], loop[2])), _path(links, loop)


def _first_rejection(starts, inner, products, compose, rejected_stem):
    """Walk the loop keys (u, v, i) of the nonempty paths from a node u of
    `starts` that stay inside u's SCC, one per profile id i, breadth-first,
    up to the first key that closes a loop (v == u) for which
    rejected_stem(u, i) finds a stem.  products[i][e] memoises compose(i,
    e), the id of i followed by e.  Returns that key (None when there is
    none) and the links: each key maps to the key it extends (None for a
    single edge) and the edge it adds."""
    links, queue = {}, []
    for u in starts:
        for edge, dst, e in inner[u]:
            key = (u, dst, e)
            if key not in links:
                links[key] = (None, edge)
                queue.append(key)
                if dst == u and rejected_stem(u, e) is not None:
                    return key, links
    for key in queue:  # the queue grows while it is walked
        u, v, i = key
        known = products[i]
        for edge, dst, e in inner[v]:
            j = known.get(e)
            if j is None:
                j = compose(i, e)
            key2 = (u, dst, j)
            if key2 not in links:
                links[key2] = (key, edge)
                queue.append(key2)
                if dst == u and rejected_stem(u, j) is not None:
                    return key2, links
    return None, links


def _path(links, key):
    """The edges of the path that links records for key, from its start."""
    edges = []
    while key is not None and links[key] is not None:
        key, edge = links[key]
        edges.append(edge)
    edges.reverse()
    return tuple(edges)


@dataclass(frozen=True)
class CheckResult:
    """The local violations, else the lasso of a branch that carries no
    progressing trace; a proof with neither is accepted."""

    violations: Tuple[str, ...]
    lasso: Optional[Lasso]

    @property
    def ok(self) -> bool:
        return not self.violations and self.lasso is None

    @property
    def reason(self) -> str:
        if self.ok:
            return "accepted"
        return "local" if self.violations else "progress"


def check(p: ProofGraph) -> CheckResult:
    """check_local, then, on a locally valid proof only, the progress check
    over the live nodes: the search's first unaccepted branch, re-verified
    by replaying it through the trace automaton, is the lasso of the
    result."""
    violations = check_local(p)
    if violations:
        return CheckResult(tuple(violations), None)
    components = _components(p.children)
    automaton = build_trace_automaton(p, components[2])
    found = _find_unaccepted_branch(p.children, automaton, components)
    if found is None:
        return CheckResult((), None)
    if accepts_lasso(automaton, *found):
        raise RuntimeError("internal error: counterexample lasso has a progressing trace")
    return CheckResult((), Lasso(*found))
