"""Cyclic proofs as finite graphs, and the progress condition.

A proof is a finite graph of sequents: each node carries a rule instance
whose premisses are exactly its children's sequents, and back-edges make the
object cyclic.  Local checking is per-node schema validation.  The global
progress condition asks that every infinite branch carries a trace — a path
of formulas through the ancestry relation — that commits to a critical
left-mu or right-nu formula, never unfolds anything strictly smaller
afterwards, and unfolds the critical formula itself infinitely often.

build_trace_automaton turns that condition into a Büchi automaton over the
graph's edges whose language is the set of branches possessing such a trace.
check runs the local check and then decides whether that language covers
all branches.  Rather than complementing the (large) trace automaton, it
composes boolean reachability/acceptance profiles of finite paths and
applies the standard lasso criterion to idempotent loop profiles, which is
exact for ultimately periodic branches and therefore for universality; a
failing pair is returned as a concrete lasso and re-verified by replay.  A
general rank-based complementation lives in tests/oracles.py as the
reference this profile search is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

from .expr import Expr, Mu, Nu, ParseError, expr_sort_key, parse, pretty, subformula_leq
from .expr import Alphabet
from .calculus import (
    PRINCIPAL_RULES,
    RULE_NAMES,
    RuleInstance,
    Sequent,
    canonical_rule_name,
    format_sequent,
    immediate_ancestry,
    parse_sequent,
    validate_instance,
)

class ProofGraph:
    """Finite rooted graph of rule instances.  Construction checks the graph
    shape (known ids, reachability); rule-level validation is check_local."""

    def __init__(self, nodes, root: str):
        # nodes: iterable of (node_id, RuleInstance, children ids)
        self.instance: Dict[str, RuleInstance] = {}
        self.children: Dict[str, Tuple[str, ...]] = {}
        order = []
        for nid, inst, kids in nodes:
            if nid in self.instance:
                raise ValueError("duplicate node id %r" % nid)
            self.instance[nid] = inst
            self.children[nid] = tuple(kids)
            order.append(nid)
        self.order = tuple(order)
        self.root = root
        if root not in self.instance:
            raise ValueError("root %r is not a node" % root)
        for nid in self.order:
            for cid in self.children[nid]:
                if cid not in self.instance:
                    raise ValueError("node %r references unknown child %r" % (nid, cid))
        seen = {root}
        queue = [root]
        while queue:
            n = queue.pop()
            for c in self.children[n]:
                if c not in seen:
                    seen.add(c)
                    queue.append(c)
        unreachable = [nid for nid in self.order if nid not in seen]
        if unreachable:
            raise ValueError("unreachable nodes: %s" % ", ".join(unreachable))

    def sequent(self, nid: str) -> Sequent:
        return self.instance[nid].conclusion

    @property
    def alphabet(self) -> Alphabet:
        return self.sequent(self.root).alphabet


def check_local(p: ProofGraph):
    """Schema-validate every node; returns a list of violations (empty when
    the graph is a well-formed preproof)."""
    violations = []
    ab = p.alphabet
    for nid in p.order:
        inst = p.instance[nid]
        if inst.conclusion.alphabet != ab:
            violations.append("node %s: alphabet differs from the root's" % nid)
        v = validate_instance(inst)
        if v is not None:
            violations.append("node %s: %s" % (nid, v))
            continue
        kids = p.children[nid]
        if len(kids) != len(inst.premisses):
            violations.append(
                "node %s: %d children for %d premisses" % (nid, len(kids), len(inst.premisses))
            )
            continue
        for j, cid in enumerate(kids):
            if p.instance[cid].conclusion != inst.premisses[j]:
                violations.append(
                    "node %s: child %s carries %s, premiss %d is %s"
                    % (nid, cid, format_sequent(p.instance[cid].conclusion), j,
                       format_sequent(inst.premisses[j]))
                )
    return violations


# ---------------------------------------------------------------------------
# proof files


def parse_proof(text: str) -> ProofGraph:
    """Load the structured-text proof format:

        alphabet: ab
        node n0: mu X. X |- nu X. X ; rule μ-l principal mu X. X ; children n0
        root n0

    `#` starts a comment; records may appear in any order after the alphabet
    line; ASCII rule aliases (mu-l, top-r, ...) are accepted; the principal
    clause may be omitted when it is unambiguous."""
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
        if line.startswith("root"):
            if root is not None:
                raise ParseError("duplicate root line")
            root = line[len("root"):].strip()
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
        if not parts[1].startswith("rule"):
            raise ParseError("node %s: missing rule clause" % nid)
        rule_rest = parts[1][len("rule"):].strip()
        if not rule_rest:
            raise ParseError("node %s: empty rule clause" % nid)
        bits = rule_rest.split(None, 1)
        rule = canonical_rule_name(bits[0])
        if rule not in RULE_NAMES and not rule.startswith("h_"):
            raise ParseError("node %s: unknown rule %r" % (nid, bits[0]))
        principal_text = None
        if len(bits) > 1:
            if not bits[1].startswith("principal"):
                raise ParseError("node %s: unexpected text after the rule name" % nid)
            principal_text = bits[1][len("principal"):].strip()
        kids = ()
        if len(parts) == 3:
            if not parts[2].startswith("children"):
                raise ParseError("node %s: expected a children clause" % nid)
            kid_text = parts[2][len("children"):].strip()
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
    for nid, sequent_text, _, _, _ in records:
        if nid in sequents:
            raise ParseError("duplicate node id %r" % nid)
        sequents[nid] = parse_sequent(sequent_text, alphabet)
    nodes = []
    for nid, _, rule, principal_text, kids in records:
        for cid in kids:
            if cid not in sequents:
                raise ParseError("node %s references unknown child %r" % (nid, cid))
        premisses = tuple(sequents[cid] for cid in kids)
        conclusion = sequents[nid]
        if rule.startswith("h_"):
            if principal_text is not None and principal_text != rule[2:]:
                raise ParseError("node %s: %s acts on the letter %r" % (nid, rule, rule[2:]))
            principal = rule[2:]
        elif principal_text is not None:
            principal = parse(principal_text, alphabet)
        elif rule in ("l-p", "r-p"):
            principal = None
        else:
            candidates = [None] + sorted(conclusion.lhs | conclusion.rhs, key=expr_sort_key)
            matching = []
            for cand in candidates:
                trial = RuleInstance(rule, conclusion, cand, premisses)
                if validate_instance(trial) is None:
                    matching.append(cand)
            if len(matching) != 1:
                raise ParseError(
                    "node %s: principal formula for %s is %s; write it explicitly"
                    % (nid, rule, "ambiguous" if matching else "undetermined")
                )
            principal = matching[0]
        nodes.append((nid, RuleInstance(rule, conclusion, principal, premisses), kids))
    return ProofGraph(nodes, root)


def serialize_proof(p: ProofGraph) -> str:
    lines = ["alphabet: %s" % str(p.alphabet)]
    for nid in p.order:
        inst = p.instance[nid]
        rule_clause = inst.rule
        if isinstance(inst.principal, Expr):
            rule_clause += " principal %s" % pretty(inst.principal)
        lines.append(
            "node %s: %s ; rule %s ; children %s"
            % (nid, format_sequent(inst.conclusion), rule_clause, ", ".join(p.children[nid]))
        )
    lines.append("root %s" % p.root)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# the trace automaton


class BuchiAutomaton:
    """A nondeterministic Büchi automaton with an explicit finite alphabet."""

    __slots__ = ("states", "alphabet", "transitions", "initials", "accepting")

    def __init__(self, states, alphabet, transitions, initials, accepting):
        self.states = tuple(states)
        self.alphabet = tuple(alphabet)
        self.transitions = {k: tuple(v) for k, v in transitions.items()}
        self.initials = tuple(initials)
        self.accepting = frozenset(accepting)
        state_set = set(self.states)
        symbol_set = set(self.alphabet)
        for (q, a), targets in self.transitions.items():
            if q not in state_set or a not in symbol_set:
                raise ValueError("transition from unknown state or symbol")
            for t in targets:
                if t not in state_set:
                    raise ValueError("transition into unknown state")
        for q in list(self.initials) + list(self.accepting):
            if q not in state_set:
                raise ValueError("initial/accepting state is unknown")

    def successors(self, q, a):
        return self.transitions.get((q, a), ())


class TraceState(NamedTuple):
    node: str
    side: str
    formula: Expr
    phase: str  # "search" | "committed"
    critical: Optional[Expr]


def _grouped_ancestry(inst: RuleInstance):
    grouped = {}
    for edge in immediate_ancestry(inst):
        key = (edge.premiss_index, edge.conclusion_side, edge.conclusion_formula)
        grouped.setdefault(key, [])
        if edge.premiss_formula not in grouped[key]:
            grouped[key].append(edge.premiss_formula)
    for key in grouped:
        grouped[key].sort(key=expr_sort_key)
    return grouped


def _may_commit(side: str, f: Expr) -> bool:
    return isinstance(f, Mu) if side == "L" else isinstance(f, Nu)


def build_trace_automaton(p: ProofGraph) -> BuchiAutomaton:
    """The Büchi automaton over the graph's edges accepting exactly the
    branches that carry a progressing trace.  States track a formula of the
    current node's sequent on one side, either still searching or committed
    to a critical formula; committed runs die when a strictly smaller
    formula is unfolded on the trace and visit an accepting state whenever
    the critical formula itself is the one unfolded."""
    anc = {nid: _grouped_ancestry(p.instance[nid]) for nid in p.order}
    alphabet = []
    for nid in p.order:
        for j in range(len(p.children[nid])):
            alphabet.append((nid, j))

    initials = []
    root_seq = p.sequent(p.root)
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
                    if _may_commit(st.side, f2):
                        targets.append(TraceState(child, st.side, f2, "committed", f2))
                else:
                    targets.append(TraceState(child, st.side, f2, "committed", st.critical))
            if targets:
                transitions[(st, (st.node, j))] = tuple(targets)
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        queue.append(t)
    return BuchiAutomaton(states, alphabet, transitions, initials, accepting)


# ---------------------------------------------------------------------------
# generic Büchi operations


def accepts_lasso(b: BuchiAutomaton, stem, cycle) -> bool:
    """Does the automaton accept stem·cycle^ω?  Decided on the finite product
    of the lasso's positions with the state space."""
    if not cycle:
        raise ValueError("the cycle must be nonempty")
    word = list(stem) + list(cycle)
    n = len(word)
    wrap = len(stem)

    def advance(i):
        return i + 1 if i + 1 < n else wrap

    start = [(0, q) for q in b.initials]
    seen = set(start)
    queue = list(start)
    while queue:
        i, q = queue.pop()
        for q2 in b.successors(q, word[i]):
            nxt = (advance(i), q2)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    candidates = [(i, q) for (i, q) in seen if q in b.accepting and i >= wrap]
    for cand in candidates:
        # can the product return to this accepting configuration?
        frontier = [cand]
        visited = set()
        while frontier:
            i, q = frontier.pop()
            for q2 in b.successors(q, word[i]):
                nxt = (advance(i), q2)
                if nxt == cand:
                    return True
                if nxt not in visited:
                    visited.add(nxt)
                    frontier.append(nxt)
    return False


# ---------------------------------------------------------------------------
# progress checking


@dataclass(frozen=True)
class Lasso:
    """An infinite branch stem·cycle^ω, as node ids plus the child indices
    taken between them; cycle[0] is the node the stem lands on."""

    stem: Tuple[str, ...]
    cycle: Tuple[str, ...]
    stem_edges: Tuple[int, ...]
    cycle_edges: Tuple[int, ...]


def _compose_r(r1, r2):
    return tuple(_row_or(bits, r2) for bits in r1)


def _row_or(bits, rows):
    out = 0
    i = 0
    while bits:
        if bits & 1:
            out |= rows[i]
        bits >>= 1
        i += 1
    return out


def _find_unaccepted_branch(node_order, edges_of, root, states_of, initials, accepting, delta):
    """Core of the progress check, phrased over any edge-labelled graph whose
    automaton states are partitioned by node.  Returns None when every
    branch is accepted, otherwise (stem symbols, cycle symbols)."""
    index_of = {nid: {q: i for i, q in enumerate(states_of[nid])} for nid in node_order}

    def edge_profile(src, sym, dst):
        r_rows = []
        a_rows = []
        dst_index = index_of[dst]
        for q in states_of[src]:
            r = 0
            a = 0
            for q2 in delta.get((q, sym), ()):
                bit = 1 << dst_index[q2]
                r |= bit
                if q2 in accepting:
                    a |= bit
            r_rows.append(r)
            a_rows.append(a)
        return tuple(r_rows), tuple(a_rows)

    profiles_by_edge = {}
    for nid in node_order:
        for sym, dst in edges_of[nid]:
            profiles_by_edge[sym] = (nid, dst, edge_profile(nid, sym, dst))

    # strongly connected components of the node graph (loops live inside them)
    sccs = _sccs(node_order, edges_of)
    scc_of = {}
    for comp in sccs:
        for nid in comp:
            scc_of[nid] = id(comp)
    cyclic_nodes = set()
    for comp in sccs:
        nontrivial = len(comp) > 1 or any(
            dst == comp[0] for _, dst in edges_of[comp[0]]
        )
        if nontrivial:
            cyclic_nodes.update(comp)

    # stems: reachability profiles of all finite paths from the root
    ident = tuple(1 << i for i in range(len(states_of[root])))
    stems = {(root, ident): ()}
    stem_queue = [(root, ident)]
    while stem_queue:
        m, r = stem_queue.pop(0)
        witness = stems[(m, r)]
        for sym, dst in edges_of[m]:
            _, _, (re_, _) = profiles_by_edge[sym]
            r2 = _compose_r(r, re_)
            key = (dst, r2)
            if key not in stems:
                stems[key] = witness + (sym,)
                stem_queue.append(key)

    # loop profiles: (start, end, R, A) of paths inside one SCC
    loops = {}
    loop_queue = []
    for nid in node_order:
        if nid not in cyclic_nodes:
            continue
        for sym, dst in edges_of[nid]:
            if dst not in cyclic_nodes or scc_of[dst] != scc_of[nid]:
                continue
            _, _, (re_, ae_) = profiles_by_edge[sym]
            key = (nid, dst, re_, ae_)
            if key not in loops:
                loops[key] = (sym,)
                loop_queue.append(key)
    while loop_queue:
        key = loop_queue.pop(0)
        u, v, r, a = key
        witness = loops[key]
        for sym, dst in edges_of[v]:
            if dst not in cyclic_nodes or scc_of[dst] != scc_of[u]:
                continue
            _, _, (re_, ae_) = profiles_by_edge[sym]
            r2 = _compose_r(r, re_)
            a2 = tuple(
                _row_or(a_row, re_) | _row_or(r_row, ae_)
                for r_row, a_row in zip(r, a)
            )
            key2 = (u, dst, r2, a2)
            if key2 not in loops:
                loops[key2] = witness + (sym,)
                loop_queue.append(key2)

    init_idx = [index_of[root][q] for q in initials]
    stem_items = list(stems.items())
    for (u, v, r, a), loop_witness in loops.items():
        if u != v:
            continue
        rr = _compose_r(r, r)
        aa = tuple(_row_or(a_row, r) | _row_or(r_row, a) for r_row, a_row in zip(r, a))
        if rr != r or aa != a:
            continue  # not idempotent
        diag = 0
        for j, a_row in enumerate(a):
            if (a_row >> j) & 1:
                diag |= 1 << j
        for (m, r_stem), stem_witness in stem_items:
            if m != u:
                continue
            r_total = _compose_r(r_stem, r)
            if not any(r_total[i] & diag for i in init_idx):
                return stem_witness, loop_witness
    return None


def _sccs(node_order, edges_of):
    index = {}
    low = {}
    onstack = set()
    stack = []
    out = []
    counter = [0]

    for start in node_order:
        if start in index:
            continue
        work = [(start, iter([d for _, d in edges_of[start]]))]
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
                    work.append((u, iter([d for _, d in edges_of[u]])))
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


def _progress_lasso(p: ProofGraph) -> Optional[Lasso]:
    """None when every infinite branch of a locally valid proof has a
    progressing trace; otherwise a lasso branch with no such trace,
    re-verified by replaying it through the trace automaton."""
    bp = build_trace_automaton(p)
    by_node = {nid: [] for nid in p.order}
    for st in bp.states:
        by_node[st.node].append(st)
    states_of = {nid: tuple(sts) for nid, sts in by_node.items()}
    edges_of = {
        nid: tuple(((nid, j), child) for j, child in enumerate(p.children[nid]))
        for nid in p.order
    }
    found = _find_unaccepted_branch(
        p.order, edges_of, p.root, states_of, bp.initials, bp.accepting, bp.transitions
    )
    if found is None:
        return None
    stem_syms, cycle_syms = found
    if accepts_lasso(bp, stem_syms, cycle_syms):
        raise RuntimeError("internal error: counterexample lasso has a progressing trace")
    stem_nodes = [p.root]
    for nid, j in stem_syms:
        stem_nodes.append(p.children[nid][j])
    cycle_nodes = [stem_nodes[-1]]
    for nid, j in cycle_syms[:-1]:
        cycle_nodes.append(p.children[nid][j])
    return Lasso(
        stem=tuple(stem_nodes),
        cycle=tuple(cycle_nodes),
        stem_edges=tuple(j for _, j in stem_syms),
        cycle_edges=tuple(j for _, j in cycle_syms),
    )


@dataclass(frozen=True)
class CheckResult:
    ok: bool
    violations: Tuple[str, ...]
    lasso: Optional[Lasso]

    @property
    def reason(self) -> str:
        if self.ok:
            return "accepted"
        return "local" if self.violations else "progress"


def check(p: ProofGraph) -> CheckResult:
    """check_local, then, on a locally valid proof only, the progress check."""
    violations = check_local(p)
    if violations:
        return CheckResult(False, tuple(violations), None)
    lasso = _progress_lasso(p)
    if lasso is not None:
        return CheckResult(False, (), lasso)
    return CheckResult(True, (), None)
