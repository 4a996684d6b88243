import functools
import itertools
import random
import re
import sys
import tracemalloc
from collections import Counter, defaultdict

import pytest

import rll.calculus as calculus_module
import rll.proof as proof_module
from rll.calculus import PRINCIPAL_RULES, FormulaTable, Sequent, parse_sequent
from rll.corpus import ALPHABET, DECISIONS, proofs
from rll.decide import BudgetExceededError, Proved, decide, saturate
from rll.expr import Alphabet, Cap, Expr, Mu, Nu, ParseError, Var, complement, expr_sort_key, fl_closure, parse
from rll.proof import (
    Lasso,
    ProofGraph,
    accepts_lasso,
    build_trace_automaton,
    check,
    check_local,
    parse_proof,
    serialize_proof,
    _components,
    _find_unaccepted_branch,
    tarjan,
)
from oracles import (
    BuchiAutomaton,
    RuleInstance,
    all_live,
    complement_buchi,
    edges_of,
    from_records,
    gen_guarded_sequent,
    gen_word,
    graph_of,
    instances,
    make_instance,
    one_node_automaton,
    ref_check_local,
    ref_find_unaccepted_branch,
    ref_live_nodes,
    ref_numbered_states,
    ref_parse_proof,
    ref_trace_automaton,
    ref_violation,
    sequent_of,
    unroll_edge,
    validate_instance,
)
from golden import graphs as graph_gate, scale
from golden.rows import workloads
from golden.scale import trace_state_counts
from test_acceptance import PAPER_PROOF_NAMES

AB = ALPHABET
FIXTURES = proofs()


def _loop(seq_text, rule, principal_text=None):
    s = parse_sequent(seq_text, AB)
    principal = parse(principal_text, AB) if principal_text else None
    return graph_of([("n0", make_instance(rule, s, principal), ("n0",))], "n0")


# ---------------------------------------------------------------------------
# graph construction


def test_graphs_validate_their_shape():
    s = parse_sequent("mu X. X |- nu X. X", AB)
    inst = make_instance("μ-l", s, parse("mu X. X", AB))
    with pytest.raises(ValueError, match="duplicate node id"):
        graph_of([("n0", inst, ("n0",)), ("n0", inst, ("n0",))], "n0")
    with pytest.raises(ValueError, match="root"):
        graph_of([("n0", inst, ("n0",))], "missing")
    with pytest.raises(ValueError, match="unknown child"):
        graph_of([("n0", inst, ("n1",))], "n0")
    with pytest.raises(ValueError, match="unreachable"):
        graph_of([("n0", inst, ("n0",)), ("orphan", inst, ("orphan",))], "n0")


# a graph's shape is checked where it is built: a node over another alphabet
# never makes a ProofGraph.  A node's premisses are its children's cedents,
# so children that do not carry them are a rule schema violation, which
# check_local reports


MU_L_MISMATCH = "node n0: premisses do not match the μ-l schema for this conclusion"


def test_local_check_reports_child_mismatches():
    s = parse_sequent("mu X. X |- nu X. X", AB)
    other = parse_sequent("nu X. X |- nu X. X", AB)
    inst = make_instance("μ-l", s, parse("mu X. X", AB))
    bad_child = make_instance("ν-l", other, parse("nu X. X", AB))
    p = graph_of([("n0", inst, ("n1",)), ("n1", bad_child, ("n1",))], "n0")
    assert check_local(p) == [MU_L_MISMATCH]
    assert check(p).violations == (MU_L_MISMATCH,)


def test_local_check_requires_axiom_leaves():
    s = parse_sequent("mu X. X |- nu X. X", AB)
    inst = make_instance("μ-l", s, parse("mu X. X", AB))
    for kids in [(), ("n0", "n0")]:
        assert check_local(graph_of([("n0", inst, kids)], "n0")) == [MU_L_MISMATCH]
    assert check_local(graph_of([("n0", inst, ("n0",))], "n0")) == []


def test_graphs_refuse_a_node_over_another_alphabet():
    mu = parse("mu X. X", AB)
    s, wide = parse_sequent("mu X. X |-", AB), parse_sequent("mu X. X |-", Alphabet("abc"))
    forged = RuleInstance("μ-l", s, mu, (wide,))
    with pytest.raises(ValueError, match="node 'n1': alphabet differs from the root's"):
        graph_of([("n0", forged, ("n1",)), ("n1", make_instance("μ-l", wide, mu), ("n1",))], "n0")


def test_progress_requires_a_locally_valid_graph():
    # a forged μ-l premiss, carried by a child that loops: the graph builds,
    # and check stops at the local violation without a progress search
    s = parse_sequent("mu X. X |- nu X. X", AB)
    forged = parse_sequent("nu X. X |- nu X. X", AB)
    inst = RuleInstance("μ-l", s, parse("mu X. X", AB), (forged,))
    child = make_instance("ν-l", forged, parse("nu X. X", AB))
    r = check(graph_of([("n0", inst, ("n1",)), ("n1", child, ("n1",))], "n0"))
    assert r.reason == "local" and r.lasso is None
    assert r.violations == ("node n0: premisses do not match the μ-l schema for this conclusion",)


def _mutants(p, rng):
    """One-node mutations of p, each as (kind, mutated node, graph): in a
    node of each class (formula rules, letter rules), its rule swapped for
    another of that class or for any rule, and its principal replaced by
    another code (a cedent formula, a letter or none); one child pointed at
    another node; and a +-l given its context-dropping second premiss, a new
    node copied from the old second child with the context dropped."""
    n = len(p.order)
    letter_rules = ["l-p", "r-p", "h_z"] + ["h_" + c for c in p.alphabet]

    def mutant(kind, v, rule=None, principal=None, children=None, extra=None):
        fields = [list(p.lhs), list(p.rhs), list(p.rule), list(p.principal), list(p.children)]
        for k, value in enumerate((None, None, rule, principal, children)):
            if value is not None:
                fields[k][v] = value[0]
        order = p.order
        if extra is not None:
            order += ("n%d" % n,)
            for k, value in enumerate(extra):
                fields[k].append(value)
        return kind, v, ProofGraph(p.table, order, *fields, p.root)

    def swapped(kind, v, rules):
        """v's rule swapped for another of rules, with a principal of the
        kind that the new rule takes, so that its later side conditions are
        reached too."""
        rule = rng.choice([r for r in rules if r != p.rule[v]])
        if rule in PRINCIPAL_RULES:
            cedent = p.lhs[v] | p.rhs[v]
            principal = rng.choice([k for k in range(len(p.table.formulas)) if cedent >> k & 1] or [None])
        else:
            principal = rule[2:] if rule.startswith("h_") else None
        return mutant(kind, v, rule=[rule], principal=[principal])

    for rules in (list(PRINCIPAL_RULES), letter_rules):
        nodes = [v for v in range(n) if p.rule[v] in rules or p.rule[v].startswith("h_") and "h_z" in rules]
        if nodes:
            v = rng.choice(nodes)
            yield swapped("rule", v, rules)
            yield swapped("any rule", v, list(PRINCIPAL_RULES) + letter_rules)
            v = rng.choice(nodes)
            cedent = p.lhs[v] | p.rhs[v]
            codes = [k for k in range(len(p.table.formulas)) if cedent >> k & 1] + list(p.alphabet) + [None]
            yield mutant("principal", v, principal=[rng.choice([c for c in codes if c != p.principal[v]])])
    parents = [u for u in range(n) if p.children[u]]
    if parents:
        u = rng.choice(parents)
        kids = list(p.children[u])
        kids[rng.randrange(len(kids))] = rng.randrange(n)
        yield mutant("child", u, children=[tuple(kids)])
    plus = [u for u in range(n) if p.rule[u] == "+-l"]
    if plus:
        u = rng.choice(plus)
        old = p.children[u][1]
        right = p.table.aux[0][p.principal[u]][1]
        extra = (right, p.rhs[u], p.rule[old], p.principal[old], p.children[old])
        yield mutant("degenerate", u, children=[(p.children[u][0], n)], extra=extra)


def _template(text):
    """A violation text with its letters and h_ rule names masked."""
    return re.sub(r"with [a-z]$", "with ?", re.sub(r"'[a-z]+'", "'?'", re.sub(r"h_[a-z]+", "h_?", text)))


def test_the_mask_schema_gives_the_sequent_schema_violations_on_mutated_graphs():
    # every violation text of check_local, pinned against ref_check_local,
    # which states the schema over sequents and shares no code with the masks
    rng = random.Random(3141)
    kinds, texts = Counter(), Counter()
    for p in _random_saturated_graphs(seed=2718, n=300):
        assert check_local(p) == ref_check_local(p) == []
        for kind, v, q in _mutants(p, rng):
            violations = check_local(q)
            assert violations == ref_check_local(q), (kind, serialize_proof(q))
            inst = instances(q)[v]
            assert validate_instance(inst) == ref_violation(inst.rule, inst.conclusion, inst.principal, inst.premisses)
            mine = [text.split(": ", 1)[1] for text in violations if text.startswith("node %s: " % q.order[v])]
            kinds[kind, bool(mine)] += 1
            texts.update(map(_template, mine))
    # a context-dropping +-l is always accepted; the other mutations break
    # their node, a moved child now and then landing on an equal sequent
    assert kinds["degenerate", True] == 0 and kinds["degenerate", False] > 50, kinds
    assert all(kinds[kind, True] for kind in ("rule", "any rule", "principal", "child")) and kinds["child", False]
    # each side condition's text: one for each of the 14 formula rules, and
    # 3 for l-p, 3 for r-p and 5 for h_a; and a schema mismatch for each rule
    # but 0-l, ⊤-r and l-p, which have no premiss to mismatch
    side_conditions = [t for t in texts if not t.startswith("premisses do not match")]
    assert len(side_conditions) == 14 + 3 + 3 + 5, "\n".join(sorted(texts))
    assert len(texts) - len(side_conditions) == 14 + 2 - 2, sorted(texts)


# ---------------------------------------------------------------------------
# the four single-node loops


def test_left_unfolding_the_empty_fixpoint_is_a_proof():
    r = check(_loop("mu X. X |- nu X. X", "μ-l", "mu X. X"))
    assert r.ok and r.reason == "accepted"


def test_right_unfolding_the_universal_fixpoint_is_a_proof():
    r = check(_loop("mu X. X |- nu X. X", "ν-r", "nu X. X"))
    assert r.ok


def test_left_unfolding_the_universal_fixpoint_is_rejected():
    r = check(_loop("nu X. X |- mu X. X", "ν-l", "nu X. X"))
    assert not r.ok and r.reason == "progress"
    assert r.lasso == Lasso(stem=(), cycle=((0, 0),))


def test_right_unfolding_the_empty_fixpoint_is_rejected():
    r = check(_loop("nu X. X |- mu X. X", "μ-r", "mu X. X"))
    assert not r.ok and [v for v, _ in r.lasso.cycle] == [0]


def test_an_ascii_rule_alias_is_stored_under_its_rule_name():
    # and a principal with named binders is stored canonical
    s = parse_sequent("mu X. X |-", AB)
    loops = [from_records([("n0", s, rule, principal, ("n0",))], "n0")
             for rule, principal in [("μ-l", parse("mu X. X", AB)), ("mu-l", parse("mu X. X", AB)),
                                     ("mu-l", Mu("X", Var("X")))]]
    assert instances(loops[0])[0].rule == "μ-l" and instances(loops[0])[0].principal is parse("mu X. X", AB)
    for loop in loops[1:]:
        assert instances(loop) == instances(loops[0])
        assert check(loop) == check(loops[0]) and check(loop).ok
        assert serialize_proof(loop) == serialize_proof(loops[0])
    assert "rule μ-l principal mu X. X" in serialize_proof(loops[0])


def test_an_empty_root_sequent_rejects_every_branch():
    s = parse_sequent("|-", AB)
    p = graph_of([("n0", make_instance("r-p", s), ("n0", "n0"))], "n0")
    r = check(p)
    assert not r.ok and r.reason == "progress"
    assert [v for v, _ in r.lasso.cycle] == [0]


def test_a_finite_axiom_tree_is_vacuously_progressing():
    s = parse_sequent("a 0, b T |-", AB)
    p = graph_of([("n0", make_instance("l-p", s), ())], "n0")
    assert check(p).ok


# ---------------------------------------------------------------------------
# bundled proof fixtures


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_bundled_proofs_check_as_expected(name):
    p, expected = FIXTURES[name]
    r = check(p)
    assert not check_local(p)
    assert r.ok == expected
    if not expected:
        assert r.lasso is not None


def test_the_five_main_fixtures_are_all_accepted():
    assert len(PAPER_PROOF_NAMES) == 5
    for name in PAPER_PROOF_NAMES:
        p, expected = FIXTURES[name]
        assert expected and check(p).ok, name


def _random_saturated_graphs(seed, n=200):
    """Saturations of n seeded random guarded sequents over 2 or 3 letters."""
    rng = random.Random(seed)
    for _ in range(n):
        alphabet = Alphabet(rng.choice(("ab", "abc")))
        yield saturate(gen_guarded_sequent(rng, alphabet))


def _assert_genuine_counterbranch(p, lasso):
    assert not accepts_lasso(build_trace_automaton(p, all_live(p)), lasso.stem, lasso.cycle)
    # and the lasso really is a branch of the graph: the stem leaves the
    # root, each edge leaves the node the one before it enters, and the stem
    # lands on the cycle's first node, where the cycle returns
    start = lasso.cycle[0][0]
    at = p.root
    for v, j in lasso.stem:
        assert v == at
        at = p.children[v][j]
    assert at == start
    for v, j in lasso.cycle:
        assert v == at
        at = p.children[v][j]
    assert at == start


def _assert_unrolling_preserves_the_verdict(p, before):
    for v, kids in enumerate(p.children):
        for j in range(len(kids)):
            assert check(unroll_edge(p, v, j)).ok == before, (v, j)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_rejection_lassos_are_genuine_counterbranches(name):
    p, _ = FIXTURES[name]
    lasso = check(p).lasso
    if lasso is None:
        return
    _assert_genuine_counterbranch(p, lasso)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_unrolling_any_edge_preserves_the_verdict(name):
    p, expected = FIXTURES[name]
    before = check(p).ok
    assert before == expected
    _assert_unrolling_preserves_the_verdict(p, before)


def test_random_saturated_graphs_keep_their_verdicts_and_genuine_lassos():
    rejected = 0
    for p in _random_saturated_graphs(seed=52):
        r = check(p)
        assert not r.violations
        if not r.ok:
            rejected += 1
            _assert_genuine_counterbranch(p, r.lasso)
        _assert_unrolling_preserves_the_verdict(p, r.ok)
    assert 20 <= rejected <= 180  # both verdicts are well represented


def _with_unrolled_edges(p):
    """p and every unroll_edge variant of it."""
    yield p
    for v, kids in enumerate(p.children):
        for j in range(len(kids)):
            yield unroll_edge(p, v, j)


def test_the_progress_search_returns_the_reference_lasso():
    graphs = [p for p, _ in FIXTURES.values()]
    graphs += [saturate(s) for _, s, _ in DECISIONS]
    graphs += _random_saturated_graphs(seed=20261020)
    rejected = accepted = 0
    for p in graphs:
        for g in _with_unrolled_edges(p):
            automaton = build_trace_automaton(g, all_live(g))
            ref = ref_find_unaccepted_branch(g.children, automaton)
            assert _find_unaccepted_branch(g.children, automaton, _components(g.children)) == ref
            # and check answers with the same branch, or with none
            r = check(g)
            assert not r.violations
            if ref is None:
                assert r.lasso is None
                accepted += 1
            else:
                assert r.lasso == Lasso(*ref)
                rejected += 1
    assert accepted >= 100 and rejected >= 100  # both verdicts are well represented


def _large_band_graphs():
    """The saturated graphs of the larger band that tests/golden/graphs.py
    draws after its first 1,000 seeds: sequents of up to LARGE_SIZE AST
    nodes per formula and LARGE_SIDE formulas per side, over ab for an even
    seed and abc for an odd one, saturated within LARGE_BUDGET sequents."""
    for seed in range(1000, 1250):
        rng = random.Random(seed)
        alphabet = Alphabet("abc" if seed % 2 else "ab")
        s = gen_guarded_sequent(rng, alphabet, graph_gate.LARGE_SIZE, graph_gate.LARGE_SIDE)
        try:
            yield saturate(s, graph_gate.LARGE_BUDGET)
        except BudgetExceededError:
            pass


def test_the_progress_search_returns_the_reference_lasso_on_large_graphs():
    # the decide workload under both benchmark seeds' letters, where most of
    # the witness pass's work lies, and the large band of the graph gate
    graphs = [*_decide_workload_graphs(7), *_decide_workload_graphs(20260815), *_large_band_graphs()]
    rejected = 0
    for p in graphs:
        automaton = build_trace_automaton(p, all_live(p))
        ref = ref_find_unaccepted_branch(p.children, automaton)
        assert _find_unaccepted_branch(p.children, automaton, _components(p.children)) == ref
        assert check(p).lasso == (None if ref is None else Lasso(*ref))
        rejected += ref is not None
    assert len(graphs) == 300 and 50 <= rejected <= 250  # both verdicts are well represented
    assert max(len(p.order) for p in graphs) > 500


def _edges(nodes, indices):
    """The edges (v, j) that take child index indices[i] out of nodes[i]."""
    return tuple(zip(nodes, indices, strict=True))


# The 3-letter refutations of the decide benchmark, over abc: interning
# merges the most profiles here.  Lassos and words recorded before the
# progress search interned its profiles; node i is named "n<i>" there.
# A lasso then listed the nodes of its stem, ending where its cycle starts,
# and those of its cycle, each with the child indices taken between them.
INF_A3 = "nu X. mu Y. (a X + b Y + c Y)"
INF_B3 = "nu X. mu Y. (b X + a Y + c Y)"
INF_C3 = "nu X. mu Y. (c X + a Y + b Y)"
FIN_A3 = "mu X. (a X + b X + c X + nu Y. (b Y + c Y))"
ANY3 = "nu X. (a X + b X + c X)"


THREE_LETTER_REFUTATIONS = {
    "inf-a3 & inf-b3 |- inf-c3 + fin-a3": (
        "%s & %s |- %s + %s" % (INF_A3, INF_B3, INF_C3, FIN_A3),
        Lasso(
            stem=_edges(range(16), (0,) * 16),
            cycle=_edges(
                (
                    17, 20, 23, 27, 35, 44, 53, 62, 71, 80, 89, 99, 110, 116, 122, 129, 136, 143, 151, 162,
                    175, 188, 201, 215, 232, 252, 275, 299, 322, 343, 364, 385, 407, 433, 459, 483, 504,
                    37, 46, 55, 64, 73, 82, 91, 101, 111, 118, 125, 132, 139, 146, 154, 165, 178, 191, 204,
                    218, 235, 255, 278, 302,
                ),
                (0, 0, 0, 1) + (0,) * 28 + (1,) + (0,) * 28,
            ),
        ),
        "(ab)^w",
    ),
    "any3 |- inf-a3 + inf-b3": (
        "%s |- %s + %s" % (ANY3, INF_A3, INF_B3),
        Lasso(
            stem=_edges((0, 1, 3, 6, 9, 12, 15, 18, 21, 24, 27), (0, 1) + (0,) * 9),
            cycle=_edges(
                (30, 33, 36, 39, 42, 45, 48, 51, 54, 57, 60, 64, 69, 73, 78, 84, 89, 92),
                (0,) * 13 + (1, 0, 0, 0, 0),
            ),
        ),
        "(c)^w",
    ),
}


@pytest.mark.parametrize("name", sorted(THREE_LETTER_REFUTATIONS))
def test_three_letter_refutations_keep_their_lasso(name):
    text, lasso, word = THREE_LETTER_REFUTATIONS[name]
    s = parse_sequent(text, Alphabet("abc"))
    p = saturate(s)
    automaton = build_trace_automaton(p, all_live(p))
    found = _find_unaccepted_branch(p.children, automaton, _components(p.children))
    assert found == ref_find_unaccepted_branch(p.children, automaton)
    assert p.order == tuple("n%d" % i for i in range(len(p.order)))
    assert check(p).lasso == lasso
    # the recorded node lists also fixed where the stem lands: cycle[0][0]
    _assert_genuine_counterbranch(p, lasso)
    assert str(decide(s).word) == word


def test_the_progress_search_composes_each_product_once(monkeypatch):
    text = THREE_LETTER_REFUTATIONS["inf-a3 & inf-b3 |- inf-c3 + fin-a3"][0]
    p = saturate(parse_sequent(text, Alphabet("abc")))
    automaton = build_trace_automaton(p, all_live(p))
    first_rejection, product, missing = (
        proof_module._first_rejection, proof_module._RowStep.product, proof_module._RowStep.__missing__)
    products, steps, passes = Counter(), Counter(), []

    def counting_product(step, profile):
        # an operand is named by its rows, and a profile by its row pairs
        products[tuple(map(step.pairs.values.__getitem__, profile)), step.rows, step.accepting] += 1
        return product(step, profile)

    def counting_missing(step, pair):
        steps[step.pairs.values[pair], step.rows, step.accepting] += 1
        return missing(step, pair)

    def recording_first_rejection(*args):
        passes.append(first_rejection(*args))
        return passes[-1]

    monkeypatch.setattr(proof_module._RowStep, "product", counting_product)
    monkeypatch.setattr(proof_module._RowStep, "__missing__", counting_missing)
    monkeypatch.setattr(proof_module, "_first_rejection", recording_first_rejection)
    found = _find_unaccepted_branch(p.children, automaton, _components(p.children))
    assert Lasso(*found) == THREE_LETTER_REFUTATIONS["inf-a3 & inf-b3 |- inf-c3 + fin-a3"][1]
    # the walk that the (R, A) matrices themselves give: the verdict pass and
    # the witness pass each stop at their first rejection, after these many
    # keys, and compose these many products over both passes
    assert [len(links) for _, links in passes] == [976, 41687]
    assert sum(products.values()) == 11566
    # each (profile, operand) product, idempotence tests (a profile composed
    # with itself) included, is composed once over both passes, and each
    # (row pair, operand) step is computed once over all of them
    assert max(products.values()) == 1
    assert steps and max(steps.values()) == 1
    assert sum(steps.values()) == 3275  # while the products map 172,357 row pairs through them
    keys = [key for _, links in passes for key in links]
    assert len({i for _, _, i in keys}) * 4 < len(keys)
    assert sum(products.values()) * 2 < len(keys)


def test_the_trace_build_asks_each_subformula_question_once(monkeypatch):
    text = THREE_LETTER_REFUTATIONS["inf-a3 & inf-b3 |- inf-c3 + fin-a3"][0]
    p = saturate(parse_sequent(text, Alphabet("abc")))
    subformula_leq, calls = proof_module.subformula_leq, Counter()

    def counting_subformula_leq(f, g):
        calls[f, g] += 1
        return subformula_leq(f, g)

    monkeypatch.setattr(proof_module, "subformula_leq", counting_subformula_leq)
    automaton = build_trace_automaton(p, all_live(p))
    assert sum(trace_state_counts(p.children, automaton)) == 8083
    # one question per (formula, critical formula) pair, however many states ask it
    assert calls and max(calls.values()) == 1


def _random_digraph(rng):
    """Up to 12 nodes with up to 3 out-edges each, drawn with repetition, so
    that self-loops, repeated edges and cycles nested in cycles all occur."""
    n = rng.randint(1, 12)
    return [tuple(rng.randrange(n) for _ in range(rng.randint(0, 3))) for _ in range(n)]


def _is_acyclic(nodes, children):
    """Kahn's algorithm on the subgraph induced by nodes."""
    indegree = dict.fromkeys(nodes, 0)
    for v in nodes:
        for c in children[v]:
            if c in indegree:
                indegree[c] += 1
    ready = [v for v in nodes if indegree[v] == 0]
    removed = 0
    while ready:
        v = ready.pop()
        removed += 1
        for c in children[v]:
            if c in indegree:
                indegree[c] -= 1
                if indegree[c] == 0:
                    ready.append(c)
    return removed == len(nodes)


def test_deleting_the_feedback_nodes_leaves_an_acyclic_graph():
    rng = random.Random(1104)
    graphs = [_random_digraph(rng) for _ in range(1000)]
    graphs += [p.children for p, _ in FIXTURES.values()]
    graphs += [saturate(s).children for _, s, _ in DECISIONS]
    for children in graphs:
        feedback = set()
        comps = tarjan(children, range(len(children)), feedback)
        assert sorted(v for comp in comps for v in comp) == list(range(len(children)))
        cyclic = {
            v for comp in comps if len(comp) > 1 or comp[0] in children[comp[0]] for v in comp
        }
        assert feedback <= cyclic
        assert _is_acyclic([v for v in range(len(children)) if v not in feedback], children), children


def _decide_workload_graphs(seed=7):
    """The saturated graphs of the benchmark's decide workload sequents,
    with the letters of the benchmark seed `seed`."""
    for row in workloads.build_rows("decide", seed):
        if row.kind == "decide":
            alphabet = Alphabet(row.argv[row.argv.index("--alphabet") + 1])
            yield saturate(parse_sequent(row.argv[row.argv.index("--sequent") + 1], alphabet))


# self-loops, and acyclic proofs, whose roots are dead
HAND_MADE_GRAPHS = (
    _loop("mu X. X |- nu X. X", "μ-l", "mu X. X"),
    _loop("nu X. X |- mu X. X", "ν-l", "nu X. X"),
    saturate(parse_sequent("0 |- 0", AB)),
    saturate(parse_sequent("a T + b T |- a T + b T", AB)),
)
# children tables; in the fifth, node 0 is dead while a cycle lies elsewhere
HAND_MADE_TABLES = ([()], [(0,)], [(1,), (2,), ()], [(1, 2), (1,), ()], [(1,), (), (3,), (2,)], [(1,), (1, 2), (2,)])


@functools.cache
def _liveness_graphs():
    """The decide workload's graphs, and every corpus proof, 1,000 random
    saturated graphs and the hand-made graphs, each of these with its
    unroll_edge variants."""
    graphs = [p for p, _ in FIXTURES.values()]
    graphs += _random_saturated_graphs(seed=20261021, n=1000)
    graphs += HAND_MADE_GRAPHS
    return [*_decide_workload_graphs(), *(g for p in graphs for g in _with_unrolled_edges(p))]


def _liveness_tables():
    """The children tables of the liveness graphs, 1,000 random digraphs
    and the hand-made tables."""
    rng = random.Random(2110)
    tables = [g.children for g in _liveness_graphs()]
    tables += [_random_digraph(rng) for _ in range(1000)]
    return tables + list(HAND_MADE_TABLES)


def test_liveness_is_reachability_of_a_cycle():
    some_dead = 0
    for children in _liveness_tables():
        live = _components(children)[2]
        assert {v for v, up in enumerate(live) if up} == ref_live_nodes(children), children
        some_dead += not all(live)
    assert [ref_live_nodes(children) for children in HAND_MADE_TABLES] == [set(), {0}, set(), {0, 1}, {2, 3}, {0, 1, 2}]
    assert some_dead >= 1000  # dead nodes are well represented


def test_components_over_live_nodes_are_those_of_a_whole_graph_tarjan():
    peeled = 0
    for children in _liveness_tables():
        scc_of, feedback, live = _components(children)
        whole_feedback = set()
        whole = tarjan(children, range(len(children)), whole_feedback)
        assert feedback == whole_feedback, children
        # an SCC is all live or all dead; the live ones are the SCCs that
        # _components numbers, and the dead nodes get none
        assert all(len({live[v] for v in comp}) == 1 for comp in whole)
        numbered = defaultdict(set)
        for v, i in enumerate(scc_of):
            numbered[i].add(v)
        assert numbered.pop(-1, set()) == {v for v, up in enumerate(live) if not up}, children
        assert set(map(frozenset, numbered.values())) == {frozenset(comp) for comp in whole if live[comp[0]]}
        peeled += len(numbered) < len(whole)
    assert peeled >= 1000  # graphs with dead SCCs are well represented


def _record_builds(monkeypatch):
    """The list of the automata that build_trace_automaton returns from now
    on, in call order."""
    built = []

    def recording_build(*args):
        built.append(build_trace_automaton(*args))
        return built[-1]

    monkeypatch.setattr(proof_module, "build_trace_automaton", recording_build)
    return built


def test_check_builds_the_whole_automaton_restricted_to_live_nodes(monkeypatch):
    built = _record_builds(monkeypatch)
    rejected = restricted = dead_roots = 0
    for g in _liveness_graphs():
        built.clear()
        r = check(g)
        assert not r.violations and len(built) == 1
        automaton = built[0]
        components = _components(g.children)
        live = components[2]
        whole = build_trace_automaton(g, all_live(g))
        assert automaton.root == whole.root and automaton.initials == whole.initials
        assert automaton.accepting == tuple(a if up else 0 for a, up in zip(whole.accepting, live))
        # no states at dead nodes but the root's initial ones, and every row
        # into a dead child is 0
        counts = trace_state_counts(g.children, automaton)
        whole_counts = trace_state_counts(g.children, whole)
        assert counts == [n if up or v == g.root else 0 for v, (n, up) in enumerate(zip(whole_counts, live))]
        for v, kids in enumerate(g.children):
            for j, c in enumerate(kids):
                assert automaton.reach[v][j] == (whole.reach[v][j] if live[c] else (0,) * counts[v]), (v, j)
        ref = ref_find_unaccepted_branch(g.children, whole)
        assert _find_unaccepted_branch(g.children, automaton, components) == ref
        assert r.lasso == (None if ref is None else Lasso(*ref))
        rejected += ref is not None
        restricted += not all(live)
        dead_roots += not live[g.root]
    # both verdicts, pruning and dead roots are well represented
    assert rejected >= 1000 and restricted >= 1000 and dead_roots >= 100


def test_check_runs_tarjan_once(monkeypatch):
    calls = []
    monkeypatch.setattr(proof_module, "tarjan", lambda *args: calls.append(args) or tarjan(*args))
    for text, _, _ in THREE_LETTER_REFUTATIONS.values():
        calls.clear()
        assert not check(saturate(parse_sequent(text, Alphabet("abc")))).ok
        assert len(calls) == 1


@pytest.mark.parametrize("row, live_nodes, states", [("fin_c", 186, 1257), ("refuted-3", 214, 2951)])
def test_check_builds_its_trace_automaton_over_live_nodes_only(monkeypatch, row, live_nodes, states):
    built = _record_builds(monkeypatch)
    p = scale.saturated(row)
    check(p)
    assert sum(_components(p.children)[2]) == live_nodes
    assert sum(trace_state_counts(p.children, built[0])) == states


def _assert_matches_the_labelled_reference(p):
    bp = build_trace_automaton(p, all_live(p))
    ref = ref_trace_automaton(p)
    numbered = ref_numbered_states(ref, len(p.order))  # numbered[v][k] is what state k of v tracks

    assert all(st.phase == ("search" if st.critical is None else "committed") for st in ref.states)
    for v, states in enumerate(numbered):  # a state tracks a formula of its node's cedent on its side
        s = sequent_of(p, v)
        assert all(st.formula in (s.lhs if st.side == "L" else s.rhs) for st in states)
        # a critical formula is a left mu or a right nu
        assert all(isinstance(st.critical, Mu if st.side == "L" else Nu) for st in states if st.critical is not None)
    assert len(bp.accepting) == len(bp.reach) == len(p.order)
    assert trace_state_counts(p.children, bp) == list(map(len, numbered))
    assert [numbered[p.root][k] for k in bp.initials] == list(ref.initials)
    accepting = {st for v, states in enumerate(numbered) for k, st in enumerate(states) if bp.accepting[v] >> k & 1}
    assert accepting == ref.accepting
    assert all(mask >> len(numbered[v]) == 0 for v, mask in enumerate(bp.accepting))
    for v, states in enumerate(numbered):
        for j, child in enumerate(p.children[v]):
            assert len(bp.reach[v][j]) == len(states)
            for k, (st, row) in enumerate(zip(states, bp.reach[v][j])):
                assert row >> len(numbered[child]) == 0
                successors = {t for k2, t in enumerate(numbered[child]) if row >> k2 & 1}
                assert successors == set(ref.successors(st, (v, j))), (v, k, j)


def test_numbered_trace_automaton_matches_the_labelled_reference():
    graphs = [p for p, _ in FIXTURES.values()]
    graphs += [saturate(s) for _, s, _ in DECISIONS]
    graphs += _random_saturated_graphs(seed=20261018)
    for p in graphs:
        for g in _with_unrolled_edges(p):
            _assert_matches_the_labelled_reference(g)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_node_formulas_stay_inside_the_root_closures(name):
    p, _ = FIXTURES[name]
    root = sequent_of(p, p.root)
    universe = set()
    for f in root.lhs | root.rhs:
        universe.update(fl_closure(f).members)
    for nid, inst in zip(p.order, instances(p)):
        s = inst.conclusion
        assert (s.lhs | s.rhs) <= universe, nid


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_trace_automaton_size_is_within_its_bound(name):
    p, _ = FIXTURES[name]
    bp = build_trace_automaton(p, all_live(p))
    formulas = set()
    for inst in instances(p):
        formulas |= inst.conclusion.lhs | inst.conclusion.rhs
    bound = len(p.order) * 2 * len(formulas) * (len(formulas) + 1)
    counts = trace_state_counts(p.children, bp)
    assert sum(counts) <= bound
    edges = {(v, j) for v, kids in enumerate(p.children) for j in range(len(kids))}
    assert {(v, j) for v, rows in enumerate(bp.reach) for j in range(len(rows))} == edges
    for v, rows in enumerate(bp.reach):
        assert all(len(per_state) == counts[v] for per_state in rows)
    root = sequent_of(p, p.root)
    assert len(bp.initials) == len(root.lhs) + len(root.rhs)


def _valid_at(s, w):
    from rll.semantics import member

    return (not all(member(w, e) for e in s.lhs_sorted)) or any(
        member(w, f) for f in s.rhs_sorted
    )


def test_accepted_proofs_have_valid_roots_on_sampled_words():
    from rll.semantics import UPWord

    rng = random.Random(414243)
    words = [UPWord(*gen_word(rng, AB, max_stem=3, max_loop=3), AB) for _ in range(40)]
    for name in PAPER_PROOF_NAMES:
        p, _ = FIXTURES[name]
        root = sequent_of(p, p.root)
        for w in words:
            assert _valid_at(root, w), (name, str(w))


# ---------------------------------------------------------------------------
# proof files


def _read(parse_file, text):
    """The fields of the graph that parse_file reads from text (its table's
    formulas, node names, cedent masks, rules, principal codes, children
    and root), or the type and text of the error it raises."""
    try:
        q = parse_file(text)
    except ValueError as err:
        return type(err), str(err)
    return (q.table.alphabet, q.table.formulas, q.order, q.lhs, q.rhs, q.rule, q.principal, q.children, q.root)


def _assert_reads_as_the_reference(text):
    """parse_proof reads text as ref_parse_proof does, field by field or
    error by error; returns the graph, or None when both refuse it."""
    got = _read(parse_proof, text)
    assert got == _read(ref_parse_proof, text)
    return None if type(got[0]) is type else parse_proof(text)


def _assert_round_trips(p):
    """parse_proof(serialize_proof(p)) re-serializes byte for byte, reads
    as ref_parse_proof reads it and has the same nodes, instances, children
    and verdict; returns the verdict."""
    text = serialize_proof(p)
    p2 = _assert_reads_as_the_reference(text)
    assert serialize_proof(p2) == text
    assert p2.order == p.order and p2.root == p.root
    assert instances(p2) == instances(p) and p2.children == p.children
    # the file's formulas number the same table, so the cedent masks are equal too
    assert (p2.table.formulas, p2.lhs, p2.rhs, p2.rule, p2.principal) == (
        p.table.formulas, p.lhs, p.rhs, p.rule, p.principal)
    verdict = check(p).ok
    assert check(p2).ok == verdict
    return verdict


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_proof_files_round_trip(name):
    _assert_round_trips(FIXTURES[name][0])


@pytest.mark.parametrize("name", ["fin_c", "refuted-3"])
def test_serialize_proof_holds_one_copy_of_the_text(name):
    p = scale.saturated(name)
    size = sys.getsizeof(serialize_proof(p))  # renders every formula's text, which it then holds
    tracemalloc.start()
    try:
        serialize_proof(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the lines, and the text that joins them: no second copy of the text
    assert peak <= 2 * size


def test_saturated_graphs_round_trip_through_proof_files():
    verdicts = [_assert_round_trips(p) for p in _random_saturated_graphs(seed=3131)]
    assert 20 <= verdicts.count(False) <= 180  # both verdicts are well represented


def test_proof_files_accept_ascii_rule_aliases_and_comments():
    text = """
# a one-node cyclic proof
alphabet: ab
node n0: mu X. X |- nu X. X ; rule mu-l principal mu X. X ; children n0
root n0
"""
    p = parse_proof(text)
    assert p.order == ("n0",) and instances(p)[0].rule == "μ-l"
    assert check(p).ok


def test_proof_files_infer_an_omitted_principal():
    text = (
        "alphabet: ab\n"
        "node n0: mu X. X |- nu X. X ; rule mu-l ; children n0\n"
        "root n0\n"
    )
    p = parse_proof(text)
    assert p.order == ("n0",) and instances(p)[0].principal == parse("mu X. X", AB)


ONE_NODE_PROOF = "alphabet: ab\nnode n0: mu X. X |- nu X. X ; rule mu-l principal mu X. X ; children n0\nroot n0\n"


def test_proof_file_keywords_may_be_followed_by_any_whitespace_or_end_their_clause():
    spaced = ONE_NODE_PROOF.replace("root n0", "root\tn0").replace("principal mu", "principal\tmu")
    assert check(parse_proof(spaced)).ok
    p = parse_proof("alphabet: ab\nnode n0: 0 |- ; rule 0-l ; children\nroot n0")
    assert p.order == ("n0",) and p.children == ((),) and check(p).ok


@pytest.mark.parametrize(
    "text, message",
    [
        ("node n0: |- ; rule r-p ; children n0, n0\nroot n0", "alphabet"),
        ("alphabet: ab\nroot n0", "no node records"),
        ("alphabet: ab\nnode n0: |- ; rule r-p ; children n0, n0", "missing root"),
        (
            "alphabet: ab\nnode n0: |- ; rule r-p ; children n0, n1\nroot n0",
            "unknown child",
        ),
        (
            "alphabet: ab\nnode n0: |- ; rule cut ; children\nroot n0",
            "node n0: unknown rule 'cut'",
        ),
        (
            "alphabet: ab\nnode n0: mu X. X |- ; rule h_a principal b ; children n0\nroot n0",
            "acts on the letter",
        ),
        (
            "alphabet: ab\nnode n0: a 0, b 0 |- a 0 ; rule l-w ; children n0\nroot n0",
            "undetermined",
        ),
    ]
    + [  # a keyword glued to its value
        (ONE_NODE_PROOF.replace(keyword, glued), message)
        for keyword, glued, message in [
            ("root n0", "rootn0", "unrecognised proof line: 'rootn0'"),
            ("rule mu-l", "rulemu-l", "node n0: missing rule clause"),
            ("rule mu-l", "ruleμ-l", "node n0: missing rule clause"),
            ("principal mu", "principalmu", "node n0: unexpected text after the rule name"),
            ("children n0", "childrenn0", "node n0: expected a children clause"),
        ]
    ],
)
def test_malformed_proof_files_are_rejected(text, message):
    with pytest.raises(ParseError, match=message):
        parse_proof(text)


def _principal_less_proofs():
    """The bundled proofs and 100 random saturated graphs, each as
    (graph, rule renaming, text without principal clauses), read as written
    and with l-w and r-w swapped."""
    graphs = [p for p, _ in proofs().values()] + list(_random_saturated_graphs(24, n=100))
    swapped = {"l-w": "r-w", "r-w": "l-w"}
    for p, swap in itertools.product(graphs, ({}, swapped)):
        text = re.sub(r" principal [^;]*(?= ; children)", "", serialize_proof(p))
        text = re.sub(r"rule ([lr]-w) ", lambda m: "rule %s " % swap.get(m.group(1), m.group(1)), text)
        yield p, swap, text


def test_an_omitted_principal_is_inferred_as_a_scan_of_every_formula_infers_it():
    # the reference tries no principal and every formula of the conclusion;
    # parse_proof tries only the rule's side and class, with the same result
    outcomes = Counter()
    for p, swap, text in _principal_less_proofs():
        expected = []
        for nid, inst in zip(p.order, instances(p)):
            if not isinstance(inst.principal, Expr):
                expected.append(inst.principal)
                continue
            rule, conc = swap.get(inst.rule, inst.rule), inst.conclusion
            matching = [
                cand
                for cand in [None, *sorted(conc.lhs | conc.rhs, key=expr_sort_key)]
                if validate_instance(RuleInstance(rule, conc, cand, inst.premisses)) is None
            ]
            if len(matching) != 1:
                expected = "node %s: principal formula for %s is %s; write it explicitly" % (
                    nid, rule, "ambiguous" if matching else "undetermined")
                break
            expected.append(matching[0])
        if isinstance(expected, list):
            assert [inst.principal for inst in instances(parse_proof(text))] == expected
            outcomes["inferred"] += 1
        else:
            with pytest.raises(ParseError) as info:
                parse_proof(text)
            assert str(info.value) == expected
            outcomes["refused"] += 1
    assert outcomes["inferred"] > outcomes["refused"] > 0


def test_an_omitted_principal_never_has_two_candidates():
    # parse_proof takes the first matching principal, which is safe: on
    # these graphs, at every node, no principal or at most one formula of
    # the conclusion gives the node's premisses, so every refusal is
    # "undetermined".  Two principals of one rule differ in the first
    # premiss of each path, which keeps the other one, unless a principal is
    # its own unfolding, and only mu X. X and nu X. X are, one term each
    candidates = Counter()
    for p, swap, text in _principal_less_proofs():
        for inst in instances(p):
            if isinstance(inst.principal, Expr):
                rule, conc = swap.get(inst.rule, inst.rule), inst.conclusion
                matching = [
                    cand
                    for cand in [None, *conc.lhs | conc.rhs]
                    if validate_instance(RuleInstance(rule, conc, cand, inst.premisses)) is None
                ]
                assert len(matching) <= 1, (rule, str(conc), matching)
                candidates[len(matching)] += 1
        try:
            parse_proof(text)
        except ParseError as err:
            assert str(err).endswith(" is undetermined; write it explicitly"), str(err)
            candidates["refused"] += 1
    assert candidates[0] and candidates[1] and candidates["refused"], candidates


def test_a_formula_text_is_parsed_once_per_proof_file(monkeypatch):
    calls = []

    def counting_parse(text, alphabet, names=None):
        calls.append(text.strip())
        return parse(text, alphabet, names)

    monkeypatch.setattr(calculus_module, "parse", counting_parse)
    monkeypatch.setattr(proof_module, "parse", counting_parse)
    text = (
        "alphabet: ab\n"
        "node n0: nu X. a X |- nu X. a X + b X ; rule ν-l principal nu X. a X ; children n1\n"
        "node n1: a nu X. a X |- nu X. a X + b X ; rule ν-r principal nu X. a X + b X ; children n2\n"
        "node n2: a nu X. a X |- a (nu X. a X + b X) + b nu X. a X + b X ; rule +-r ; children n3\n"
        "node n3: a nu X. a X |- a (nu X. a X + b X), b nu X. a X + b X"
        " ; rule r-w principal b nu X. a X + b X ; children n4\n"
        "node n4: a nu X. a X |- a nu X. a X + b X ; rule h_a ; children n0\n"
        "root n0\n"
    )
    p = parse_proof(text)
    # seven distinct texts: the root's two are parsed, and of the rest only `a (nu X. ...)`, which
    # prints no member of the root's closure (`a nu X. ...` is the same term, printed)
    assert calls == ["nu X. a X", "nu X. a X + b X", "a (nu X. a X + b X)"]
    any_ab = parse("nu X. a X + b X", AB)
    assert p.order == ("n0", "n1", "n2", "n3", "n4")
    assert instances(p)[1].principal is any_ab and sequent_of(p, 0).rhs == {any_ab}
    assert instances(p)[3].principal is next(iter(sequent_of(p, 2).rhs)).right
    assert sequent_of(p, 4).rhs == sequent_of(p, 3).rhs - {instances(p)[3].principal}
    assert check(p).ok


@pytest.mark.parametrize(
    "record",
    [
        # a cedent text past the root, in a spelling that prints no member
        "nu Y. a Y |- ; rule ν-l principal nu X. a X",
        # a principal text, in a spelling that prints no member
        "nu X. a X |- ; rule ν-l principal nu Y. a Y",
    ],
    ids=["cedent", "principal"],
)
def test_a_respelled_text_on_two_records_is_parsed_once(monkeypatch, record):
    calls = []

    def counting_parse(text, alphabet, names=None):
        calls.append(text.strip())
        return parse(text, alphabet, names)

    monkeypatch.setattr(calculus_module, "parse", counting_parse)
    monkeypatch.setattr(proof_module, "parse", counting_parse)
    text = (
        "alphabet: ab\n"
        "node n0: nu X. a X |- b T ; rule r-w principal b T ; children n1\n"
        "node n1: %s ; children n2\n"
        "node n2: a nu X. a X |- ; rule h_a ; children n3\n"
        "node n3: %s ; children n2\n"
        "root n0\n"
    ) % (record, record)
    p = parse_proof(text)
    assert calls == ["nu X. a X", "b T", "nu Y. a Y"]
    n = p.table.number[parse("nu X. a X", AB)]
    assert p.lhs[0] == p.lhs[1] == p.lhs[3] == 1 << n
    assert p.principal[1] == p.principal[3] == n
    assert check_local(p) == []


@pytest.mark.parametrize(
    "first, second, message",
    [
        (
            "b T,  a x |- a T ; rule l-w principal b T ; children n1",
            "a x |- a T ; rule r-w principal a T ; children n0",
            "unknown name or letter outside alphabet: 'x' at position 4 in '  a x'",
        ),
        (
            "a x |- a T ; rule r-w principal a T ; children n0",
            "b T,  a x |- a T ; rule l-w principal b T ; children n1",
            "unknown name or letter outside alphabet: 'x' at position 2 in 'a x'",
        ),
    ],
)
def test_a_malformed_formula_on_two_nodes_reports_its_first_occurrence(first, second, message):
    text = "alphabet: ab\nnode n0: %s\nnode n1: %s\nroot n0\n" % (first, second)
    with pytest.raises(ParseError) as info:
        parse_proof(text)
    assert str(info.value) == message


def _emitted_proofs():
    """The proofs that decide emits on the bundled decisions and on three
    complement round trips e & complement(e) |- over three letters."""
    abc = Alphabet("abc")
    sequents = [s for _, s, _ in DECISIONS]
    for text in (
        "nu X. mu Y. a X + b Y + c Y",
        "nu X. mu Y. a (nu Z. mu W. b X + a W + c W) + b Y + c Y",
        "mu X. a X + b X + c X + nu Y. b Y",
    ):
        e = parse(text, abc)
        sequents.append(Sequent([Cap(e, complement(e, abc))], [], abc))
    return [out.proof for out in map(decide, sequents) if isinstance(out, Proved)]


def test_the_proofs_decide_emits_round_trip_byte_for_byte():
    emitted = _emitted_proofs()
    assert len(emitted) == 19
    for p in emitted:
        text = serialize_proof(p)
        p2 = _assert_reads_as_the_reference(text)
        assert serialize_proof(p2) == text
        assert p2.order == p.order and instances(p2) == instances(p)


def _respell(text, spell):
    """text with every cedent formula and every principal text replaced by
    spell(its text)."""
    lines = []
    for line in text.splitlines():
        if line.startswith("node "):
            head, sequent, rest = re.fullmatch(r"(node [^:]*: )(.*?)( ; rule .*)", line).groups()
            sides = [", ".join(map(spell, side.split(", "))) if side.strip() else "" for side in
                     (part.strip() for part in sequent.split("|-"))]
            rest = re.sub(r"(?<= principal )(.*?)(?= ; children)", lambda m: spell(m.group()), rest)
            line = head + " |- ".join(sides) + rest
        lines.append(line)
    return "\n".join(lines) + "\n"


RESPELLINGS = {
    # every binder renamed, so that no text prints a closure member and each is parsed
    "alpha-renamed": lambda f: f.replace("X", "P").replace("Y", "Q").replace("Z", "R"),
    "parentheses-and-spaces": lambda f: "( %s )" % f.replace(" ", "  "),
}


def test_respelled_proof_files_read_as_the_reference():
    graphs = [p for p, _ in FIXTURES.values()] + _emitted_proofs()
    for p in graphs:
        text = serialize_proof(p)
        for name, spell in RESPELLINGS.items():
            q = _assert_reads_as_the_reference(_respell(text, spell))
            assert (q.table.formulas, q.lhs, q.rhs, q.principal) == (p.table.formulas, p.lhs, p.rhs, p.principal)
        without = re.sub(r" principal [^;]*(?= ; children)", "", text)
        _assert_reads_as_the_reference(without)


HAND_WRITTEN = {
    "principal-omitted": "node n0: mu X. X |- nu X. X ; rule mu-l ; children n0\n",
    # a closure member in no cedent, and a formula outside the closure
    "principal-in-no-cedent": "node n0: nu X. a X |- nu X. a X ; rule nu-l principal a nu X. a X ; children n0\n",
    "principal-outside-the-closure": "node n0: mu X. X |- nu X. X ; rule mu-l principal a T ; children n0\n",
    "open-principal": "node n0: mu X. X |- nu X. X ; rule mu-l principal a X ; children n0\n",
    "repeated-formula": "node n0: mu X. X, mu X.X, (mu Y. Y) |- nu X. X, nu X. X ; rule mu-l ; children n0\n",
    # a child's cedent holds a formula outside the root's closure: the table is renumbered
    "outside-the-root-closure": "node n0: mu X. X |- nu X. X ; rule mu-l principal mu X. X ; children n1\n"
                                "node n1: a T + b 0, mu X. X |- nu X. X ; rule mu-l principal mu X. X ; children n1\n",
    "outside-before-the-root": "node n1: a T + b 0, mu X. X |- nu X. X ; rule mu-l ; children n1\n"
                               "node n0: mu X. X |- nu X. X ; rule mu-l principal mu X. X ; children n1\n",
}


@pytest.mark.parametrize("name", sorted(HAND_WRITTEN))
def test_hand_written_proof_files_read_as_the_reference(name):
    text = "alphabet: ab\n%sroot n0\n" % HAND_WRITTEN[name]
    p = _assert_reads_as_the_reference(text)
    ref = ref_parse_proof(text)
    assert check_local(p) == check_local(ref) == ref_check_local(ref)
    assert serialize_proof(p) == serialize_proof(ref)


def test_a_formula_outside_the_root_closure_keeps_its_local_check_text():
    text = "alphabet: ab\n%sroot n0\n" % HAND_WRITTEN["outside-the-root-closure"]
    p = parse_proof(text)
    # the closure of every cedent formula: the root's two and a T + b 0, a T, T, b 0 and 0
    root, child = sequent_of(p, 0), sequent_of(p, 1)
    assert p.table.formulas == FormulaTable(root.lhs | root.rhs | child.lhs, AB).formulas
    assert len(p.table.formulas) == 7
    assert check_local(p) == ["node n0: premisses do not match the μ-l schema for this conclusion"]


def _mutated(lines, rng):
    """A proof file's lines with one random fault or edit: a record dropped
    or repeated, children redirected, a formula replaced by another text
    (open, malformed, outside the closure, or a member spelled otherwise),
    a principal dropped, the root renamed, or the records shuffled."""
    lines = list(lines)
    j = rng.randrange(1, len(lines) - 1)
    kind = rng.randrange(7)
    if kind == 0:
        del lines[j]
    elif kind == 1:
        lines.insert(rng.randrange(1, len(lines)), lines[j])
    elif kind == 2:
        kids = ", ".join(rng.choice(["n0", "n1", "n2", "n99"]) for _ in range(rng.randint(0, 2)))
        lines[j] = re.sub(r"children .*$", "children " + kids, lines[j])
    elif kind == 3:
        head, sequent, rest = re.fullmatch(r"(node [^:]*: )(.*?)( ; rule .*)", lines[j]).groups()
        parts = re.split(r"(, | ?\|- ?)", sequent)
        parts[2 * rng.randrange((len(parts) + 1) // 2)] = rng.choice(
            ["a X", "a x", "(", "", "a T + b 0", "mu X. X", "nu Y. a Y", "a (mu X. X)"])
        lines[j] = head + "".join(parts) + rest
    elif kind == 4:
        lines[j] = re.sub(r" principal [^;]*(?= ; children)", "", lines[j])
    elif kind == 5:
        lines[-1] = "root " + rng.choice(["n0", "n1", "n5"])
    else:
        body = lines[1:-1]
        rng.shuffle(body)
        lines[1:-1] = body
    return lines


def test_mutated_proof_files_read_as_the_reference():
    # graphs or faults, each as ref_parse_proof reads it: the first fault in
    # file order, whatever the root record holds
    rng = random.Random(3232)
    texts = [serialize_proof(p).splitlines() for p, _ in FIXTURES.values()]
    outcomes = Counter()
    for _ in range(600):
        lines = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            lines = _mutated(lines, rng) if len(lines) > 3 else lines
        got = _read(parse_proof, "\n".join(lines) + "\n")
        assert got == _read(ref_parse_proof, "\n".join(lines) + "\n"), lines
        outcomes[got[0].__name__ if type(got[0]) is type else "graph"] += 1
    assert min(outcomes["graph"], outcomes["ParseError"], outcomes["ValueError"]) >= 40, outcomes


def _renamed(p, rng):
    """p with every node renamed, records kept in order, and the renaming.
    New names are drawn from a shuffled numbering, so a node may take the
    name another node had."""
    numbers = list(range(len(p.order)))
    rng.shuffle(numbers)
    names = {old: "%s%d" % (rng.choice("nqx"), k) for old, k in zip(p.order, numbers)}
    nodes = [
        (names[nid], inst, tuple(names[p.order[c]] for c in kids))
        for nid, inst, kids in zip(p.order, instances(p), p.children)
    ]
    return graph_of(nodes, names[p.order[p.root]]), names


def test_renaming_the_nodes_changes_only_the_names():
    rng = random.Random(1919)
    graphs = [p for p, _ in FIXTURES.values()] + _emitted_proofs()
    graphs += _random_saturated_graphs(seed=20261019)
    rejected = 0
    for p in graphs:
        q, names = _renamed(p, rng)
        assert q.order == tuple(names[nid] for nid in p.order)
        assert q.root == p.root and instances(q) == instances(p) and q.children == p.children
        r, r2 = check(p), check(q)
        assert (r2.ok, r2.violations, r2.lasso) == (r.ok, r.violations, r.lasso)
        rejected += not r.ok
        assert build_trace_automaton(q, all_live(q)) == build_trace_automaton(p, all_live(p))
        # the node ids here are n<digits>, which no formula text contains
        renamed_text = re.sub(r"\bn\d+\b", lambda m: names[m.group()], serialize_proof(p))
        assert serialize_proof(q) == renamed_text
    assert len(graphs) == 9 + 19 + 200 and rejected >= 20


def test_loading_tolerates_weakened_plus_premisses():
    # a +-l whose second premiss drops the context still loads and checks
    # locally (it stands for the contexted rule followed by weakenings)
    text = (
        "alphabet: ab\n"
        "node n0: a 0 + T, T |- T ; rule +-l principal a 0 + T ; children n1, n2\n"
        "node n1: a 0, T |- T ; rule ⊤-r principal T ; children\n"
        "node n2: T |- T ; rule ⊤-r principal T ; children\n"
        "root n0\n"
    )
    p = parse_proof(text)
    assert not check_local(p)
    assert check(p).ok


# ---------------------------------------------------------------------------
# labelled Büchi automata, read through their one-node numbered form


def _random_nba(rng, max_states=4, alphabet=("a", "b")):
    n = rng.randint(1, max_states)
    states = tuple(range(n))
    transitions = {}
    for q in states:
        for a in alphabet:
            k = rng.choice([0, 1, 1, 2])
            targets = sorted(rng.sample(states, min(k, n)))
            if targets:
                transitions[(q, a)] = tuple(targets)
    initials = tuple(sorted(rng.sample(states, rng.randint(1, n))))
    accepting = frozenset(rng.sample(states, rng.randint(0, n)))
    return BuchiAutomaton(states, alphabet, transitions, initials, accepting)


def _acceptor(b):
    """accepts_lasso on b's one-node numbered form, taking words over b's
    letters."""
    automaton, _ = one_node_automaton(b)
    return lambda stem, cycle: accepts_lasso(automaton, edges_of(b, stem), edges_of(b, cycle))


def _up_words(alphabet, max_stem, max_cycle):
    for ls in range(max_stem + 1):
        for stem in itertools.product(alphabet, repeat=ls):
            for lc in range(1, max_cycle + 1):
                for cyc in itertools.product(alphabet, repeat=lc):
                    yield stem, cyc


def test_lasso_acceptance_on_a_known_automaton():
    # accepts exactly the words with infinitely many a's
    b = BuchiAutomaton(
        states=(0, 1),
        alphabet=("a", "b"),
        transitions={
            (0, "a"): (1,),
            (0, "b"): (0,),
            (1, "a"): (1,),
            (1, "b"): (0,),
        },
        initials=(0,),
        accepting=frozenset({1}),
    )
    accepts = _acceptor(b)
    assert accepts("", "a")
    assert accepts("bb", "ba")
    assert not accepts("a", "b")
    assert not accepts("", "b")
    with pytest.raises(ValueError, match="cycle"):
        accepts("a", "")


def test_complementation_flips_acceptance_on_every_sampled_word():
    rng = random.Random(20260815)
    words = list(_up_words(("a", "b"), 2, 3))
    for _ in range(40):
        b = _random_nba(rng)
        c = complement_buchi(b)
        accepts_b, accepts_c = _acceptor(b), _acceptor(c)
        for stem, cyc in words:
            assert accepts_b(stem, cyc) != accepts_c(stem, cyc)


def test_complementation_is_deterministic():
    rng = random.Random(7)
    b = _random_nba(rng)
    c1 = complement_buchi(b)
    c2 = complement_buchi(b)
    assert c1.states == c2.states
    assert c1.transitions == c2.transitions
    assert c1.accepting == c2.accepting


def _universal_by_profiles(b):
    automaton, children = one_node_automaton(b)
    return _find_unaccepted_branch(children, automaton, _components(children))


def _complement_is_empty(c):
    reach = set(c.initials)
    queue = list(c.initials)
    while queue:
        q = queue.pop()
        for a in c.alphabet:
            for q2 in c.successors(q, a):
                if q2 not in reach:
                    reach.add(q2)
                    queue.append(q2)
    for acc in (q for q in reach if q in c.accepting):
        frontier = [acc]
        visited = set()
        while frontier:
            q = frontier.pop()
            for a in c.alphabet:
                for q2 in c.successors(q, a):
                    if q2 == acc:
                        return False
                    if q2 not in visited:
                        visited.add(q2)
                        frontier.append(q2)
    return True


def test_profile_universality_agrees_with_the_complement_route():
    rng = random.Random(1212)
    for _ in range(80):
        b = _random_nba(rng, max_states=3)
        witness = _universal_by_profiles(b)
        universal = _complement_is_empty(complement_buchi(b))
        assert (witness is None) == universal
        if witness is not None:
            stem, cyc = witness
            automaton, _ = one_node_automaton(b)
            assert not accepts_lasso(automaton, stem, cyc)
