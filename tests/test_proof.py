import itertools
import random

import pytest

from rll.calculus import make_instance, parse_sequent
from rll.corpus import (
    ALPHABET,
    DECISIONS,
    PAPER_PROOF_NAMES,
    proofs,
)
from rll.decide import saturate
from rll.expr import Alphabet, ParseError, fl_closure, parse
from rll.proof import (
    Lasso,
    ProofGraph,
    accepts_lasso,
    build_trace_automaton,
    check,
    check_local,
    parse_proof,
    serialize_proof,
    _find_unaccepted_branch,
)
from oracles import (
    BuchiAutomaton,
    complement_buchi,
    edges_of,
    gen_guarded_sequent,
    gen_word,
    one_node_automaton,
    ref_trace_automaton,
    unroll_edge,
)

AB = ALPHABET
FIXTURES = proofs()


def _loop(seq_text, rule, principal_text=None):
    s = parse_sequent(seq_text, AB)
    principal = parse(principal_text, AB) if principal_text else None
    return ProofGraph([("n0", make_instance(rule, s, principal), ("n0",))], "n0")


# ---------------------------------------------------------------------------
# graph construction


def test_graphs_validate_their_shape():
    s = parse_sequent("mu X. X |- nu X. X", AB)
    inst = make_instance("μ-l", s, parse("mu X. X", AB))
    with pytest.raises(ValueError, match="duplicate node id"):
        ProofGraph([("n0", inst, ("n0",)), ("n0", inst, ("n0",))], "n0")
    with pytest.raises(ValueError, match="root"):
        ProofGraph([("n0", inst, ("n0",))], "missing")
    with pytest.raises(ValueError, match="unknown child"):
        ProofGraph([("n0", inst, ("n1",))], "n0")
    with pytest.raises(ValueError, match="unreachable"):
        ProofGraph([("n0", inst, ("n0",)), ("orphan", inst, ("orphan",))], "n0")


def test_local_check_reports_child_mismatches():
    s = parse_sequent("mu X. X |- nu X. X", AB)
    other = parse_sequent("nu X. X |- nu X. X", AB)
    inst = make_instance("μ-l", s, parse("mu X. X", AB))
    bad_child = make_instance("ν-l", other, parse("nu X. X", AB))
    p = ProofGraph([("n0", inst, ("n1",)), ("n1", bad_child, ("n1",))], "n0")
    violations = check_local(p)
    assert len(violations) == 1
    assert "child n1" in violations[0]


def test_local_check_requires_axiom_leaves():
    s = parse_sequent("mu X. X |- nu X. X", AB)
    inst = make_instance("μ-l", s, parse("mu X. X", AB))
    p = ProofGraph([("n0", inst, ())], "n0")
    violations = check_local(p)
    assert violations and "0 children for 1 premisses" in violations[0]


def test_progress_requires_a_locally_valid_graph():
    s = parse_sequent("mu X. X |- nu X. X", AB)
    inst = make_instance("μ-l", s, parse("mu X. X", AB))
    p = ProofGraph([("n0", inst, ())], "n0")
    r = check(p)
    assert r.reason == "local" and r.lasso is None


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
    assert r.lasso == Lasso(stem=("n0",), cycle=("n0",), stem_edges=(), cycle_edges=(0,))


def test_right_unfolding_the_empty_fixpoint_is_rejected():
    r = check(_loop("nu X. X |- mu X. X", "μ-r", "mu X. X"))
    assert not r.ok and r.lasso.cycle == ("n0",)


def test_an_empty_root_sequent_rejects_every_branch():
    s = parse_sequent("|-", AB)
    p = ProofGraph([("n0", make_instance("r-p", s), ("n0", "n0"))], "n0")
    r = check(p)
    assert not r.ok and r.reason == "progress"
    assert r.lasso.cycle == ("n0",)


def test_a_finite_axiom_tree_is_vacuously_progressing():
    s = parse_sequent("a 0, b T |-", AB)
    p = ProofGraph([("n0", make_instance("l-p", s), ())], "n0")
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
    bp = build_trace_automaton(p)
    stem_syms = tuple(zip(lasso.stem, lasso.stem_edges))
    cycle_syms = tuple(zip(lasso.cycle, lasso.cycle_edges))
    assert not accepts_lasso(bp, stem_syms, cycle_syms)
    # and the lasso really is a branch of the graph
    at = lasso.stem[0]
    assert at == p.root
    for nid, j in stem_syms:
        at = p.children[nid][j]
    assert at == lasso.cycle[0]
    for nid, j in cycle_syms:
        at = p.children[nid][j]
    assert at == lasso.cycle[0]


def _assert_unrolling_preserves_the_verdict(p, before):
    for nid in p.order:
        for j in range(len(p.children[nid])):
            assert check(unroll_edge(p, nid, j)).ok == before, (nid, j)


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


def _assert_matches_the_labelled_reference(p):
    bp = build_trace_automaton(p)
    ref = ref_trace_automaton(p)

    def label(nid, k):
        return (nid,) + bp.labels[nid][k]

    def strip(st):
        return (st.node, st.side, st.formula, st.critical)

    assert [label(nid, k) for nid, k in bp.states] == [strip(st) for st in ref.states]
    assert all(st.phase == ("search" if st.critical is None else "committed") for st in ref.states)
    for nid, labels in bp.labels.items():
        assert [k for n, k in bp.states if n == nid] == list(range(len(labels)))
    assert [label(p.root, k) for k in bp.initials] == [strip(st) for st in ref.initials]
    accepting = {label(nid, k) for nid, k in bp.states if bp.accepting[nid] >> k & 1}
    assert accepting == {strip(st) for st in ref.accepting}
    assert all(mask >> len(bp.labels[nid]) == 0 for nid, mask in bp.accepting.items())
    for (nid, k), st in zip(bp.states, ref.states):
        for j, child in enumerate(p.children[nid]):
            row = bp.reach[nid][j][k]
            assert row >> len(bp.labels[child]) == 0
            successors = {label(child, k2) for k2 in range(len(bp.labels[child])) if row >> k2 & 1}
            assert successors == {strip(t) for t in ref.successors(st, (nid, j))}, (nid, k, j)


def test_numbered_trace_automaton_matches_the_labelled_reference():
    graphs = [p for p, _ in FIXTURES.values()]
    graphs += [saturate(s) for _, s, _ in DECISIONS]
    graphs += _random_saturated_graphs(seed=20261018)
    for p in graphs:
        _assert_matches_the_labelled_reference(p)
        for nid in p.order:
            for j in range(len(p.children[nid])):
                _assert_matches_the_labelled_reference(unroll_edge(p, nid, j))


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_node_formulas_stay_inside_the_root_closures(name):
    p, _ = FIXTURES[name]
    root = p.sequent(p.root)
    universe = set()
    for f in root.lhs | root.rhs:
        universe.update(fl_closure(f).members)
    for nid in p.order:
        s = p.sequent(nid)
        assert (s.lhs | s.rhs) <= universe, nid


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_trace_automaton_size_is_within_its_bound(name):
    p, _ = FIXTURES[name]
    bp = build_trace_automaton(p)
    formulas = set()
    for nid in p.order:
        s = p.sequent(nid)
        formulas |= s.lhs | s.rhs
    bound = len(p.order) * 2 * len(formulas) * (len(formulas) + 1)
    assert len(bp.states) <= bound
    edges = {(nid, j) for nid in p.order for j in range(len(p.children[nid]))}
    assert {(nid, j) for nid, rows in bp.reach.items() for j in range(len(rows))} == edges
    for nid, rows in bp.reach.items():
        assert all(len(per_state) == len(bp.labels[nid]) for per_state in rows)
    root = p.sequent(p.root)
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
        root = p.sequent(p.root)
        for w in words:
            assert _valid_at(root, w), (name, str(w))


# ---------------------------------------------------------------------------
# proof files


def _assert_round_trips(p):
    """parse_proof(serialize_proof(p)) re-serializes byte for byte and has
    the same nodes, instances, children and verdict; returns the verdict."""
    text = serialize_proof(p)
    p2 = parse_proof(text)
    assert serialize_proof(p2) == text
    assert p2.order == p.order and p2.root == p.root
    for nid in p.order:
        assert p2.instance[nid] == p.instance[nid]
        assert p2.children[nid] == p.children[nid]
    verdict = check(p).ok
    assert check(p2).ok == verdict
    return verdict


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_proof_files_round_trip(name):
    _assert_round_trips(FIXTURES[name][0])


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
    assert p.instance["n0"].rule == "μ-l"
    assert check(p).ok


def test_proof_files_infer_an_omitted_principal():
    text = (
        "alphabet: ab\n"
        "node n0: mu X. X |- nu X. X ; rule mu-l ; children n0\n"
        "root n0\n"
    )
    p = parse_proof(text)
    assert p.instance["n0"].principal == parse("mu X. X", AB)


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
            "unknown rule",
        ),
        (
            "alphabet: ab\nnode n0: mu X. X |- ; rule h_a principal b ; children n0\nroot n0",
            "acts on the letter",
        ),
        (
            "alphabet: ab\nnode n0: a 0, b 0 |- a 0 ; rule l-w ; children n0\nroot n0",
            "undetermined",
        ),
    ],
)
def test_malformed_proof_files_are_rejected(text, message):
    with pytest.raises(ParseError, match=message):
        parse_proof(text)


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
    return _find_unaccepted_branch(("w",), children, automaton)


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
