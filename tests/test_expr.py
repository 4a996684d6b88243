import gc
import random

import pytest

from rll.expr import (
    TOP,
    ZERO,
    Alphabet,
    Cap,
    Letter,
    Mu,
    Nu,
    ParseError,
    Plus,
    Top,
    Var,
    Zero,
    ast_size,
    canonical,
    closed_subterms,
    complement,
    expr_sort_key,
    fl_closure,
    free_vars,
    is_guarded,
    letters_of,
    parse,
    pretty,
    subformula_leq,
    unfold,
)
from rll import expr as expr_module
from rll.corpus import _PROOFS, DECISIONS, EXPRESSIONS, random_expression
from golden import graphs
from oracles import (
    alt_text,
    compare_dependency,
    conj_text,
    fl_leq,
    fl_lt,
    gen_expr,
    gen_guarded_sequent,
    ref_canonical,
    ref_equal,
    ref_letters,
    ref_sort_key,
    ref_subformula_leq,
    ref_unfold,
)

AB = Alphabet("ab")


def p(text):
    return parse(text, AB)


F_A = "mu X. (a X + b X + nu Y. b Y)"
I_A = "nu X. mu Y. (a X + b Y)"

CORPUS = [
    "mu X. X",
    "nu X. X",
    "mu X. a X",
    "nu X. a X",
    "nu X. (a X + b X)",
    F_A,
    "mu X. (a X + b X + nu Y. a Y)",
    I_A,
    "nu X. mu Y. (b X + a Y)",
    "a T + b 0",
    "(a T & b T) + 0",
]


def test_parse_finitely_many_structure():
    e = p(F_A)
    assert isinstance(e, Mu)
    body = e.body
    assert isinstance(body, Plus)
    # left-associated sum: ((a X + b X) + nu Y. b Y)
    assert isinstance(body.left, Plus)
    assert isinstance(body.left.left, Letter) and body.left.left.letter == "a"
    assert isinstance(body.left.right, Letter) and body.left.right.letter == "b"
    assert isinstance(body.right, Nu)
    assert isinstance(body.right.body, Letter) and body.right.body.letter == "b"
    assert isinstance(body.right.body.body, Var)


def test_parse_infinitely_many_structure():
    e = p(I_A)
    assert isinstance(e, Nu)
    assert isinstance(e.body, Mu)
    s = e.body.body
    assert isinstance(s, Plus)
    assert isinstance(s.left, Letter) and s.left.letter == "a"
    assert isinstance(s.right, Letter) and s.right.letter == "b"
    # a goes back to the outer binder, b to the inner one
    assert s.left.body == Var(e.var)
    assert s.right.body == Var(e.body.var)


def test_parse_letter_runs_and_binders_extend_right():
    assert p("ab T") == p("a b T")
    assert p("a b T") == Letter("a", Letter("b", TOP))
    assert p("a X + b 0" .replace("X", "T")) == Plus(Letter("a", TOP), Letter("b", ZERO))
    # binder swallows everything to its right
    assert p("a 0 + mu X. b X + a X") == Plus(Letter("a", ZERO), p("mu X. (b X + a X)"))


def test_parse_errors():
    with pytest.raises(ParseError):
        p("c T")  # letter not in alphabet
    with pytest.raises(ParseError):
        p("foo")  # unknown name
    with pytest.raises(ParseError):
        p("a T )")
    with pytest.raises(ParseError):
        p("(a T")
    with pytest.raises(ParseError):
        p("mu x. T")  # bound variables are uppercase
    for binder in ("mu", "nu"):
        with pytest.raises(ParseError, match="cannot be bound"):
            p("%s T. a T" % binder)  # T is always the constant
    with pytest.raises(ParseError):
        p("")


def test_letters_are_exactly_a_to_z():
    # no expression or word could spell a letter outside a-z
    with pytest.raises(ValueError):
        Alphabet("aé")
    with pytest.raises(ValueError):
        Letter("é", TOP)


def test_deep_input_within_the_recursion_limit_parses():
    assert p("(" * 200 + "a T" + ")" * 200) == p("a T")
    assert p("a " * 500 + "T") == p("a" * 500 + " T")
    assert isinstance(p("mu X. a " * 150 + "T"), Mu)


def test_input_nested_too_deeply_is_a_parse_error():
    with pytest.raises(ParseError, match="nested too deeply"):
        p("a " * 3000 + "T")
    with pytest.raises(ParseError, match="nested too deeply"):
        p("(" * 2000 + "T" + ")" * 2000)


def test_free_vars():
    assert free_vars(p(F_A)) == frozenset()
    assert free_vars(Plus(Var("X"), Mu("Y", Var("Y")))) == {"X"}
    assert free_vars(Mu("X", Plus(Var("X"), Var("Z")))) == {"Z"}


def test_is_guarded():
    assert is_guarded(p("mu X. a X"))
    assert not is_guarded(p("mu X. X"))
    assert is_guarded(p(I_A))
    assert not is_guarded(p("mu X. (a X + X)"))
    with pytest.raises(ValueError):
        is_guarded(Var("X"))


def test_substitute_respects_binding():
    # unfold substitutes the fixpoint for its variable.
    # an inner binder of the same name shadows: mu X. X is closed already
    assert unfold(Mu("X", Mu("X", Var("X")))) is canonical(Mu("X", Var("X")))
    # the binder Z must not capture the free Z of the replacement
    e = Mu("X", Plus(Var("Z"), Nu("Z", Var("X"))))
    assert unfold(e) is unfold(canonical(e))
    assert unfold(e) is canonical(Plus(Var("Z"), Nu("Y", e)))
    assert free_vars(unfold(e)) == {"Z"}


def test_unfold_and_pretty_fill_their_slots_with_what_the_references_give():
    rng = random.Random(1414)
    for _ in range(300):
        var = rng.choice("PQ")
        e = rng.choice((Mu, Nu))(var, gen_expr(rng, AB, rng.randint(1, 12), scope=(var, "Z")))
        expected = ref_unfold(e)
        first = unfold(e)
        assert ref_equal(first, expected)
        second = unfold(e)
        assert second is first and ref_equal(second, expected)
        c = canonical(e)
        text = expr_module._render(c)
        assert pretty(e) == text and pretty(c) == text
        assert c._text == text and c._unfolded is first
        assert p(text) is c


def _depths(t, var, depth=0):
    """The numbers of binders above each free occurrence of var in t."""
    if isinstance(t, Var):
        return [depth] if t.name == var else []
    if isinstance(t, (Mu, Nu)):
        return [] if t.var == var else _depths(t.body, var, depth + 1)
    return [d for k in expr_module._children(t) for d in _depths(k, var, depth)]


def test_unfold_is_the_reference_on_open_and_nested_fixpoints():
    # the variable under 0, 1 and 2 or more inner binders, free names that
    # the parser can and cannot write (.n), and nested fixpoints
    rng = random.Random(4040)
    seen = set()
    for _ in range(600):
        var = rng.choice("PQ")
        e = rng.choice((Mu, Nu))(var, gen_expr(rng, AB, rng.randint(2, 16), scope=(var, "Z", ".0", ".3")))
        u = unfold(e)
        assert ref_equal(u, ref_unfold(e)) and u._canon is u, pretty(e)
        seen.update(min(d, 2) for d in _depths(e.body, var))
    assert seen == {0, 1, 2}
    # one node of the body under different numbers of binders
    shared = Letter("a", Var("X"))
    e = Mu("X", Plus(shared, Nu("Y", Plus(shared, Mu("Z", Cap(shared, Letter("b", Var("Y"))))))))
    assert unfold(e) is p("a (mu X. a X + nu Y. (a X + mu Z. a X & b Y)) + nu Y. (a (mu X. a X + nu Y. (a X + mu Z. "
                          "a X & b Y)) + mu Z. a (mu X. a X + nu Y. (a X + mu Z. a X & b Y)) & b Y)")
    assert unfold(p("mu X. nu Y. mu Z. (a X + b Y + a Z)")) is p(
        "nu Y. mu Z. (a (mu X. nu Y. mu Z. (a X + b Y + a Z)) + b Y + a Z)")
    # a free .n lifts every level: the binder of mu X. .2 + ... is .3
    e = Mu("X", Plus(Var(".2"), Nu("Y", Letter("a", Plus(Var("X"), Var("Y"))))))
    assert unfold(e) is Plus(Var(".2"), Nu(".3", Letter("a", Plus(Mu(".4", Plus(Var(".2"), Nu(".5", Letter(
        "a", Plus(Var(".4"), Var(".5")))))), Var(".3")))))
    assert ref_equal(unfold(e), ref_unfold(e))


def test_unfold():
    assert unfold(p("mu X. a X")) == p("a mu X. a X")
    assert unfold(p("nu X. X")) == p("nu X. X")
    i_a = p(I_A)
    i_a1 = unfold(i_a)
    assert isinstance(i_a1, Mu)
    assert i_a1 == canonical(Mu("Y", Plus(Letter("a", i_a), Letter("b", Var("Y")))))
    with pytest.raises(ValueError):
        unfold(TOP)


def test_canonical_is_alpha_equivalence():
    assert p(I_A) == p("nu Q. mu R. (a Q + b R)")
    assert p("mu X. a X + mu X. b X".replace("+", "+ 0 +")) is not None  # parses
    rng = random.Random(7)

    def rename_bound(t, env):
        if isinstance(t, Var):
            return Var(env.get(t.name, t.name))
        if isinstance(t, Letter):
            return Letter(t.letter, rename_bound(t.body, env))
        if isinstance(t, (Plus, Cap)):
            return type(t)(rename_bound(t.left, env), rename_bound(t.right, env))
        if isinstance(t, (Mu, Nu)):
            fresh = "R%d" % rng.randint(0, 10 ** 9)
            inner = dict(env)
            inner[t.var] = fresh
            return type(t)(fresh, rename_bound(t.body, inner))
        return t

    for i in range(200):
        e = gen_expr(rng, AB, rng.randint(1, 12))
        assert canonical(e) == canonical(rename_bound(e, {}))
        assert canonical(canonical(e)) == canonical(e)


def test_pretty_round_trip():
    rng = random.Random(11)
    for text in CORPUS:
        e = p(text)
        assert parse(pretty(e), AB) == e
    for i in range(300):
        raw = gen_expr(rng, AB, rng.randint(1, 14))
        e = canonical(raw)
        assert parse(pretty(e), AB) == e, pretty(e)
        # alpha-equivalent terms print alike, whatever their binder names
        assert pretty(raw) == pretty(e)
    # past binder depth 64 the fallback names must not capture a free variable
    deep = parse("".join("mu X%d. " % i for i in range(65)) + "a V_64", Alphabet("a"))
    assert "V_64" in free_vars(deep)
    assert parse(pretty(deep), Alphabet("a")) == deep


def test_fl_closure_examples():
    cl = fl_closure(p("mu X. a X"))
    assert set(cl.members) == {p("mu X. a X"), p("a mu X. a X")}
    assert fl_closure(ZERO).members == (ZERO,)
    i_a = p(I_A)
    members = set(fl_closure(i_a).members)
    i_a1 = unfold(i_a)
    assert i_a in members
    assert i_a1 in members
    assert Letter("a", i_a) in members
    assert Letter("b", i_a1) in members


def test_fl_closure_is_closed_and_bounded():
    for text in CORPUS:
        e = p(text)
        cl = fl_closure(e)
        assert len(cl.members) <= ast_size(e)
        assert len(set(cl.members)) == len(cl.members) == len(cl.succ)
        for m, ks in zip(cl.members, cl.succ):
            if isinstance(m, Letter):
                reducts = (m.body,)
            elif isinstance(m, (Plus, Cap)):
                reducts = (m.left, m.right)
            elif isinstance(m, (Mu, Nu)):
                reducts = (unfold(m),)
            else:
                reducts = ()
            assert tuple(cl.members[k] for k in ks) == reducts
        assert cl.members[0] == e
    with pytest.raises(ValueError):
        fl_closure(Var("X"))


def test_closure_members_are_marked_their_own_canonical_forms():
    roots = list(EXPRESSIONS.values())
    roots += [f for _, s, *_ in DECISIONS + _PROOFS for f in s.lhs | s.rhs]
    rng = random.Random(40)
    roots += [random_expression(rng, rng.randint(1, 12)) for _ in range(200)]
    for seed in range(1000, 1050):  # the large band of the graph gate
        rng = random.Random(seed)
        s = gen_guarded_sequent(rng, Alphabet("abc" if seed % 2 else "ab"), graphs.LARGE_SIZE, graphs.LARGE_SIDE)
        roots += s.lhs | s.rhs
    members = {m for root in roots for m in fl_closure(root).members}
    assert len(members) > 1000
    for m in members:
        assert m._canon is m and ref_equal(m, ref_canonical(m)), pretty(m)


def test_closed_subterms_of_members_are_members_and_every_known_form_is_the_reference():
    # a closed subterm's form is built from its parts, or carried by a shift
    # from the term it moves, or shifted down; each must be the reference's
    six = Alphabet("abcdef")
    roots = list(EXPRESSIONS.values())
    roots += [f for _, s, *_ in DECISIONS for f in s.lhs | s.rhs]
    roots += [parse(alt_text(d), six) for d in range(2, 7)] + [parse(conj_text(k), six) for k in range(2, 6)]
    rng = random.Random(41)
    roots += [gen_expr(rng, AB, rng.randint(1, 12)) for _ in range(500)]
    seen, pairs, moved = set(), 0, 0
    for root in roots:
        members = fl_closure(root).members
        stack = list(members)
        for m in members:
            for c in closed_subterms(m):
                assert c in members and c._canon is c and ref_equal(c, ref_canonical(c)), (pretty(root), pretty(c))
                pairs += 1
        while stack:  # every node of the members, the closed subterms' forms among them
            t = stack.pop()
            if t not in seen:
                seen.add(t)
                if t._canon is not None:
                    assert ref_equal(t._canon, ref_canonical(t)), pretty(root)
                    moved += t._canon is not t
                stack.extend(expr_module._children(t))
    assert pairs > 4000 and moved > 200  # 4,581 and 273 when written


def test_subformula_order():
    i_a = p(I_A)
    assert subformula_leq(i_a, unfold(i_a))
    assert subformula_leq(i_a, i_a)
    assert not subformula_leq(TOP, ZERO)
    assert subformula_leq(p("a X".replace("X", "T")), p("b a T"))


def test_subformula_order_agrees_with_the_reference_on_closure_members():
    six = Alphabet("abcdef")
    roots = [parse(alt_text(d), six) for d in range(3, 7)] + [parse(conj_text(k), six) for k in range(2, 6)]
    rng = random.Random(23)
    roots += [gen_expr(rng, AB, rng.randint(1, 12)) for _ in range(300)]
    pairs = 0
    for root in roots:
        members = fl_closure(root).members
        for g in members:
            for f in members:
                assert subformula_leq(f, g) == ref_subformula_leq(f, g), (pretty(f), pretty(g))
                pairs += 1
    assert pairs > 5000
    open_term = p("mu X. a X").body
    with pytest.raises(ValueError, match="subformula_leq requires a closed expression; free: .0"):
        subformula_leq(open_term, TOP)
    with pytest.raises(ValueError, match="subformula_leq requires a closed expression; free: .0"):
        subformula_leq(TOP, open_term)


def test_fl_order():
    assert fl_leq(p("a mu X. a X"), p("mu X. a X"))
    assert fl_lt(ZERO, p("a 0"))
    assert not fl_lt(p("mu X. a X"), p("a mu X. a X")) or not fl_lt(p("a mu X. a X"), p("mu X. a X"))
    # preorder on closure members of corpus expressions
    for text in CORPUS:
        members = fl_closure(p(text)).members
        for f in members:
            assert fl_leq(f, f)
        for f in members:
            for g in members:
                for h in members:
                    if fl_leq(f, g) and fl_leq(g, h):
                        assert fl_leq(f, h)


def test_compare_dependency():
    i_a = p(I_A)
    assert compare_dependency(i_a, i_a) == "equal"
    assert compare_dependency(ZERO, TOP) == "incomparable"
    assert compare_dependency(p("a mu X. a X"), p("mu X. a X")) in ("less", "greater")


def test_complement_examples():
    assert complement(p("mu X. X"), AB) == p("nu X. X")
    assert complement(ZERO, AB) == TOP
    assert complement(p("a T"), AB) == p("a 0 + b T")
    ac = Alphabet("a")
    assert complement(parse("a T", ac), ac) == parse("a 0", ac)
    with pytest.raises(ValueError):
        complement(Letter("c", TOP), AB)


def test_complement_involution_on_letter_free():
    rng = random.Random(3)
    for i in range(300):
        e = canonical(gen_expr(rng, AB, rng.randint(1, 12), letters=False))
        assert complement(complement(e, AB), AB) == e


def test_complement_preserves_guardedness_and_closedness():
    rng = random.Random(5)
    checked = 0
    for i in range(600):
        e = canonical(gen_expr(rng, AB, rng.randint(1, 12)))
        c = complement(e, AB)
        assert free_vars(c) == free_vars(e)
        if free_vars(e):
            continue
        if is_guarded(e):
            checked += 1
            assert is_guarded(c)
    assert checked > 50


def test_expr_sort_key_total():
    rng = random.Random(13)
    exprs = [canonical(gen_expr(rng, AB, rng.randint(1, 10))) for _ in range(120)]
    keys = sorted(exprs, key=expr_sort_key)
    assert len(keys) == len(exprs)
    for x in exprs:
        for y in exprs:
            if expr_sort_key(x) == expr_sort_key(y):
                assert x == y


# ---------------------------------------------------------------------------
# interned terms


def _rebuild(t):
    """A structural copy of t, made node by node through the constructors."""
    if isinstance(t, Var):
        return Var(t.name)
    if isinstance(t, Letter):
        return Letter(t.letter, _rebuild(t.body))
    if isinstance(t, (Plus, Cap)):
        return type(t)(_rebuild(t.left), _rebuild(t.right))
    if isinstance(t, (Mu, Nu)):
        return type(t)(t.var, _rebuild(t.body))
    return type(t)()


def _subterms(t):
    yield t
    for child in ("left", "right", "body"):
        if hasattr(t, child):
            yield from _subterms(getattr(t, child))


def test_alpha_equivalent_parses_are_the_same_object():
    assert p(I_A) is p("nu Q. mu R. (a Q + b R)")
    assert p(F_A) is p("mu Z. (a Z + b Z + nu Z. b Z)")
    assert p("a T + b 0") is Plus(Letter("a", TOP), Letter("b", ZERO))
    assert Zero() is ZERO and Top() is TOP


def test_canonical_is_idempotent_by_identity():
    rng = random.Random(17)
    for _ in range(300):
        e = gen_expr(rng, AB, rng.randint(1, 12))
        c = canonical(e)
        assert canonical(c) is c
        assert c is ref_canonical(e)


def test_identity_facts_agree_with_structural_references():
    rng = random.Random(19)
    # small sizes so that the pool holds repeats and alpha-variants
    terms = [gen_expr(rng, AB, rng.randint(1, 6)) for _ in range(300)]
    terms += [canonical(gen_expr(rng, AB, rng.randint(1, 12))) for _ in range(300)]
    for t in terms:
        assert _rebuild(t) is t
        assert letters_of(t) == {u.letter for u in _subterms(t) if isinstance(u, Letter)}
    equal_pairs = 0
    for _ in range(5000):
        x, y = rng.choice(terms), rng.choice(terms)
        assert (x == y) == ref_equal(x, y)
        equal_pairs += x == y
    assert equal_pairs > 50
    for g in terms[::2]:  # closed, as subformula_leq requires
        for f in [u for u in _subterms(g) if not free_vars(u)] + [rng.choice(terms)]:
            assert subformula_leq(f, g) == ref_subformula_leq(f, g), (pretty(f), pretty(g))
    by_identity = sorted(terms, key=expr_sort_key)
    by_reference = sorted(terms, key=ref_sort_key)
    assert all(x is y for x, y in zip(by_identity, by_reference))


def test_nodes_share_the_empty_set_and_a_childs_equal_set():
    # every empty set of free variables is one object, and a node whose set
    # equals a child's holds that child's own set
    rng = random.Random(7)
    terms = [gen_expr(rng, AB, rng.randint(1, 12)) for _ in range(1000)]
    terms += [canonical(t) for t in terms]
    nodes = {id(u): u for t in terms for u in _subterms(t)}.values()
    empty = free_vars(ZERO)
    assert not empty and free_vars(p("a T + b 0")) is empty
    assert free_vars(p("mu X. a X")) is empty
    shared = 0
    for u in nodes:
        kids = [getattr(u, child) for child in ("left", "right", "body") if hasattr(u, child)]
        if not free_vars(u):
            assert free_vars(u) is empty, pretty(u)
        elif any(free_vars(k) == free_vars(u) for k in kids):
            assert any(free_vars(k) is free_vars(u) for k in kids), pretty(u)
            shared += 1
    assert shared > 150, shared  # 205 here
    # so only a Var, a union of two different sets or a binder that binds a
    # free variable makes one: here 12 sets over 1,501 nodes
    assert len({id(free_vars(u)) for u in nodes}) < len(nodes) // 50


def test_letters_of_a_closed_term_are_the_letters_a_plain_walk_finds():
    six, abc = Alphabet("abcdef"), Alphabet("abc")
    terms = list(EXPRESSIONS.values())
    terms += [f for _, s, _ in DECISIONS for f in s.lhs | s.rhs]
    terms += [parse(alt_text(d), six) for d in range(2, 7)] + [parse(conj_text(k), six) for k in range(2, 6)]
    rng = random.Random(23)
    terms += [gen_expr(rng, alphabet, rng.randint(1, 16)) for alphabet in (AB, abc) for _ in range(1000)]
    for t in terms:
        assert letters_of(t) == ref_letters(t), pretty(t)
    assert letters_of(parse(alt_text(6), six)) == set("abcdef") and letters_of(TOP) == set()


@pytest.mark.parametrize("text", ["a X", "mu X. a Y", "a T + b X"])
def test_letters_of_an_open_term_raises(text):
    with pytest.raises(ValueError, match="requires a closed expression"):
        letters_of(p(text))


@pytest.mark.parametrize("build, error, message", [
    (lambda: Plus(TOP), TypeError, "Plus takes 2 fields"),
    (lambda: Var(), TypeError, "Var takes 1 fields"),
    (lambda: Zero(TOP), TypeError, "Zero takes 0 fields"),
    (lambda: Letter("a"), TypeError, "Letter takes 2 fields"),
    (lambda: Mu(".0", TOP, TOP), TypeError, "Mu takes 2 fields"),
    (lambda: Var(""), ValueError, "variable name must be a nonempty string"),
    (lambda: Var(5), ValueError, "variable name must be a nonempty string"),
    (lambda: Letter("é", TOP), ValueError, "letter must be a single letter a-z, got 'é'"),
    (lambda: Letter(5, TOP), ValueError, "letter must be a single letter a-z, got 5"),
    (lambda: Letter("A", TOP), ValueError, "letter must be a single letter a-z, got 'A'"),
], ids=["plus-one", "var-none", "zero-one", "letter-one", "mu-three", "var-empty", "var-int", "letter-accent",
        "letter-int", "letter-upper"])
def test_the_constructor_refuses_a_wrong_arity_or_label(build, error, message):
    for _ in range(2):  # a refused node is not interned, so the second call is refused too
        with pytest.raises(error) as refused:
            build()
        assert type(refused.value) is error and str(refused.value) == message


def test_the_intern_table_keeps_no_term_alive():
    gc.collect()
    before = len(expr_module._NODES)
    burst = [p(" ".join("ab"[int(bit)] for bit in bin(i)[2:]) + " mu X. a X + T") for i in range(10000)]
    assert len(expr_module._NODES) > before
    del burst
    gc.collect()
    assert len(expr_module._NODES) <= before


def test_the_intern_table_keeps_no_term_alive_once_slots_are_filled():
    # a fixpoint's unfolding holds the fixpoint: the collector must free the cycle
    gc.collect()
    before = len(expr_module._NODES)
    burst = [p("mu X. " + " ".join("ab"[int(bit)] for bit in bin(i)[2:]) + " X + T") for i in range(2000)]
    for e in burst:
        pretty(e)
        unfold(e)
        assert e._text is not None and e._unfolded is not None
    assert len(expr_module._NODES) > before
    del burst, e
    gc.collect()
    assert len(expr_module._NODES) <= before
