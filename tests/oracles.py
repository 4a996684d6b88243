"""Independent test oracles and random generators.

The membership oracle here computes the language semantics directly: for an
ultimately periodic word the set of distinct suffixes is finite (one per
offset of stem+loop), every operator restricts to subsets of that finite set,
and mu/nu are literal Knaster-Tarski iterations.  It shares no code with the
game-based membership of rll.semantics, which it cross-checks.
"""

from __future__ import annotations

from rll.expr import Alphabet, Cap, Letter, Mu, Nu, Plus, Top, Var, Zero


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
