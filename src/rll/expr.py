"""Right-linear lattice expressions.

The term language is

    e ::= X | a e | 0 | e + f | T | e & f | mu X. e | nu X. e

over a fixed alphabet of single-character letters.  An expression denotes a
language of infinite words: a letter prefixes, ``+`` and ``&`` are union and
intersection, ``0`` and ``T`` the empty and universal languages, and
``mu``/``nu`` bind least and greatest fixpoints.

This module is purely syntactic: construction, alpha-canonical renaming,
substitution, guardedness, the closure of an expression under one-step
decomposition/unfolding, the subformula order, and syntactic
complementation.  The closure is numbered once, as it is built: its
members, root first, and the member numbers of each member's reducts.  The
automaton, the evaluation game and the DOT export all read these numbers.

Terms are interned (hash-consed): a constructor returns the one live node
with its class and fields, so equality is identity and hashing is by
identity.  Bound variables are renamed by binder depth (see canonical), and
parse, unfold, complement and fl_closure return canonical terms, so
alpha-equivalent inputs come out as the same object.  A builder that names
each binder by its depth as it goes marks its result canonical with
built_canonical and walks it no more: unfold, fl_closure's members,
complement on a canonical input, the canonical forms of closed subterms
that closed_subterms builds from their parts, and the random draws of
rll.corpus.  A level shift of a closed term whose canonical form is known
marks its result with that form.  parse names binders by depth too, but
keeps its canonical walk: a bundled name used under a binder needs its
binders renamed, and the walk is the guard that turns input nested too
deeply into a ParseError.

Each node holds its structural facts, each computed once: free variables
and sort key when the node is built, from one split of its fields into a
label and children; on first use, its canonical form, the canonical forms
of its closed subterms, and, for a canonical node, its printed text, for a
canonical fixpoint its unfolding and for a closed canonical root its
closure.  A node holds no letter set: letters_of reads a closed term's
letters off its closure.  The intern table holds its nodes
weakly, so it keeps no term alive; a fixpoint's unfolding contains the
fixpoint, and the collector frees such cycles like any other.
"""

from __future__ import annotations

import operator
import re
import weakref


class ParseError(ValueError):
    """Raised for malformed expression / word / sequent / proof text."""


def _is_letter(a) -> bool:
    # exactly the letters the expression and word syntax can read
    return isinstance(a, str) and len(a) == 1 and "a" <= a <= "z"


class Alphabet(tuple):
    """Ordered alphabet of distinct letters ``a``-``z``: the tuple of its
    letters, so it is immutable and compares and hashes by value."""

    __slots__ = ()

    def __new__(cls, letters):
        letters = tuple(letters)
        if not letters:
            raise ValueError("alphabet must not be empty")
        for a in letters:
            if not _is_letter(a):
                raise ValueError("alphabet letters must be single letters a-z, got %r" % (a,))
        if len(set(letters)) != len(letters):
            raise ValueError("alphabet letters must be distinct: %r" % (letters,))
        return super().__new__(cls, letters)

    def __str__(self):
        return "".join(self)

    def __repr__(self):
        return "Alphabet(%r)" % (str(self),)


# ---------------------------------------------------------------------------
# AST


_EMPTY = frozenset()  # the one empty set that nodes hold, since frozenset() is not shared


def _joined(a: frozenset, b: frozenset) -> frozenset:
    """a | b, as b itself whenever it holds a, else as a whenever it holds b."""
    if a <= b:
        return b
    return a if b <= a else a | b


# (class, label, *children) -> the one live node with them.  A child is keyed
# by its id(): the node holds the child, so the id is not reused while the
# entry is live, and the table holds no node alive, not even through its keys.
_NODES = weakref.WeakValueDictionary()
_KEY = operator.attrgetter("_key")


class Expr:
    """Base class for expression nodes.  Nodes are interned and immutable:
    build them with the constructors and never assign to their fields."""

    __slots__ = (
        "__weakref__", "_free", "_key", "_canon", "_subterms", "_closure", "_text", "_unfolded",
    )

    def __new__(cls, *fields):
        # one split of the fields: the letter, variable or binder name, or
        # "", then the children, which the key, free set and sort key read
        if len(fields) != len(cls.__slots__):
            raise TypeError("%s takes %d fields" % (cls.__name__, len(cls.__slots__)))
        label, kids = (fields[0], fields[1:]) if cls in _LABELLED else ("", fields)
        ident = (cls, label, *map(id, kids))
        node = _NODES.get(ident)
        if node is not None:
            return node
        if cls is Var and not (isinstance(label, str) and label):
            raise ValueError("variable name must be a nonempty string")
        if cls is Letter and not _is_letter(label):
            raise ValueError("letter must be a single letter a-z, got %r" % (label,))
        node = object.__new__(cls)
        for name, value in zip(cls.__slots__, fields):
            setattr(node, name, value)
        # the free set is _EMPTY, or a child's own set whenever that one is equal
        free = frozenset(fields) if cls is Var else _EMPTY
        for k in kids:
            free = _joined(free, k._free)
        if cls in _BINDERS and label in free:
            free = free - {label} or _EMPTY
        node._free, node._key = free, (cls._rank, tuple(map(_KEY, kids)), label)
        node._canon = node._subterms = node._closure = node._text = node._unfolded = None
        _NODES[ident] = node
        return node

    def __repr__(self):
        return "Expr[%s]" % pretty(self)


class Var(Expr):
    """A variable, ``Var(name)``."""

    __slots__ = ("name",)
    _rank = 2


class Letter(Expr):
    """A letter-prefixed expression ``a e``, ``Letter(letter, body)``."""

    __slots__ = ("letter", "body")
    _rank = 3


class Zero(Expr):
    __slots__ = ()
    _rank = 0


class Top(Expr):
    __slots__ = ()
    _rank = 1


class Plus(Expr):
    """A sum ``e + f``, ``Plus(left, right)``."""

    __slots__ = ("left", "right")
    _rank = 4


class Cap(Expr):
    """An intersection ``e & f``, ``Cap(left, right)``."""

    __slots__ = ("left", "right")
    _rank = 5


class Mu(Expr):
    """A least fixpoint ``mu X. e``, ``Mu(var, body)``."""

    __slots__ = ("var", "body")
    _rank = 6


class Nu(Expr):
    """A greatest fixpoint ``nu X. e``, ``Nu(var, body)``."""

    __slots__ = ("var", "body")
    _rank = 7


_BINDERS = (Mu, Nu)
_LABELLED = (Var, Letter, Mu, Nu)  # the classes whose first field is a name or letter, not a child

ZERO = Zero()
TOP = Top()


# ---------------------------------------------------------------------------
# Basic structural queries


def free_vars(e: Expr) -> frozenset:
    """The set of free variable names of e."""
    return e._free


def letters_of(e: Expr) -> frozenset:
    """The set of letters that occur in the closed expression e, read off its
    closure: each letter occurrence of e heads a letter member, itself or a
    copy that unfolding made.  Raises ValueError on an open e, as
    fl_closure does."""
    return frozenset(m.letter for m in fl_closure(e).members if isinstance(m, Letter))


def _children(e: Expr):
    if isinstance(e, (Plus, Cap)):
        return (e.left, e.right)
    if isinstance(e, (Letter, Mu, Nu)):
        return (e.body,)
    return ()


def ast_size(e: Expr) -> int:
    """Number of AST nodes; the size measure for the closure bound."""
    return 1 + sum(map(ast_size, _children(e)))


def require_closed(e: Expr, op: str):
    fv = free_vars(e)
    if fv:
        raise ValueError("%s requires a closed expression; free: %s" % (op, ", ".join(sorted(fv))))


# ---------------------------------------------------------------------------
# Canonical renaming

# Bound variables are renamed to ".<n>" by binder depth.  The dot keeps the
# namespace disjoint from anything the parser can produce, so canonically
# renamed terms never collide with user variable names, and alpha-equivalent
# terms become the same node.


def canonical(e: Expr) -> Expr:
    """Rename bound variables positionally, so that alpha-equivalent terms
    share one canonical node.  Free variables are left untouched.  Computed
    once per node; a canonical node is its own canonical form."""
    if e._canon is not None:
        return e._canon
    base = 0
    for v in free_vars(e):
        if v.startswith(".") and v[1:].isdigit():
            base = max(base, int(v[1:]) + 1)

    def go(t, depth, env):
        if isinstance(t, Var):
            return Var(env[t.name]) if t.name in env else t
        if isinstance(t, Letter):
            return Letter(t.letter, go(t.body, depth, env))
        if isinstance(t, Plus):
            return Plus(go(t.left, depth, env), go(t.right, depth, env))
        if isinstance(t, Cap):
            return Cap(go(t.left, depth, env), go(t.right, depth, env))
        if isinstance(t, _BINDERS):
            fresh = ".%d" % (base + depth)
            inner = dict(env)
            inner[t.var] = fresh
            return type(t)(fresh, go(t.body, depth + 1, inner))
        return t

    e._canon = built_canonical(go(e, 0, {}))
    return e._canon


def built_canonical(c: Expr) -> Expr:
    """Mark c as its own canonical form and return it, for a builder that
    makes c canonical: each binder named .n by its depth above the highest
    free .n, and each bound variable by its binder."""
    c._canon = c
    return c


def unfold(e: Expr) -> Expr:
    """One unfolding of a fixpoint: sigma X. f  ->  f[X := sigma X. f].
    In the canonical form X is .k, the fixpoint's own level, and f names
    its binders .k+1 and up, so one walk of f builds the result canonical:
    each level above X's moves down one, and each copy of the fixpoint is
    raised by the number of f's binders above it.  Computed once per
    canonical fixpoint, which holds its unfolding."""
    if not isinstance(e, _BINDERS):
        raise ValueError("unfold expects a fixpoint expression, got %s" % pretty(e))
    return _unfold(canonical(e), {})


def _unfold(e: Expr, memo: dict) -> Expr:
    """unfold of the canonical fixpoint e, its shifts kept in memo, which a
    closure build shares between all the unfoldings it makes."""
    if e._unfolded is None:
        e._unfolded = built_canonical(_shift(e.body, int(e.var[1:]) + 1, -1, memo, e))
    return e._unfolded


def _shift(t: Expr, floor: int, delta: int, memo: dict, fixpoint=None, depth=0) -> Expr:
    """t with every level .n at or above floor, binders included, moved to
    .n+delta.  Given a fixpoint bound at level floor-1, each free .(floor-1)
    becomes a copy of it raised by depth, the number of binders above it.

    Every caller shifts a closed term uniformly: floor is at or below each
    of its levels, so the result renames t's binders alike and has t's
    canonical form, which the result is marked with once t's is known.
    Each copy of the fixpoint, which is canonical, is thus marked with it.
    memo holds the results by (t, floor, delta, depth, fixpoint), with
    depth 0 and fixpoint None where the result does not depend on them."""
    if fixpoint is None or fixpoint.var not in t._free:
        fixpoint, depth = None, 0  # the result is the same at any depth
    key = (t, floor, delta, depth, fixpoint)
    out = memo.get(key)
    if out is None:
        args = floor, delta, memo, fixpoint, depth
        if isinstance(t, Var):
            n = int(t.name[1:]) if t.name[0] == "." and t.name[1:].isdigit() else -1
            if fixpoint is not None:  # t is the fixpoint's own variable, n == floor-1
                out = _shift(fixpoint, n, depth, memo) if depth else fixpoint
            else:
                out = Var(".%d" % (n + delta)) if n >= floor else t
        elif isinstance(t, Letter):
            out = Letter(t.letter, _shift(t.body, *args))
        elif isinstance(t, (Plus, Cap)):
            out = type(t)(_shift(t.left, *args), _shift(t.right, *args))
        elif isinstance(t, _BINDERS):
            out = type(t)(".%d" % (int(t.var[1:]) + delta), _shift(t.body, floor, delta, memo, fixpoint, depth + 1))
        else:
            out = t
        if t._canon is not None and not t._free:
            out._canon = t._canon
        memo[key] = out
    return out


def is_guarded(e: Expr) -> bool:
    """True if every variable occurrence sits beneath at least one letter
    prefix inside its binder.  Requires a closed expression."""
    require_closed(e, "is_guarded")

    def go(t, exposed):
        if isinstance(t, Var):
            return t.name not in exposed
        if isinstance(t, Letter):
            return go(t.body, frozenset())
        if isinstance(t, (Plus, Cap)):
            return go(t.left, exposed) and go(t.right, exposed)
        if isinstance(t, _BINDERS):
            return go(t.body, exposed | {t.var})
        return True

    return go(e, frozenset())


# ---------------------------------------------------------------------------
# Total order on expressions (used wherever a deterministic iteration order
# is required: strategy tie-breaks, set printing, colour linearisation).


def expr_sort_key(e: Expr):
    """Key for a total order on expressions: constructor rank, then
    components.  Every key has the shape (rank, child-keys, payload), where
    the payload is the letter or variable name, so mixed comparisons never
    hit unlike types."""
    return e._key


# ---------------------------------------------------------------------------
# Parsing


# a lowercase word may hold hyphens, as bundled names do
_TOKEN = re.compile(r"[().+&]|[a-z][A-Za-z0-9_'-]*|[A-Z][A-Za-z0-9_']*|0|\S")
_LOWER_WORD = re.compile(r"[a-z][A-Za-z0-9_'-]*")
_VARIABLE = re.compile(r"[A-Z][A-Za-z0-9_']*")


def parse(text: str, alphabet: Alphabet, names=None) -> Expr:
    """Parse the ASCII expression syntax over the given alphabet.

    Grammar (loosest to tightest): sums ``e + f``, intersections ``e & f``,
    letter prefixes ``a e``, then atoms ``0``, ``T``, variables, parentheses,
    names and the binders ``mu X. e`` / ``nu X. e``, which extend maximally
    to the right.  ``mu``, ``nu`` and ``T`` are reserved: ``T`` is always
    the constant, so it cannot be bound.  A lowercase word that spells one
    or more letters of the alphabet is read as nested prefixes; otherwise,
    if `names` (a dict from name to closed term) holds the word and every
    letter of its term is in the alphabet, it is an atom that stands for
    that term.  The result is canonically renamed.
    Input nested deeper than the interpreter's recursion limit allows raises
    ParseError.
    """
    toks = [(m.group(0), m.start()) for m in _TOKEN.finditer(text)]
    toks.append((None, len(text)))
    pos = 0
    bound = []  # the enclosing binders' variables, outermost first

    def peek():
        return toks[pos][0]

    def err(msg):
        at = toks[pos][1]
        raise ParseError("%s at position %d in %r" % (msg, at, text))

    def advance():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        return tok[0]

    def parse_sum():
        e = parse_cap()
        while peek() == "+":
            advance()
            e = Plus(e, parse_cap())
        return e

    def parse_cap():
        e = parse_prefix()
        while peek() == "&":
            advance()
            e = Cap(e, parse_prefix())
        return e

    def is_word(tok):
        return tok is not None and tok not in ("mu", "nu") and _LOWER_WORD.fullmatch(tok)

    def parse_prefix():
        # a run of letter prefixes, then an atom
        letters = ""
        while is_word(peek()) and all(c in alphabet for c in peek()):
            letters += advance()
        tok = peek()
        if tok is None:
            err("unexpected end of input")
        if is_word(tok):
            # not letters of the alphabet: a bundled name over it, or an error
            if not names or tok not in names or not all(c in alphabet for c in letters_of(names[tok])):
                err("unknown name or letter outside alphabet: %r" % tok)
        elif tok not in ("0", "T", "(", "mu", "nu") and not _VARIABLE.fullmatch(tok):
            err("unexpected token %r" % tok)
        advance()
        if is_word(tok):
            e = names[tok]
        elif tok == "0":
            e = ZERO
        elif tok == "T":
            e = TOP
        elif tok == "(":
            e = parse_sum()
            if peek() != ")":
                err("expected ')'")
            advance()
        elif tok in ("mu", "nu"):
            var = peek()
            if var is None or not _VARIABLE.fullmatch(var):
                err("expected a variable after %r" % tok)
            if var == "T":
                err("T is the constant T and cannot be bound")
            advance()
            if peek() != ".":
                err("expected '.' after the bound variable")
            advance()
            # name binders as canonical() does, so that known terms are found
            # in the intern table already canonical
            fresh = ".%d" % len(bound)
            bound.append(var)
            e = (Mu if tok == "mu" else Nu)(fresh, parse_sum())
            bound.pop()
        elif tok in bound:
            e = Var(".%d" % (len(bound) - 1 - bound[::-1].index(tok)))
        else:
            e = Var(tok)
        for c in reversed(letters):
            e = Letter(c, e)
        return e

    try:
        e = parse_sum()
        if peek() is not None:
            err("trailing input")
        return canonical(e)
    except RecursionError:
        raise ParseError("expression nested too deeply") from None


# ---------------------------------------------------------------------------
# Printing


def _display_candidates():
    seed = "XYZWVU"
    i = 0
    while True:
        suffix = "" if i == 0 else str(i)
        for ch in seed:
            yield ch + suffix
        i += 1


def pretty(e: Expr) -> str:
    """Render canonical(e) in the parseable ASCII syntax with minimal
    parentheses, so alpha-equivalent terms print alike.  The binder at depth
    d is displayed as the d-th of X, Y, Z, ... that is not a free variable
    of e, and past depth 64 as V_<d>, with a `_` added until it is not one.
    Rendered once per canonical node, which holds its text."""
    e = canonical(e)
    if e._text is None:
        e._text = _render(e)
    return e._text


def _render(e: Expr) -> str:
    avoid = free_vars(e)
    display = []
    gen = (name for name in _display_candidates() if name not in avoid)

    def name_at(depth):
        if depth >= 64:
            name = "V_%d" % depth
            while name in avoid:
                name += "_"
            return name
        while len(display) <= depth:
            display.append(next(gen))
        return display[depth]

    def go(t, prec, tail, depth, env):
        if isinstance(t, Zero):
            return "0"
        if isinstance(t, Top):
            return "T"
        if isinstance(t, Var):
            return env.get(t.name, t.name)
        if isinstance(t, Letter):
            if prec > 3:
                return "(" + t.letter + " " + go(t.body, 3, True, depth, env) + ")"
            return t.letter + " " + go(t.body, 3, tail, depth, env)
        if isinstance(t, Plus):
            if prec > 1:
                return "(" + go(t.left, 1, False, depth, env) + " + " + go(t.right, 2, True, depth, env) + ")"
            return go(t.left, 1, False, depth, env) + " + " + go(t.right, 2, tail, depth, env)
        if isinstance(t, Cap):
            if prec > 2:
                return "(" + go(t.left, 2, False, depth, env) + " & " + go(t.right, 3, True, depth, env) + ")"
            return go(t.left, 2, False, depth, env) + " & " + go(t.right, 3, tail, depth, env)
        # binders
        shown = name_at(depth)
        inner = dict(env)
        inner[t.var] = shown
        kw = "mu" if isinstance(t, Mu) else "nu"
        body = go(t.body, 0, True, depth + 1, inner)
        s = "%s %s. %s" % (kw, shown, body)
        return s if tail else "(" + s + ")"

    return go(e, 0, True, 0, {})


# ---------------------------------------------------------------------------
# Closure under one-step decomposition


class FLClosure:
    """The least set containing the root and closed under one-step reducts:
    a letter prefix steps to its body, a sum or intersection to its left
    then its right component, and a fixpoint to its unfolding.

    The closure is numbered once, as it is built.  `members` lists it in
    breadth-first discovery order, so members[0] is the root; `succ[k]`
    holds the member numbers of members[k]'s reducts, in the order above.
    Each member is marked canonical as it is numbered: a letter's body and
    a sum's parts sit under no binder, and an unfolding is built canonical.
    Member k is state k of the expression's automaton and, at word offset o,
    position o*len(members) + k of its evaluation game.  `coloring` holds
    the colour of each member number once `automaton.default_coloring` has
    computed it.
    """

    __slots__ = ("members", "succ", "coloring")

    def __init__(self, members: tuple, succ: tuple):
        self.members, self.succ = members, succ
        self.coloring = None


def fl_closure(e: Expr) -> FLClosure:
    """Closure of a closed expression under one-step decomposition, built
    and numbered once per canonical root.  Its unfoldings share one memo of
    shifts, which the build drops when it ends."""
    root = canonical(e)
    if root._closure is None:
        require_closed(root, "fl_closure")
        members = [root]
        number = {root: 0}
        succ = []
        shifted = {}
        for t in members:  # the list grows while it is walked
            ks = []
            for u in (_unfold(t, shifted),) if isinstance(t, _BINDERS) else _children(t):
                if u not in number:
                    number[u] = len(members)
                    members.append(built_canonical(u))
                ks.append(number[u])
            succ.append(tuple(ks))
        root._closure = FLClosure(tuple(members), tuple(succ))
    return root._closure


# ---------------------------------------------------------------------------
# The subformula order


def subformula_leq(f: Expr, g: Expr) -> bool:
    """True if f occurs as a subterm of g, modulo renaming of bound
    variables.  Reflexive.  f and g must be closed (ValueError otherwise).

    Canonical renaming leaves free names alone, so canonical(t) is closed
    exactly when t is, and only a closed subterm of g can be f: f is below
    g when canonical(f) is in closed_subterms(canonical(g))."""
    require_closed(f, "subformula_leq")
    require_closed(g, "subformula_leq")
    return canonical(f) in closed_subterms(canonical(g))


def closed_subterms(g: Expr) -> frozenset:
    """The canonical forms of the closed subterms of a canonical closed g,
    g's own included.  Each node walked keeps its own set, and each closed
    one its canonical form, so closures that share sub-DAGs share the work.

    In g, a closed subterm at binder depth d names its binders .d, .d+1,
    ..., so its canonical form lowers every level by d.  A closed letter,
    sum or intersection is built from its children's forms, since renaming
    does not cross it; a closed binder is shifted down, unless its form is
    known already, as it is for each copy of a fixpoint that an unfolding
    raised."""
    shifted = {}

    def walk(t, d):
        if t._subterms is None:
            kids = _children(t)
            inner = d + 1 if isinstance(t, _BINDERS) else d
            found = frozenset().union(*(walk(k, inner) for k in kids))
            if not t._free:
                if t._canon is None:
                    if not d or not kids:
                        canon = t
                    elif isinstance(t, Letter):
                        canon = Letter(t.letter, t.body._canon)
                    elif isinstance(t, _BINDERS):
                        canon = _shift(t, 0, -d, shifted)
                    else:
                        canon = type(t)(t.left._canon, t.right._canon)
                    t._canon = built_canonical(canon)
                found |= {t._canon}
            t._subterms = found
        return t._subterms

    return walk(g, 0)


# ---------------------------------------------------------------------------
# Complement


def complement(e: Expr, alphabet: Alphabet) -> Expr:
    """Syntactic complement over the given alphabet: dualises 0/T, +/&, and
    mu/nu; a letter prefix ``a e`` becomes ``a e^c`` plus a one-letter branch
    ``b T`` for every other letter b, in alphabet order.  Free variables are
    kept as-is, so open bodies may be complemented.  Raises if e uses a
    letter not in the alphabet.

    The walk keeps every binder's name and depth and every free variable,
    and adds only closed ``b T`` branches, so the complement of a canonical
    term is canonical as built; any other input is renamed afterwards."""

    def go(t):
        if isinstance(t, Var):
            return t
        if isinstance(t, Zero):
            return TOP
        if isinstance(t, Top):
            return ZERO
        if isinstance(t, Plus):
            return Cap(go(t.left), go(t.right))
        if isinstance(t, Cap):
            return Plus(go(t.left), go(t.right))
        if isinstance(t, Mu):
            return Nu(t.var, go(t.body))
        if isinstance(t, Nu):
            return Mu(t.var, go(t.body))
        # letter prefix
        if t.letter not in alphabet:
            raise ValueError("letter %r is not in alphabet %s" % (t.letter, alphabet))
        parts = [Letter(t.letter, go(t.body))]
        for b in alphabet:
            if b != t.letter:
                parts.append(Letter(b, TOP))
        out = parts[0]
        for p in parts[1:]:
            out = Plus(out, p)
        return out

    return built_canonical(go(e)) if e._canon is e else canonical(go(e))
