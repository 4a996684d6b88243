"""The benchmark's own expressions and its membership reference.

Expressions are plain tuples, built and printed here, so that the benchmark
never calls rll to decide what an answer should be:

    ("var", X)  ("zero",)  ("top",)  ("letter", a, e)
    ("plus", e, f)  ("cap", e, f)  ("mu", X, e)  ("nu", X, e)

`member` is a copy of the denotational oracle of tests/oracles.py, kept
independent of rll: an ultimately periodic word stem(loop)^w has one suffix
per offset below |stem|+|loop|, every operator maps sets of offsets to sets
of offsets, and mu/nu are literal Knaster-Tarski iterations.  Sets of
offsets are integers used as bit sets.
"""

from __future__ import annotations

import re

ZERO = ("zero",)
TOP = ("top",)


def var(name):
    return ("var", name)


def letter(a, body):
    return ("letter", a, body)


def mu(name, body):
    return ("mu", name, body)


def nu(name, body):
    return ("nu", name, body)


def plus(*terms):
    """Left-nested sum of one or more terms."""
    out = terms[0]
    for t in terms[1:]:
        out = ("plus", out, t)
    return out


def cap(*terms):
    """Left-nested intersection of one or more terms."""
    out = terms[0]
    for t in terms[1:]:
        out = ("cap", out, t)
    return out


def show(e) -> str:
    """Print in rll's ASCII syntax, parenthesising every compound term."""
    kind = e[0]
    if kind == "var":
        return e[1]
    if kind == "zero":
        return "0"
    if kind == "top":
        return "T"
    if kind == "letter":
        return "%s %s" % (e[1], show(e[2]))
    if kind in ("plus", "cap"):
        op = " + " if kind == "plus" else " & "
        return "(%s%s%s)" % (show(e[1]), op, show(e[2]))
    return "(%s %s. %s)" % (kind, e[1], show(e[2]))


def show_sequent(lhs, rhs) -> str:
    return ("%s |- %s" % (", ".join(map(show, lhs)), ", ".join(map(show, rhs)))).strip()


def rename_letters(e, table):
    """Replace every letter a by table[a]."""
    kind = e[0]
    if kind == "letter":
        return ("letter", table[e[1]], rename_letters(e[2], table))
    if kind in ("plus", "cap"):
        return (kind, rename_letters(e[1], table), rename_letters(e[2], table))
    if kind in ("mu", "nu"):
        return (kind, e[1], rename_letters(e[2], table))
    return e


def complement(e, alphabet: str):
    """The structural complement: 0/T, +/& and mu/nu swap, and a e becomes
    a e^c + b T + ... for the other letters b in alphabet order."""
    kind = e[0]
    if kind == "var":
        return e
    if kind == "zero":
        return TOP
    if kind == "top":
        return ZERO
    if kind == "plus":
        return ("cap", complement(e[1], alphabet), complement(e[2], alphabet))
    if kind == "cap":
        return ("plus", complement(e[1], alphabet), complement(e[2], alphabet))
    if kind in ("mu", "nu"):
        return ("nu" if kind == "mu" else "mu", e[1], complement(e[2], alphabet))
    a = e[1]
    return plus(letter(a, complement(e[2], alphabet)), *(letter(b, TOP) for b in alphabet if b != a))


_WORD = re.compile(r"([a-z]*)\(([a-z]+)\)\^w\Z")


def parse_word(text: str):
    """(stem, loop) from stem(loop)^w, or None if malformed."""
    m = _WORD.match(text)
    return (m.group(1), m.group(2)) if m else None


def member(stem: str, loop: str, e) -> bool:
    """True iff stem(loop)^w lies in the language of the closed expression e."""
    if not loop:
        raise ValueError("loop must be nonempty")
    s = len(stem)
    n = s + len(loop)
    word = stem + loop
    full = (1 << n) - 1
    low = (1 << (n - 1)) - 1
    at = {}
    for o, c in enumerate(word):
        at[c] = at.get(c, 0) | (1 << o)

    def pre(bits):
        # offsets whose successor lies in bits: o -> o + 1, and n - 1 -> s
        return ((bits >> 1) & low) | (((bits >> s) & 1) << (n - 1))

    def sem(t, env):
        kind = t[0]
        if kind == "var":
            return env[t[1]]
        if kind == "zero":
            return 0
        if kind == "top":
            return full
        if kind == "letter":
            return at.get(t[1], 0) & pre(sem(t[2], env))
        if kind == "plus":
            return sem(t[1], env) | sem(t[2], env)
        if kind == "cap":
            return sem(t[1], env) & sem(t[2], env)
        cur = 0 if kind == "mu" else full
        while True:
            inner = dict(env)
            inner[t[1]] = cur
            nxt = sem(t[2], inner)
            if nxt == cur:
                return cur
            cur = nxt

    return bool(sem(e, {}) & 1)
