"""Command-line interface.

Commands
--------
parse        print the canonical form of an expression
member       test an ultimately periodic word against an expression
check        check a cyclic proof file
decide       prove or refute an inclusion sequent
complement   print the structural complement of an expression
export-apa   summarise (and optionally render) an expression's automaton
corpus       bundled fixtures: run the regression suite, list or show entries

Expressions, words and sequents are taken from flags; bundled expression
names (and their short aliases such as f_a, i_a') may be used wherever an
expression can appear, as atoms, when all their letters are in the
alphabet.  A word that spells letters of the alphabet is read as letters
first.  Alphabet letters are `a`-`z`.

Each handler returns its Outcome and main alone prints it.  In text mode
that is the result, then its witness lines (`check`'s violations or lasso);
`export-apa` prints its counts and `corpus` one line per row or entry.
`--json` prints one line instead, the envelope {command, inputs, result,
witness?}, whose inputs are the command's arguments except `--json` and the
output files `--emit-proof` and `--dot`.

Exit codes: 0 positive verdict or success, 1 negative verdict or failing
corpus row, 2 locally invalid proof, 3 progress failure, 4 unguarded input,
5 proof search over its node budget, 64 usage errors, input-syntax errors and
input nested too deeply, 70 internal error (a failed self-check, or any
other exception, reported as `error: internal error: <type>: <message>`).
Codes 5, 64 and 70 print an `error:` line on stderr and nothing on stdout;
code 4 prints its result, and in text mode also an `error:` line on stderr.

`main(argv)` may be called repeatedly in one process: the parser is built on
the first call and reused, and each call prints and returns exactly what
`python -m rll` with the same argv would.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import NamedTuple, Sequence

from .automaton import build_apa, export_dot
from .calculus import format_sequent, parse_sequent
from .corpus import DECISIONS, EXPRESSIONS, name_table, proofs, run_suite
from .decide import BudgetExceededError, Proved, UnguardedSequentError, decide
from .expr import Alphabet, complement, parse, pretty
from .proof import check, parse_proof, serialize_proof
from .semantics import member, parse_word

# parsed arguments that are not a command's inputs: the command chosen and the
# output options
_NOT_INPUTS = frozenset({"command", "corpus_command", "json", "emit_proof", "dot"})


class Outcome(NamedTuple):
    """What a command answers: its exit code, its result, an optional
    witness, the text lines that follow the result, and a line for stderr in
    text mode.  A result that is not a string shows only in the envelope."""

    code: int
    result: object
    witness: object = None
    lines: Sequence[str] = ()
    stderr: str | None = None


def _cmd_parse(args) -> Outcome:
    return Outcome(0, pretty(parse(args.expr, Alphabet(args.alphabet), name_table())))


def _cmd_member(args) -> Outcome:
    alphabet = Alphabet(args.alphabet)
    e = parse(args.expr, alphabet, name_table())
    if member(parse_word(args.word, alphabet), e):
        return Outcome(0, "member")
    return Outcome(1, "nonmember")


def _cmd_check(args) -> Outcome:
    with open(args.file, "r", encoding="utf-8") as f:
        text = f.read()
    p = parse_proof(text)
    r = check(p)
    if r.ok:
        return Outcome(0, "accepted")
    if r.violations:
        lines = ["violation: %s" % v for v in r.violations]
        return Outcome(2, "local", {"violations": list(r.violations)}, lines)
    lasso = r.lasso
    stem = [p.order[v] for v, _ in lasso.stem + lasso.cycle[:1]]
    cycle = [p.order[v] for v, _ in lasso.cycle]
    witness = {
        "stem": stem,
        "cycle": cycle,
        "stem_edges": [j for _, j in lasso.stem],
        "cycle_edges": [j for _, j in lasso.cycle],
    }
    line = "lasso: stem %s cycle %s" % (" ".join(stem), " ".join(cycle))
    return Outcome(3, "progress", witness, [line])


def _cmd_decide(args) -> Outcome:
    s = parse_sequent(args.sequent, Alphabet(args.alphabet), names=name_table())
    try:
        out = decide(s)
    except UnguardedSequentError as exc:
        return Outcome(4, "unguarded", {"message": str(exc)}, stderr="error: %s" % exc)
    if isinstance(out, Proved):
        proof = out.proof  # serialized only where printed or written: here for a file, else by main
        if args.emit_proof:
            proof = serialize_proof(proof)
            with open(args.emit_proof, "w", encoding="utf-8") as f:
                f.write(proof)
        return Outcome(0, "proved", {"proof": proof})
    return Outcome(1, "refuted %s" % out.word, {"word": str(out.word)})


def _cmd_complement(args) -> Outcome:
    alphabet = Alphabet(args.alphabet)
    return Outcome(0, pretty(complement(parse(args.expr, alphabet, name_table()), alphabet)))


def _cmd_export_apa(args) -> Outcome:
    apa = build_apa(parse(args.expr, Alphabet(args.alphabet), name_table()))
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(export_dot(apa))
    counts = {
        "states": len(apa.states),
        "transitions": len(apa.transitions),
        "colours": len(set(apa.colour)),
    }
    line = "states=%(states)d transitions=%(transitions)d colours=%(colours)d" % counts
    return Outcome(0, counts, lines=[line])


def _cmd_corpus_run(args) -> Outcome:
    rows = run_suite(args.seed, args.filter)
    if not rows:
        raise ValueError("no corpus row matches %r" % args.filter)
    passed = sum(1 for r in rows if r.ok)
    result = {
        "passed": passed,
        "failed": len(rows) - passed,
        "rows": [{"group": r.group, "name": r.name, "ok": r.ok, "detail": r.detail} for r in rows],
    }
    lines = ["%s %s/%s - %s" % ("PASS" if r.ok else "FAIL", r.group, r.name, r.detail) for r in rows]
    lines.append("passed %d/%d" % (passed, len(rows)))
    return Outcome(0 if passed == len(rows) else 1, result, lines=lines)


def _cmd_corpus_list(args) -> Outcome:
    fixtures = proofs()
    result = {
        "expressions": {name: pretty(e) for name, e in EXPRESSIONS.items()},
        "decisions": {name: format_sequent(s) for name, s, _ in DECISIONS},
        "proofs": {name: len(p.order) for name, (p, _) in fixtures.items()},
    }
    lines = ["expression %s: %s" % row for row in result["expressions"].items()]
    lines += ["decision %s: %s  [%s]" % (name, format_sequent(s), verdict) for name, s, verdict in DECISIONS]
    lines += [
        "proof %s: %d nodes  [%s]" % (name, len(p.order), "accepted" if expected else "rejected")
        for name, (p, expected) in fixtures.items()
    ]
    return Outcome(0, result, lines=lines)


def _cmd_corpus_show(args) -> Outcome:
    # a name may denote an expression, a decision and a proof fixture
    name = args.name
    found = {}
    table = name_table()
    if name in table:
        found["expression"] = pretty(table[name])
    for dname, s, verdict in DECISIONS:
        if dname == name:
            found["decision"] = "%s  [%s]" % (format_sequent(s), verdict)
    fixtures = proofs()
    if name in fixtures:
        found["proof"] = serialize_proof(fixtures[name][0])
    if not found:
        raise ValueError("unknown corpus entry %r" % name)
    lines = []
    for kind, text in found.items():
        lines += text.splitlines() if kind == "proof" else ["%s: %s" % (kind, text)]
    return Outcome(0, found, lines=lines)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main call and kept: parse_args returns a fresh
    # namespace each call, and main picks each handler by command name when
    # it runs, so the parser holds nothing from one call to the next
    parser = argparse.ArgumentParser(prog="rll", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def finish(p):  # every command takes --json
        p.add_argument("--json", action="store_true", help="single-line JSON envelope")

    p = sub.add_parser("parse", help="print the canonical form of an expression")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--expr", required=True)
    finish(p)

    p = sub.add_parser("member", help="test a word stem(loop)^w against an expression")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--expr", required=True)
    finish(p)

    p = sub.add_parser("check", help="check a cyclic proof file")
    p.add_argument("file")
    finish(p)

    p = sub.add_parser("decide", help="prove or refute an inclusion sequent")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--sequent", required=True)
    p.add_argument("--emit-proof", metavar="FILE", help="write the proof when proved")
    finish(p)

    p = sub.add_parser("complement", help="print the structural complement")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--expr", required=True)
    finish(p)

    p = sub.add_parser("export-apa", help="the automaton of an expression")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--dot", metavar="FILE", help="write a DOT rendering")
    finish(p)

    p = sub.add_parser("corpus", help="bundled fixtures and regression suite")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    c = csub.add_parser("run", help="run the regression suite")
    c.add_argument("--filter", help="only rows whose group/name contains this")
    c.add_argument("--seed", type=int, default=0, help="seed for sampled batches")
    finish(c)
    c = csub.add_parser("list", help="list bundled expressions, decisions, proofs")
    finish(c)
    c = csub.add_parser("show", help="print one bundled entry")
    c.add_argument("name")
    finish(c)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    command = args.command if args.command != "corpus" else "corpus " + args.corpus_command
    # looked up on each call, not stored in the cached parser, so a handler
    # the module rebinds after the first call is the one that runs
    handler = {
        "parse": _cmd_parse,
        "member": _cmd_member,
        "check": _cmd_check,
        "decide": _cmd_decide,
        "complement": _cmd_complement,
        "export-apa": _cmd_export_apa,
        "corpus run": _cmd_corpus_run,
        "corpus list": _cmd_corpus_list,
        "corpus show": _cmd_corpus_show,
    }[command]
    try:
        out = handler(args)
    except (ValueError, OSError) as exc:  # ParseError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 64
    except RecursionError:
        # input that parses can still nest too deeply for a later stage
        print("error: expression nested too deeply", file=sys.stderr)
        return 64
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 5
    except RuntimeError as exc:  # the "internal error" self-checks
        print("error: %s" % exc, file=sys.stderr)
        return 70
    except Exception as exc:  # a fault in rll itself; exit 1 would read as a verdict
        message = " ".join(str(exc).split())
        print("error: internal error: %s: %s" % (type(exc).__name__, message), file=sys.stderr)
        return 70
    if args.json:
        inputs = {k: v for k, v in vars(args).items() if k not in _NOT_INPUTS}
        envelope = {"command": command, "inputs": inputs, "result": out.result}
        if out.witness is not None:
            envelope["witness"] = out.witness
        # a proof graph in a witness prints as its proof file
        print(json.dumps(envelope, sort_keys=True, ensure_ascii=False, default=serialize_proof))
        return out.code
    if isinstance(out.result, str):
        print(out.result)
    for line in out.lines:
        print(line)
    if out.stderr is not None:
        print(out.stderr, file=sys.stderr)
    return out.code


if __name__ == "__main__":
    sys.exit(main())
