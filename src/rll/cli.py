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
expression can appear.  `--json` wraps the result in a single-line envelope
{command, inputs, result, witness?}.

Exit codes: 0 positive verdict or success, 1 negative verdict or failing
corpus row, 2 locally invalid proof, 3 progress failure, 4 unguarded input,
5 proof search over its node budget, 64 usage errors, input-syntax errors and
input nested too deeply, 70 internal error (a failed self-check).  Codes 5
and 70 print one `error:` line on stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .automaton import build_apa, export_dot
from .calculus import format_sequent, parse_sequent
from .corpus import (
    DECISIONS,
    EXPRESSIONS,
    name_table,
    proofs,
    run_suite,
)
from .decide import BudgetExceededError, Proved, UnguardedSequentError, decide
from .expr import Alphabet, complement, parse, pretty
from .proof import check, parse_proof, serialize_proof
from .semantics import member, parse_word

_NAME_TOKEN = re.compile(r"[A-Za-z][A-Za-z0-9_'-]*")


def _expand_names(text: str) -> str:
    """Replace bundled expression names with their parenthesised forms."""
    table = name_table()

    def sub(m):
        name = m.group(0)
        if name in table:
            return "(%s)" % pretty(table[name])
        return name

    return _NAME_TOKEN.sub(sub, text)


def _emit(args, command, inputs, result, witness=None, extra_lines=()):
    if args.json:
        envelope = {"command": command, "inputs": inputs, "result": result}
        if witness is not None:
            envelope["witness"] = witness
        print(json.dumps(envelope, sort_keys=True, ensure_ascii=False))
        return
    if isinstance(result, str):
        print(result)
    else:
        print(json.dumps(result, sort_keys=True, ensure_ascii=False))
    for line in extra_lines:
        print(line)


def _alphabet(args) -> Alphabet:
    return Alphabet(args.alphabet)


def _cmd_parse(args) -> int:
    alphabet = _alphabet(args)
    e = parse(_expand_names(args.expr), alphabet)
    inputs = {"alphabet": args.alphabet, "expr": args.expr}
    _emit(args, "parse", inputs, pretty(e))
    return 0


def _cmd_member(args) -> int:
    alphabet = _alphabet(args)
    e = parse(_expand_names(args.expr), alphabet)
    w = parse_word(args.word, alphabet)
    verdict = member(w, e)
    inputs = {"alphabet": args.alphabet, "word": args.word, "expr": args.expr}
    _emit(args, "member", inputs, "member" if verdict else "nonmember")
    return 0 if verdict else 1


def _cmd_check(args) -> int:
    with open(args.file, "r", encoding="utf-8") as f:
        text = f.read()
    p = parse_proof(text)
    r = check(p)
    inputs = {"file": args.file}
    if r.ok:
        _emit(args, "check", inputs, "accepted")
        return 0
    if r.violations:
        witness = {"violations": list(r.violations)}
        _emit(
            args,
            "check",
            inputs,
            "local",
            witness,
            ["violation: %s" % v for v in r.violations],
        )
        return 2
    lasso = r.lasso
    witness = {
        "stem": list(lasso.stem),
        "cycle": list(lasso.cycle),
        "stem_edges": list(lasso.stem_edges),
        "cycle_edges": list(lasso.cycle_edges),
    }
    line = "lasso: stem %s cycle %s" % (
        " ".join(lasso.stem) or "-",
        " ".join(lasso.cycle),
    )
    _emit(args, "check", inputs, "progress", witness, [line])
    return 3


def _cmd_decide(args) -> int:
    alphabet = _alphabet(args)
    s = parse_sequent(_expand_names(args.sequent), alphabet)
    inputs = {"alphabet": args.alphabet, "sequent": args.sequent}
    try:
        out = decide(s)
    except UnguardedSequentError as exc:
        _emit(args, "decide", inputs, "unguarded", {"message": str(exc)})
        if not args.json:
            print("error: %s" % exc, file=sys.stderr)
        return 4
    if isinstance(out, Proved):
        text = serialize_proof(out.proof)
        if args.emit_proof:
            with open(args.emit_proof, "w", encoding="utf-8") as f:
                f.write(text)
        _emit(args, "decide", inputs, "proved", {"proof": text})
        return 0
    _emit(args, "decide", inputs, "refuted %s" % out.word, {"word": str(out.word)})
    return 1


def _cmd_complement(args) -> int:
    alphabet = _alphabet(args)
    e = parse(_expand_names(args.expr), alphabet)
    inputs = {"alphabet": args.alphabet, "expr": args.expr}
    _emit(args, "complement", inputs, pretty(complement(e, alphabet)))
    return 0


def _cmd_export_apa(args) -> int:
    alphabet = _alphabet(args)
    e = parse(_expand_names(args.expr), alphabet)
    apa = build_apa(e)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as f:
            f.write(export_dot(apa))
    counts = {
        "states": len(apa.states),
        "transitions": len(apa.transitions),
        "colours": len({apa.colour[s] for s in apa.states}),
    }
    inputs = {"alphabet": args.alphabet, "expr": args.expr}
    if args.json:
        _emit(args, "export-apa", inputs, counts)
    else:
        print(
            "states=%d transitions=%d colours=%d"
            % (counts["states"], counts["transitions"], counts["colours"])
        )
    return 0


def _cmd_corpus(args) -> int:
    if args.corpus_command == "run":
        rows = run_suite(args.seed, args.filter)
        if not rows:
            print("error: no corpus row matches %r" % args.filter, file=sys.stderr)
            return 64
        passed = sum(1 for r in rows if r.ok)
        if args.json:
            result = {
                "passed": passed,
                "failed": len(rows) - passed,
                "rows": [
                    {"group": r.group, "name": r.name, "ok": r.ok, "detail": r.detail}
                    for r in rows
                ],
            }
            inputs = {"seed": args.seed, "filter": args.filter}
            _emit(args, "corpus run", inputs, result)
        else:
            for r in rows:
                print(
                    "%s %s/%s - %s" % ("PASS" if r.ok else "FAIL", r.group, r.name, r.detail)
                )
            print("passed %d/%d" % (passed, len(rows)))
        return 0 if passed == len(rows) else 1

    if args.corpus_command == "list":
        fixtures = proofs()
        expr_rows = {name: pretty(e) for name, e in EXPRESSIONS.items()}
        decision_rows = {name: format_sequent(s) for name, s, _ in DECISIONS}
        proof_rows = {name: len(p.order) for name, (p, _) in fixtures.items()}
        if args.json:
            result = {
                "expressions": expr_rows,
                "decisions": decision_rows,
                "proofs": proof_rows,
            }
            _emit(args, "corpus list", {}, result)
        else:
            for name, text in expr_rows.items():
                print("expression %s: %s" % (name, text))
            for name, s, verdict in DECISIONS:
                print("decision %s: %s  [%s]" % (name, format_sequent(s), verdict))
            for name, (p, expected) in fixtures.items():
                print(
                    "proof %s: %d nodes  [%s]"
                    % (name, len(p.order), "accepted" if expected else "rejected")
                )
        return 0

    # show; a name may denote an expression, a decision and a proof fixture
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
        print("error: unknown corpus entry %r" % name, file=sys.stderr)
        return 64
    if args.json:
        _emit(args, "corpus show", {"name": name}, found)
    else:
        for kind, text in found.items():
            if kind == "proof":
                print(text, end="")
            else:
                print("%s: %s" % (kind, text))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rll", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="single-line JSON envelope")

    p = sub.add_parser("parse", help="print the canonical form of an expression")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--expr", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("member", help="test a word stem(loop)^w against an expression")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--word", required=True)
    p.add_argument("--expr", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_member)

    p = sub.add_parser("check", help="check a cyclic proof file")
    p.add_argument("file")
    add_json(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decide", help="prove or refute an inclusion sequent")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--sequent", required=True)
    p.add_argument("--emit-proof", metavar="FILE", help="write the proof when proved")
    add_json(p)
    p.set_defaults(func=_cmd_decide)

    p = sub.add_parser("complement", help="print the structural complement")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--expr", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_complement)

    p = sub.add_parser("export-apa", help="the automaton of an expression")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--expr", required=True)
    p.add_argument("--dot", metavar="FILE", help="write a DOT rendering")
    add_json(p)
    p.set_defaults(func=_cmd_export_apa)

    p = sub.add_parser("corpus", help="bundled fixtures and regression suite")
    csub = p.add_subparsers(dest="corpus_command", required=True)
    c = csub.add_parser("run", help="run the regression suite")
    c.add_argument("--filter", help="only rows whose group/name contains this")
    c.add_argument("--seed", type=int, default=0, help="seed for sampled batches")
    add_json(c)
    c.set_defaults(func=_cmd_corpus)
    c = csub.add_parser("list", help="list bundled expressions, decisions, proofs")
    add_json(c)
    c.set_defaults(func=_cmd_corpus)
    c = csub.add_parser("show", help="print one bundled entry")
    c.add_argument("name")
    add_json(c)
    c.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 64
    try:
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
