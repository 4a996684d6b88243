"""`src/rll` holds only product code: every top-level function and class is
referenced, transitively, from `cli.main` or from code that runs on import.
A name referenced only inside an unreachable definition does not count.
Test-only algorithms belong in `tests/oracles.py`.  Every import sits at
the top of its module: an import inside a function or class body usually
works round a module cycle, which belongs fixed in the module layout."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rll"


def _unreachable_definitions():
    defs = {}  # (module, name) -> definition node
    scope = {}  # module -> name bound at top level -> (module, name) it denotes
    units = [("cli", ast.Name("main"))]  # (module, code) pairs known to run
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        names = scope[mod] = {}
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                defs[mod, stmt.name] = stmt
                names[stmt.name] = (mod, stmt.name)
            elif isinstance(stmt, ast.ImportFrom) and stmt.level == 1:
                for alias in stmt.names:
                    names[alias.asname or alias.name] = (stmt.module, alias.name)
            else:
                units.append((mod, stmt))

    def resolve(mod, name):
        target = scope[mod].get(name)
        while target is not None and target not in defs:
            target = scope.get(target[0], {}).get(target[1])
        return target

    reached = set()
    while units:
        mod, code = units.pop()
        for node in ast.walk(code):
            if isinstance(node, ast.Name):
                target = resolve(mod, node.id)
                if target is not None and target not in reached:
                    reached.add(target)
                    units.append((target[0], defs[target]))
    return sorted("%s.%s" % key for key in defs if key not in reached)


def test_every_definition_in_src_is_reachable_from_the_cli():
    unreachable = _unreachable_definitions()
    assert unreachable == [], "not reachable from cli.main: " + ", ".join(unreachable)


def test_no_import_inside_a_function_or_class_body():
    nested = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                nested += [
                    "%s:%d" % (path.name, node.lineno)
                    for node in ast.walk(stmt)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                ]
    assert nested == [], "import inside a function or class body: " + ", ".join(sorted(set(nested)))
