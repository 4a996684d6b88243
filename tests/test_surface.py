"""`src/rll` holds only product code: every top-level function and class is
referenced, transitively, from `cli.main` or from code that runs on import.
A name referenced only inside an unreachable definition does not count.
Every other top-level name that a module assigns is read by some code in
`src/rll`, every field of a dataclass is read as an attribute by some code
in `src/rll`, every top-level import is used by its module, and no module
imports a private (underscored) name from another.  Only `cli.main`
prints, names `sys.stdout` or `sys.stderr`, or reads the `--json` flag, so
every command shares its one output path.  A proof graph's node names,
`ProofGraph.order`, are read only at the file boundary.  No code builds a
`Sequent` without its checking constructor.  No class restates equality,
hashing or the container protocol: values compare as tuples or
dataclasses, and interned classes by identity.  Every method is read
somewhere in `src/rll` outside its own body.  Test-only
algorithms and data belong in `tests/`.  Every import sits at the top of
its module: an import inside a function or class body usually works round
a module cycle, which belongs fixed in the module layout."""

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


def _modules():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}


def _loaded(tree):
    """The names that code in tree reads."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_top_level_assignment_in_src_is_read():
    modules = _modules()
    reads = {mod: _loaded(tree) for mod, tree in modules.items()}
    for mod, tree in modules.items():  # a name imported from a module is read where its alias is
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 and stmt.module in modules:
                for alias in stmt.names:
                    if (alias.asname or alias.name) in reads[mod]:
                        reads[stmt.module].add(alias.name)
    unread = []
    for mod, tree in modules.items():
        for stmt in tree.body:
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                for target in targets:
                    for node in ast.walk(target):
                        if isinstance(node, ast.Name) and not node.id.startswith("__") and node.id not in reads[mod]:
                            unread.append("%s.%s" % (mod, node.id))
    assert unread == [], "assigned but never read in src/rll: " + ", ".join(unread)


def test_every_dataclass_field_in_src_is_read():
    # a field that src/rll never reads is kept only for the tests, which
    # derive what they need from their own references instead
    modules = _modules()
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    fields, unread = [], []
    for mod, tree in modules.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef) and any(
                _name(d.func if isinstance(d, ast.Call) else d) == "dataclass" for d in cls.decorator_list
            ):
                for stmt in cls.body:
                    if isinstance(stmt, ast.AnnAssign):
                        fields.append(stmt.target.id)
                        if stmt.target.id not in read:
                            unread.append("%s.%s.%s" % (mod, cls.name, stmt.target.id))
    assert fields
    assert unread == [], "dataclass fields never read in src/rll: " + ", ".join(unread)


def test_every_top_level_import_in_src_is_used():
    unused = []
    for mod, tree in _modules().items():
        used = _loaded(tree)
        for stmt in tree.body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)) and getattr(stmt, "module", None) != "__future__":
                for alias in stmt.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in used:
                        unused.append("%s: %s" % (mod, name))
    assert unused == [], "unused imports in src/rll: " + ", ".join(unused)


def test_no_module_in_src_imports_a_private_name_from_another():
    # a helper that two modules share is part of the package's surface, so
    # it carries a public name
    private = [
        "%s: %s.%s" % (mod, stmt.module, alias.name)
        for mod, tree in _modules().items()
        for stmt in tree.body
        if isinstance(stmt, ast.ImportFrom) and stmt.level == 1
        for alias in stmt.names
        if alias.name.startswith("_")
    ]
    assert private == [], "private names imported across src/rll: " + ", ".join(private)


def test_only_cli_main_prints_or_reads_the_json_flag():
    found = []
    for mod, tree in _modules().items():
        skip = set()
        if mod == "cli":
            main = next(s for s in tree.body if isinstance(s, ast.FunctionDef) and s.name == "main")
            skip = {id(node) for node in ast.walk(main)}
        for node in ast.walk(tree):
            if id(node) in skip:
                continue
            if isinstance(node, ast.Name) and node.id == "print":
                found.append("%s:%d print" % (mod, node.lineno))
            elif isinstance(node, ast.Attribute) and (
                node.attr == "json"
                or node.attr in ("stdout", "stderr") and isinstance(node.value, ast.Name) and node.value.id == "sys"
            ):
                found.append("%s:%d .%s" % (mod, node.lineno, node.attr))
    assert found == [], "output outside cli.main: " + ", ".join(found)


# the file boundary: where a proof graph is numbered, where check_local words
# its messages, where a proof file is written and where rll check prints a
# lasso; elsewhere a graph is read by its numbers
ORDER_READERS = {
    ("proof", "ProofGraph.__init__"),
    ("proof", "check_local"),
    ("proof", "serialize_proof"),
    ("cli", "_cmd_check"),
}


def _functions(tree):
    """The top-level functions and the methods of top-level classes, by
    qualified name."""
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            yield stmt.name, stmt
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    yield "%s.%s" % (stmt.name, sub.name), sub


def test_node_names_are_read_only_at_the_file_boundary():
    found, readers = [], set()
    for mod, tree in _modules().items():
        allowed = set()
        for name, fn in _functions(tree):
            if (mod, name) in ORDER_READERS:
                readers.add((mod, name))
                allowed |= {id(node) for node in ast.walk(fn)}
        for node in ast.walk(tree):  # len(x.order) counts nodes, so it reads no name
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "len":
                allowed |= {id(arg) for arg in node.args}
        found += [
            "%s:%d" % (mod, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "order"
            and isinstance(node.ctx, ast.Load) and id(node) not in allowed
        ]
    assert readers == ORDER_READERS
    assert found == [], "node names read outside the file boundary: " + ", ".join(found)


def _name(node):
    """The name that a Name, Attribute or import alias node reads."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.alias):
        return node.name
    return None


def test_no_code_in_src_builds_a_sequent_without_its_checks():
    # a Sequent is built only by its dataclass constructor, whose
    # __post_init__ canonicalises and checks every formula: no module calls
    # __new__ on it, and fields are set by hand only inside a __post_init__
    modules = _modules()
    sequent = next(c for c in modules["calculus"].body if isinstance(c, ast.ClassDef) and c.name == "Sequent")
    assert "__post_init__" in {stmt.name for stmt in sequent.body if isinstance(stmt, ast.FunctionDef)}
    found = []
    for mod, tree in modules.items():
        post_init = {id(node) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                     and fn.name == "__post_init__" for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            if _name(node.func) == "__new__" and "Sequent" in {_name(n) for n in [node.func.value, *node.args]}:
                found.append("%s:%d __new__" % (mod, node.lineno))
            elif _name(node.func) == "__setattr__" and id(node) not in post_init:
                found.append("%s:%d __setattr__" % (mod, node.lineno))
    assert found == [], "Sequent built without its checks: " + ", ".join(found)


VALUE_METHODS = {"__eq__", "__hash__", "__iter__", "__len__", "__contains__"}


def test_no_class_in_src_writes_its_own_equality_hash_or_container_protocol():
    found = []
    for mod, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.FunctionDef):
                        names = {stmt.name}
                    elif isinstance(stmt, ast.Assign):
                        names = {_name(t) for t in stmt.targets}
                    elif isinstance(stmt, ast.AnnAssign):
                        names = {_name(stmt.target)}
                    else:
                        continue
                    found += ["%s.%s.%s" % (mod, node.name, n) for n in sorted(names & VALUE_METHODS)]
    assert found == [], "defined by hand: " + ", ".join(found)


def test_the_trace_build_reads_the_one_formula_numbering_of_rll_calculus():
    # formula numbers come from the graph's FormulaTable, from saturation to
    # the trace automaton: rll.proof sorts no formulas by expr_sort_key and
    # imports no Expr-level auxiliaries, and the trace build reads the
    # table's auxiliary masks
    tree = _modules()["proof"]
    found = ["proof:%d %s" % (node.lineno, _name(node)) for node in ast.walk(tree)
             if _name(node) == "expr_sort_key" or isinstance(node, ast.alias) and node.name == "auxiliaries"]
    assert found == [], "rll.proof numbers formulas of its own: " + ", ".join(found)
    build = dict(_functions(tree))["build_trace_automaton"]
    read = {node.attr for node in ast.walk(build) if isinstance(node, ast.Attribute)}
    assert {"table", "auxiliaries", "lhs", "rhs"} <= read


def test_every_method_in_src_is_read_outside_its_own_body():
    # a method that only the tests call belongs in tests/, as a function
    # of what the class holds.  A method is read where it is called, and a
    # property wherever its name is loaded; a field of the same name, read
    # by subscript or passed on, does not count for a method
    modules = _modules()
    loads = [node for tree in modules.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    called = {id(node.func) for tree in modules.values() for node in ast.walk(tree) if isinstance(node, ast.Call)}
    methods, unread = [], []
    for mod, tree in modules.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("__"):
                        methods.append(fn.name)
                        inside = {id(node) for node in ast.walk(fn)}
                        value = any(_name(d) in ("property", "cached_property") for d in fn.decorator_list)
                        if not any(node.attr == fn.name and id(node) not in inside and (value or id(node) in called)
                                   for node in loads):
                            unread.append("%s.%s.%s" % (mod, cls.name, fn.name))
    assert "auxiliaries" in methods
    assert unread == [], "methods never read outside their own body in src/rll: " + ", ".join(unread)
