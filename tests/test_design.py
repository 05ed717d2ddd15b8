"""The design rule that no library function exists only for a test to call
it: every function, method and class defined in ``src/kahlerqe`` is used
by name somewhere in ``src/`` or ``perfbench/`` (a class member through an
attribute access or an identifier string, since a bare name such as a local
variable is not a use of it); and every name a module of ``src/kahlerqe``
imports at module level is used by that module, so no module re-exports
what another defines."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "kahlerqe")

# defined names that nothing in src/ or perfbench/ uses yet, with the reason
ALLOWED = {
    "WarpProfile.roundtrip_error": "ROADMAP item 1 puts it in report.json",
    "Polynomial.coeffs": "the documented public view of the representation; "
                         "the rational tests read it",
}

# module.name imports that their module does not use, with the reason
ALLOWED_IMPORTS = {
    "verify.ricci": "perfbench's layer test asserts its wrap (ROADMAP item 2)",
}


def _modules(*dirs):
    for d in dirs:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                path = os.path.join(d, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read(), filename=path)


def _definitions(tree):
    """Qualified names of the non-dunder functions, methods and classes."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, kinds):
                name = child.name
                if not (name.startswith("__") and name.endswith("__")):
                    yield prefix + name
                if isinstance(child, ast.ClassDef):
                    yield from walk(child, prefix + name + ".")

    return walk(tree, "")


def _uses(tree, names, members):
    """Add a module's bare names to ``names``, and its attributes and
    identifier strings to ``members``; imports are not uses, so a re-export
    cannot keep a name alive."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            members.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                members.add(node.value)


def test_every_definition_in_src_is_used_in_src_or_perfbench():
    defined = [name for _, tree in _modules(SRC) for name in _definitions(tree)]
    names, members = set(), set()
    for _, tree in _modules(SRC, os.path.join(ROOT, "perfbench")):
        _uses(tree, names, members)

    def used(name):
        owner, _, last = name.rpartition(".")
        return last in members or (not owner and last in names)

    unused = sorted(name for name in defined if not used(name))
    assert unused == sorted(ALLOWED)


def _imported(tree):
    """The names a module binds by its module-level imports."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def test_every_module_level_import_in_src_is_used_by_its_module():
    unused = []
    for path, tree in _modules(SRC):
        module = os.path.basename(path)[:-3]
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{module}.{name}" for name in _imported(tree) if name not in used]
    assert sorted(unused) == sorted(ALLOWED_IMPORTS)
