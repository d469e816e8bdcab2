"""No module of the package imports a name it never uses, and no private
module-level name is left unreferenced.

No linter ships with the test dependencies, so this parses each module with
`ast`: every name bound by an import statement must occur again as a name
in the module body.  `__init__.py` is left out, since it imports to
re-export, and so are `from __future__` imports.  A module-level function,
class or constant whose name starts with one underscore must be read
somewhere in the package: as a name, an attribute or an imported name.
"""

import ast
from pathlib import Path

import orbhodge

PACKAGE = Path(orbhodge.__file__).parent


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def private_definitions(tree: ast.Module) -> list:
    """(line, name) of each module-level private function, class or constant."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found.extend((node.lineno, t.id) for target in targets
                         for t in ast.walk(target) if isinstance(t, ast.Name))
    return [(line, name) for line, name in found
            if name.startswith("_") and not name.startswith("__")]


def referenced_names(tree: ast.Module) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unreferenced_privates(sources: dict) -> dict:
    """Module name -> (line, name) of private module-level names that no
    module among sources reads."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    used = set().union(*map(referenced_names, trees.values()))
    found = {name: [(line, n) for line, n in private_definitions(tree) if n not in used]
             for name, tree in trees.items()}
    return {name: dead for name, dead in found.items() if dead}


def test_the_check_sees_an_unused_import():
    source = "from typing import Optional, Sequence\nimport json\n\ndef f(x: Sequence): pass\n"
    assert unused_imports(source) == [(1, "Optional"), (2, "json")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    dead = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in dead.items() if found} == {}


def test_the_check_sees_an_unreferenced_private_name():
    sources = {
        "a.py": "_A = 1\n_B = 2\ndef _f(): return _A\nclass _C: pass\n_D, E = 3, 4\n",
        "b.py": "from a import _f\nimport a\nx = a._C\n_E = 5\n_E += 1\n",
    }
    assert unreferenced_privates(sources) == {"a.py": [(2, "_B"), (5, "_D")],
                                              "b.py": [(4, "_E")]}


def test_no_private_module_level_name_is_left_unreferenced():
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 10
    assert unreferenced_privates({p.name: p.read_text() for p in modules}) == {}
