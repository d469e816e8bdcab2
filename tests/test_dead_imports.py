"""No module of the package imports a name it never uses.

No linter ships with the test dependencies, so this parses each module with
`ast`: every name bound by an import statement must occur again as a name
in the module body.  `__init__.py` is left out, since it imports to
re-export, and so are `from __future__` imports.
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


def test_the_check_sees_an_unused_import():
    source = "from typing import Optional, Sequence\nimport json\n\ndef f(x: Sequence): pass\n"
    assert unused_imports(source) == [(1, "Optional"), (2, "json")]


def test_no_module_imports_a_name_it_never_uses():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    dead = {p.name: unused_imports(p.read_text()) for p in modules}
    assert {name: found for name, found in dead.items() if found} == {}
