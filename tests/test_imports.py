"""Every module-level import in src/pnoise is used. Files that define
__all__ re-export names by design and are skipped."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pnoise"


def unused_imports(tree):
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and \
                node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def defines_all(tree):
    return any(isinstance(node, ast.Assign) and
               any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in node.targets)
               for node in tree.body)


def test_guard_sees_an_unused_import():
    tree = ast.parse("import os\nimport sys\nfrom . import a as b\n"
                     "from .c import d, e\nsys.exit(e)\n")
    assert unused_imports(tree) == ["b", "d", "os"]


def test_no_unused_module_level_imports():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if not defines_all(tree) and unused_imports(tree):
            found[path.name] = unused_imports(tree)
    assert found == {}
