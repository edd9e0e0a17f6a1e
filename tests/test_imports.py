"""Every module-level import in src/pnoise is used (files that define
__all__ re-export names by design and are skipped), every absolute import
is of the standard library (the package has no runtime dependencies), and
the package keeps its start-up small: no module imports `dataclasses`, and
importing the CLI loads neither `dataclasses` nor `inspect`."""

import ast
import os
import subprocess
import sys
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


def imports_of(tree):
    """Top-level names of every module the tree imports, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names.add(node.module.split(".")[0])
    return names


def non_stdlib_imports(tree):
    return sorted(imports_of(tree) - sys.stdlib_module_names)


def test_guard_sees_an_import_outside_the_standard_library():
    tree = ast.parse("import numpy\nimport os.path\nfrom . import field\n"
                     "def f():\n    from sympy import Rational\n")
    assert non_stdlib_imports(tree) == ["numpy", "sympy"]


def test_package_imports_only_the_standard_library():
    found = {path.name: non_stdlib_imports(ast.parse(path.read_text()))
             for path in sorted(SRC.glob("*.py"))}
    assert {name: names for name, names in found.items() if names} == {}


def test_no_module_imports_dataclasses():
    assert "dataclasses" in imports_of(ast.parse(
        "def f():\n    from dataclasses import dataclass\n"))
    found = [path.name for path in sorted(SRC.glob("*.py"))
             if "dataclasses" in imports_of(ast.parse(path.read_text()))]
    assert found == []


def test_cli_import_loads_no_dataclasses_or_inspect():
    # only the modules that importing the CLI adds count: some interpreters
    # (3.13) load `inspect` at start-up, before any pnoise code runs
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import pnoise.cli; "
         "print(sorted({'dataclasses', 'inspect'} "
         "& (set(sys.modules) - before)))"],
        env=env, capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.strip() == "[]"
