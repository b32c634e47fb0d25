"""Every name a module imports is used in it, every name the package
defines is read or exported, no module of the package imports an
underscore name from a sibling module, no statement follows a return,
raise, break or continue in its block, every exported class and
function has a docstring of its own, and the README's config table
lists exactly the CLI's config keys.

Parsed with the standard library's ast, so the checks need no linter.
The package's __init__.py is exempt from the first: its imports are the
public re-exports.
"""

import ast
import re
from pathlib import Path

import pytest

from demon_battery.cli import DEFAULTS

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "demon_battery"
SOURCES = sorted([*(ROOT / "src").rglob("*.py"),
                  *(ROOT / "tests").glob("*.py")])
CHECKED = [p for p in SOURCES if p.name != "__init__.py"]
#: statements that end their block: what follows them cannot run
JUMPS = (ast.Return, ast.Raise, ast.Break, ast.Continue)


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # "import a.b" binds a
            imported += [(node.lineno, a.asname or a.name.split(".")[0])
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name)
                         for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used]


def dead_names(sources: dict) -> list:
    """(module, line, name) of each function, class or constant that a
    module of ``sources`` (file name -> source) defines at its top level,
    that no module reads, bare or as an attribute, and that __init__.py
    does not import.  Dunder names are exempt."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set()
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and name == "__init__.py":
                read.update(a.name for a in node.names)
    dead = []
    for name, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, ast.Assign):
                defined = [t.id for t in node.targets
                           if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) \
                    and isinstance(node.target, ast.Name):
                defined = [node.target.id]
            else:
                continue
            dead += [(name, node.lineno, d) for d in defined
                     if d not in read
                     and not (d.startswith("__") and d.endswith("__"))]
    return dead


def private_imports(source: str) -> list:
    """(line, name) of each underscore name imported from a sibling
    module, ``from .engine import _helper``.  A private module imported
    whole, ``from . import _checks``, is the package's own and allowed."""
    return [(node.lineno, a.name) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level and node.module
            for a in node.names if a.name.startswith("_")]


def unreachable(source: str) -> list:
    """Line of each statement that directly follows a return, raise,
    break or continue in the same block."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        for _, block in ast.iter_fields(node):
            if isinstance(block, list):
                lines += [after.lineno for stmt, after in zip(block, block[1:])
                          if isinstance(stmt, JUMPS)]
    return lines


def test_files_found():
    assert any(p.parent.name == "demon_battery" for p in CHECKED)
    assert any(p.parent.name == "tests" for p in CHECKED)


@pytest.mark.parametrize("path", CHECKED,
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\nnp.zeros\n", []),
    ("from a import b, c as d\nd()\n", [(1, "b")]),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n", [(2, "json")]),
])
def test_detector(source, unused):
    assert unused_imports(source) == unused


def test_no_dead_names():
    sources = {p.name: p.read_text(encoding="utf-8")
               for p in PACKAGE.glob("*.py")}
    assert "__init__.py" in sources
    assert dead_names(sources) == []


@pytest.mark.parametrize("sources, dead", [
    ({"a.py": "X = 1\n"}, [("a.py", 1, "X")]),
    ({"a.py": "X = 1\nY = X\n"}, [("a.py", 2, "Y")]),
    ({"a.py": "def f():\n    pass\n", "b.py": "from .a import f\nf()\n"},
     []),
    ({"a.py": "class C:\n    pass\n", "b.py": "import a\na.C\n"}, []),
    ({"a.py": "X: int = 1\n", "__init__.py": "from .a import X\n"}, []),
    ({"a.py": "def f():\n    X = 1\n    return X\n"}, [("a.py", 1, "f")]),
    ({"a.py": "__version__ = '1'\n"}, []),
])
def test_dead_name_detector(sources, dead):
    assert dead_names(sources) == dead


def test_no_private_names_imported_across_modules():
    found = [f"{p.relative_to(ROOT)}:{line} {name}"
             for p in sorted(PACKAGE.glob("*.py"))
             for line, name in private_imports(p.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("source, found", [
    ("from .engine import _require_count\n", [(1, "_require_count")]),
    ("from .engine import EngineConfig, _x as y\n", [(1, "_x")]),
    ("from . import _checks\n", []),
    ("from ._checks import count\n", []),
    ("from os import _exit\n", []),
    ("def f():\n    from .kernels import _tables\n", [(2, "_tables")]),
])
def test_private_import_detector(source, found):
    assert private_imports(source) == found


def test_no_unreachable_code():
    found = [f"{p.relative_to(ROOT)}:{line}" for p in SOURCES
             for line in unreachable(p.read_text(encoding="utf-8"))]
    assert found == []


@pytest.mark.parametrize("source, lines", [
    ("def f():\n    return 1\n", []),
    ("def f():\n    return 1\n    x = 2\n    return x\n", [3]),
    ("for x in y:\n    break\n    z()\n", [3]),
    ("for x in y:\n    continue\nelse:\n    z()\n", []),
    ("if a:\n    raise E\nb()\n", []),
    ("try:\n    pass\nexcept E:\n    raise\n    x()\n", [5]),
    ("while a:\n    if b:\n        continue\n        c()\n", [4]),
])
def test_unreachable_detector(source, lines):
    assert unreachable(source) == lines


def undocumented_exports(package: Path) -> list:
    """(module, name) of each class or function that __init__.py
    re-exports and whose definition has no docstring.  A dataclass's
    generated signature is not its own docstring; constants have none."""
    init = ast.parse((package / "__init__.py").read_text(encoding="utf-8"))
    missing = []
    for node in init.body:
        if not (isinstance(node, ast.ImportFrom) and node.level):
            continue
        tree = ast.parse((package / f"{node.module}.py").read_text(
            encoding="utf-8"))
        defs = {d.name: d for d in tree.body
                if isinstance(d, (ast.FunctionDef, ast.ClassDef))}
        missing += [(node.module, a.name) for a in node.names
                    if a.name in defs
                    and ast.get_docstring(defs[a.name]) is None]
    return missing


def test_exports_have_docstrings():
    assert undocumented_exports(PACKAGE) == []


def test_readme_config_table_lists_the_config_keys():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config schema", 1)[1].split("###", 1)[0]
    keys = re.findall(r"^\| `(\w+)`", table, flags=re.MULTILINE)
    assert keys == list(DEFAULTS)
