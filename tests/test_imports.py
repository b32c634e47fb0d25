"""Every name a module imports is used in it.

Parsed with the standard library's ast, so the check needs no linter.
The package's __init__.py is exempt: its imports are the public
re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(p for p in [*(ROOT / "src").rglob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


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
