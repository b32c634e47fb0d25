"""Operator mutation testing with the standard library only.

For each operator in one source module, flip it (``+`` to ``-``, ``<`` to
``<=``, ``and`` to ``or``, drop a ``not``, ...), write the mutant into a
scratch copy of the repository, and run the module's own test file, then
the whole tier-1 suite with ``-x``.  A mutant that some test fails on is
killed; one that passes both runs survives and is printed with its line.
The repository itself is never written.

Run from the repository root, for example:

    python3 tools/mutate.py src/demon_battery/demon.py
    python3 tools/mutate.py src/demon_battery/states.py --scratch /tmp/mutants

The module's own test file is tests/test_<module>.py.  A mutant whose
test run exceeds TIMEOUT seconds counts as killed.  The exit status is 0
when every mutant is killed, 1 when some survive, 2 when the unmutated
copy fails its tests.
"""

import argparse
import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: seconds allowed for one test run; a mutant that loops forever is killed
TIMEOUT = 600.0

#: operator node type -> the type it is flipped to
FLIPS = {
    ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
    ast.FloorDiv: ast.Div, ast.Mod: ast.FloorDiv, ast.Pow: ast.Mult,
    ast.MatMult: ast.Mult, ast.BitAnd: ast.BitOr, ast.BitOr: ast.BitAnd,
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
    ast.And: ast.Or, ast.Or: ast.And, ast.USub: ast.UAdd, ast.UAdd: ast.USub,
}


class _Flip(ast.NodeTransformer):
    """Visits every flippable operator in a fixed order; flips the one
    numbered ``target`` and records each site as (line, 'old -> new')."""

    def __init__(self, target=None):
        self.target = target
        self.sites = []

    def _site(self, node, old) -> bool:
        new = "(dropped)" if isinstance(old, ast.Not) \
            else FLIPS[type(old)].__name__
        self.sites.append((node.lineno, f"{type(old).__name__} -> {new}"))
        return len(self.sites) - 1 == self.target

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) in FLIPS and self._site(node, node.op):
            node.op = FLIPS[type(node.op)]()
        return node

    def visit_AugAssign(self, node):
        self.generic_visit(node)
        if type(node.op) in FLIPS and self._site(node, node.op):
            node.op = FLIPS[type(node.op)]()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        if self._site(node, node.op):
            node.op = FLIPS[type(node.op)]()
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, op in enumerate(node.ops):
            if self._site(node, op):
                node.ops[i] = FLIPS[type(op)]()
        return node

    def visit_UnaryOp(self, node):
        self.generic_visit(node)
        if isinstance(node.op, ast.Not):
            return node.operand if self._site(node, node.op) else node
        if type(node.op) in FLIPS and self._site(node, node.op):
            node.op = FLIPS[type(node.op)]()
        return node


def mutant(source: str, target=None):
    """(the module's source with operator ``target`` flipped, every
    site); target None flips nothing, and the source is only unparsed."""
    flip = _Flip(target)
    tree = ast.fix_missing_locations(flip.visit(ast.parse(source)))
    return ast.unparse(tree) + "\n", flip.sites


def _passes(copy: Path, args: list) -> bool:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p",
             "no:cacheprovider", *args], cwd=copy, env=env, timeout=TIMEOUT,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    except subprocess.TimeoutExpired:
        return False
    return run.returncode == 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="source file, relative to the root")
    parser.add_argument("--scratch", help="directory for the scratch copy "
                        "(default: a new temporary directory)")
    args = parser.parse_args(argv)
    module = Path(args.module)
    tests = f"tests/test_{module.stem}.py"
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="mutants-"))
    copy = scratch / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    source = (ROOT / module).read_text(encoding="utf-8")
    target = copy / module

    baseline, sites = mutant(source)
    target.write_text(baseline, encoding="utf-8")
    if not (_passes(copy, [tests]) and _passes(copy, [])):
        print(f"the unmutated copy in {copy} fails its tests")
        return 2
    survivors = []
    for k, (line, flip) in enumerate(sites):
        target.write_text(mutant(source, k)[0], encoding="utf-8")
        alive = _passes(copy, [tests]) and _passes(copy, [])
        print(f"{'SURVIVED' if alive else 'killed  '} {module}:{line} {flip}",
              flush=True)
        if alive:
            survivors.append((line, flip))
    target.write_text(baseline, encoding="utf-8")
    killed = len(sites) - len(survivors)
    print(f"score {killed}/{len(sites)} killed, {len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
