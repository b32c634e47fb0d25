"""Operator mutation testing with the standard library only.

For each operator in one source module, flip it (``+`` to ``-``, ``<`` to
``<=``, ``and`` to ``or``, drop a ``not``, ...), write the mutant into a
scratch copy of the repository, and run the module's own test file, then
the whole tier-1 suite but this tool's own tests with ``-x``.  A mutant
that some test fails on is killed; one that passes both runs survives.
Each mutant is printed as ``module:line:col #k Old -> New``: line and
col (counted from 0, as ``ast`` counts) locate the operand that follows
the operator, or a unary operator itself, and k is the site index, so
``mutant(source, k)`` rebuilds it.  The repository itself is never written.

Run from the repository root, for example:

    python3 tools/mutate.py src/demon_battery/demon.py
    python3 tools/mutate.py src/demon_battery/states.py --scratch /tmp/mutants

The module's own test file is tests/test_<module>.py; a module without
one, such as _checks.py, runs the whole suite only.  A mutant whose
test run exceeds TIMEOUT seconds counts as killed.  A survivor listed in
tools/equivalent_mutants.json changes no output, for the reason given
there, and is printed as ``equivalent``.  The exit status is 0 when
every mutant is killed or listed, 1 when some other survives, 2 when the
unmutated copy fails its tests.
"""

import argparse
import ast
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: seconds allowed for one test run; a mutant that loops forever is killed
TIMEOUT = 600.0

#: the known equivalent mutants, each keyed by key() and given a reason
EQUIVALENTS = ROOT / "tools" / "equivalent_mutants.json"
#: this tool's tests, left out of the whole-suite run: they read the
#: module sources as data, which every mutant rewrites
OWN_TESTS = "tests/test_mutate.py"

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
    numbered ``target`` and records each site as (line, col, 'old ->
    new'), at the operand after the operator or at a unary operator."""

    def __init__(self, target=None):
        self.target = target
        self.sites = []

    def _site(self, at, old) -> bool:
        new = "(dropped)" if isinstance(old, ast.Not) \
            else FLIPS[type(old)].__name__
        self.sites.append((at.lineno, at.col_offset,
                           f"{type(old).__name__} -> {new}"))
        return len(self.sites) - 1 == self.target

    def visit_BinOp(self, node):
        self.generic_visit(node)
        if type(node.op) in FLIPS and self._site(node.right, node.op):
            node.op = FLIPS[type(node.op)]()
        return node

    def visit_AugAssign(self, node):
        self.generic_visit(node)
        if type(node.op) in FLIPS and self._site(node.value, node.op):
            node.op = FLIPS[type(node.op)]()
        return node

    def visit_BoolOp(self, node):
        self.generic_visit(node)
        if self._site(node.values[1], node.op):
            node.op = FLIPS[type(node.op)]()
        return node

    def visit_Compare(self, node):
        self.generic_visit(node)
        for i, (op, right) in enumerate(zip(node.ops, node.comparators)):
            if self._site(right, op):
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


def label(module, k: int, site: tuple) -> str:
    """How mutant ``k`` at ``site`` (line, col, flip) of ``module`` is
    printed."""
    line, col, flip = site
    return f"{module}:{line}:{col} #{k} {flip}"


def key(module, lines: list, site: tuple) -> tuple:
    """(module path, stripped source line, flip, operand column within
    that stripped line) of ``site``, with ``lines`` the module's source
    lines: it names the mutant without its line number, and tells apart
    the sites of one flip on one line."""
    line, col, flip = site
    text = lines[line - 1]
    indent = len(text) - len(text.lstrip())
    return Path(module).as_posix(), text.strip(), flip, col - indent


def equivalents() -> set:
    """The keys of the mutants listed in EQUIVALENTS."""
    entries = json.loads(EQUIVALENTS.read_text(encoding="utf-8"))
    return {(e["module"], e["line"], e["flip"], e["column"])
            for e in entries}


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
    # pytest arguments of each run, the module's own test file first
    runs = ([[tests]] if (ROOT / tests).exists() else []) + [
        ["--ignore", OWN_TESTS]]
    scratch = Path(args.scratch or tempfile.mkdtemp(prefix="mutants-"))
    copy = scratch / "repo"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    source = (ROOT / module).read_text(encoding="utf-8")
    target = copy / module

    baseline, sites = mutant(source)
    target.write_text(baseline, encoding="utf-8")
    if not all(_passes(copy, run) for run in runs):
        print(f"the unmutated copy in {copy} fails its tests")
        return 2
    known = equivalents()
    lines = source.splitlines()
    equivalent = survived = 0
    for k, site in enumerate(sites):
        target.write_text(mutant(source, k)[0], encoding="utf-8")
        if not all(_passes(copy, run) for run in runs):
            verdict = "killed  "
        elif key(module, lines, site) in known:
            verdict = "equivalent"
            equivalent += 1
        else:
            verdict = "SURVIVED"
            survived += 1
        print(f"{verdict} {label(module, k, site)}", flush=True)
    target.write_text(baseline, encoding="utf-8")
    killed = len(sites) - equivalent - survived
    print(f"score {killed}/{len(sites)} killed, {equivalent} equivalent, "
          f"{survived} survived")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
