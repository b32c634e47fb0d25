"""tools/mutate.py: every mutant has its own label, and the label's site
index rebuilds it."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutate",
                                               ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)

MODULES = sorted((ROOT / "src").rglob("*.py"))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_labels_are_unique(path):
    # even without the site index k: line, column and flip tell them apart
    _, sites = mutate.mutant(path.read_text(encoding="utf-8"))
    assert len(set(sites)) == len(sites)


def test_site_index_rebuilds_the_labelled_mutant():
    # operators of one kind on one line, a nested sum, a chained
    # comparison and a unary minus after a binary one
    source = "y = a + b + (c + d)\nz = 0 <= x <= 1 and a - -b\n"
    baseline, sites = mutate.mutant(source)
    assert [mutate.label("m.py", k, s) for k, s in enumerate(sites)] == [
        "m.py:1:8 #0 Add -> Sub", "m.py:1:17 #1 Add -> Sub",
        "m.py:1:13 #2 Add -> Sub", "m.py:2:9 #3 LtE -> Lt",
        "m.py:2:14 #4 LtE -> Lt", "m.py:2:24 #5 USub -> UAdd",
        "m.py:2:24 #6 Sub -> Add", "m.py:2:20 #7 And -> Or"]
    rebuilt = [mutate.mutant(source, k)[0] for k in range(len(sites))]
    assert rebuilt == [
        "y = a - b + (c + d)\nz = 0 <= x <= 1 and a - -b\n",
        "y = a + b + (c - d)\nz = 0 <= x <= 1 and a - -b\n",
        "y = a + b - (c + d)\nz = 0 <= x <= 1 and a - -b\n",
        "y = a + b + (c + d)\nz = 0 < x <= 1 and a - -b\n",
        "y = a + b + (c + d)\nz = 0 <= x < 1 and a - -b\n",
        "y = a + b + (c + d)\nz = 0 <= x <= 1 and a - +b\n",
        "y = a + b + (c + d)\nz = 0 <= x <= 1 and a + -b\n",
        "y = a + b + (c + d)\nz = 0 <= x <= 1 or a - -b\n"]
    assert baseline == source
