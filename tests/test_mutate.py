"""tools/mutate.py: every mutant has its own label, the label's site
index rebuilds it, and each known equivalent mutant names one site."""

import importlib.util
import json
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


def test_each_known_equivalent_names_one_site():
    entries = json.loads(mutate.EQUIVALENTS.read_text(encoding="utf-8"))
    assert entries
    for e in entries:
        assert e["reason"].strip()
        source = (ROOT / e["module"]).read_text(encoding="utf-8")
        _, sites = mutate.mutant(source)
        lines = source.splitlines()
        keys = [mutate.key(e["module"], lines, s) for s in sites]
        assert keys.count((e["module"], e["line"], e["flip"],
                           e["column"])) == 1, e


def test_listed_survivors_print_as_equivalent(tmp_path, monkeypatch,
                                               capsys):
    # every mutant of a two-line module survives; the listed one is
    # equivalent, and the status is 0 once both are listed
    root = tmp_path / "root"
    (root / "src").mkdir(parents=True)
    (root / "src" / "m.py").write_text("y = a + b\nif x:\n    z = a < b\n")
    listed = tmp_path / "equivalent.json"
    entry = {"module": "src/m.py", "line": "y = a + b", "flip": "Add -> Sub",
             "column": 8, "reason": "a stand-in"}
    listed.write_text(json.dumps([entry]))
    monkeypatch.setattr(mutate, "ROOT", root)
    monkeypatch.setattr(mutate, "EQUIVALENTS", listed)
    monkeypatch.setattr(mutate, "_passes", lambda copy, args: True)
    argv = ["src/m.py", "--scratch", str(tmp_path / "scratch")]
    assert mutate.main(argv) == 1
    assert capsys.readouterr().out.splitlines()[-3:] == [
        "equivalent src/m.py:1:8 #0 Add -> Sub",
        "SURVIVED src/m.py:3:12 #1 Lt -> LtE",
        "score 0/2 killed, 1 equivalent, 1 survived"]
    # indented: the column counts from the stripped line
    listed.write_text(json.dumps([entry, dict(
        entry, line="z = a < b", flip="Lt -> LtE", column=8)]))
    assert mutate.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "score 0/2 killed, 2 equivalent, 0 survived"
