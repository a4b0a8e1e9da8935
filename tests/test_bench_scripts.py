"""The shared helpers of scripts/bench_pairs.py, and every bench script's --help."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = sorted((ROOT / "scripts").glob("bench_*.py"))


@pytest.fixture()
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs",
                                                  ROOT / "scripts" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_alternate_takes_turns(bench_pairs):
    calls = []
    out = bench_pairs.alternate(("a", "b"), 3, ["x", "y"],
                                lambda case, variant, i: calls.append((i, case, variant)) or i)
    assert calls == [(0, "x", "a"), (0, "x", "b"), (0, "y", "a"), (0, "y", "b"),
                     (1, "x", "b"), (1, "x", "a"), (1, "y", "b"), (1, "y", "a"),
                     (2, "x", "a"), (2, "x", "b"), (2, "y", "a"), (2, "y", "b")]
    assert out == {case: {"a": [0, 1, 2], "b": [0, 1, 2]} for case in ("x", "y")}


def test_add_table_appends_and_keeps_other_keys(bench_pairs, tmp_path, monkeypatch):
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    bench_pairs.add_table("new", "pairs", {"run": 1})
    assert json.loads((tmp_path / "BENCH_new.json").read_text()) == {"pairs": [{"run": 1}]}
    path = tmp_path / "BENCH_old.json"
    path.write_text(json.dumps({"sweep": {"run": 0}, "blocks": [{"run": 0}]}))
    bench_pairs.add_table("old", "sweep", {"run": 1})
    bench_pairs.add_table("old", "sweep", {"run": 2})
    assert json.loads(path.read_text()) == {"sweep": [{"run": 0}, {"run": 1}, {"run": 2}],
                                            "blocks": [{"run": 0}]}


def test_in_checkout_imports_from_its_src(bench_pairs, tmp_path):
    (tmp_path / "src" / "qaoabench").mkdir(parents=True)
    (tmp_path / "src" / "qaoabench" / "__init__.py").write_text("STUB = 'stub'\n")
    out = bench_pairs.in_checkout(tmp_path, ["-c", "import os, qaoabench; "
                                             "print(qaoabench.STUB, os.getcwd())"])
    assert out.split() == ["stub", str(tmp_path.resolve())]


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_help(script):
    subprocess.run([sys.executable, str(script), "--help"], cwd=ROOT,
                   stdout=subprocess.DEVNULL, check=True)
