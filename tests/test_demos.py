"""The demos call the library's public API, and nothing else runs them: the
quick ones run here, and every name any of them imports must exist, so a
rename or a removed export fails here rather than in a reader's hands."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _imported_names(path):
    """(module, name) of each `from prunespace... import name` in a script."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "prunespace":
            for alias in node.names:
                yield node.module, alias.name


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_imports_exist(demo):
    names = list(_imported_names(demo))
    assert names
    missing = [f"{module}.{name}" for module, name in names if not hasattr(importlib.import_module(module), name)]
    assert missing == []


@pytest.mark.parametrize("name", ["01_cost_model.py", "02_pruning_spaces.py"])
def test_quick_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr[-4000:]
    assert done.stdout.strip()
