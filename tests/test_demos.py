"""The demos run against the package as it is, so deleting a public name
they use breaks this suite rather than the demos alone."""

import ast
import importlib
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = os.path.join(ROOT, "demos")


@pytest.mark.parametrize("demo", ["autograd_basics.py", "generate_corpus.py",
                                  "gradient_oracle.py"])
def test_demo_runs(tmp_path, demo):
    env = dict(os.environ, TMPDIR=str(tmp_path))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, os.path.join(DEMOS, demo)],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr


def test_train_and_compare_imports_resolve():
    # the demo itself trains three models for about 40 s; check its imports
    with open(os.path.join(DEMOS, "train_and_compare.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and node.module.startswith("reviewfuse")
                for alias in node.names]
    assert imported
    for module, name in imported:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"
