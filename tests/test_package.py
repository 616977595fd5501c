"""The package's public names, and the README's example of them."""

import importlib.util
import re
import shutil
from pathlib import Path

import leonet


def test_every_public_name_resolves():
    assert len(set(leonet.__all__)) == len(leonet.__all__)
    missing = [name for name in leonet.__all__ if not hasattr(leonet, name)]
    assert missing == []


def test_star_import():
    names: dict = {}
    exec("from leonet import *", names)
    assert set(leonet.__all__) <= set(names)


def test_readme_python_example_runs(tmp_path, monkeypatch):
    # the README's Python blocks, run as written from a copy of the repository root
    root = Path(__file__).resolve().parent.parent
    blocks = re.findall(r"```python\n(.*?)```", (root / "README.md").read_text(), re.S)
    assert blocks
    shutil.copytree(root / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)
    for code in blocks:
        exec(code, {})
    assert (tmp_path / "out" / "exp1" / "paths.csv").stat().st_size > 0


def test_every_bench_span_target_resolves():
    # the benchmark traces these functions by name: a renamed or deleted one fails here
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location("spans", root / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.TARGETS
    for module, attr, _, _ in spans.TARGETS:
        owner, name = spans._resolve(module, attr)
        assert callable(getattr(owner, name, None)), f"{module}.{attr}"
