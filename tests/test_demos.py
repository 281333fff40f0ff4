"""Smoke test: every script under demos/ and every README example runs."""

import pathlib
import re
import runpy

import pytest

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # export_regret_curve writes its CSV here
    runpy.run_path(str(path), run_name="__main__")


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    # In order and in one namespace: a later example may use an earlier name.
    monkeypatch.chdir(tmp_path)
    readme = ROOT / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$",
                        readme.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) >= 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(readme), "exec"), namespace)
