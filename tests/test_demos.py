"""Smoke test: every script under demos/ and every README example runs,
and the README shows what its commands print."""

import json
import pathlib
import re
import runpy
import shlex

import pytest

from gminimax.cli import main

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


def _readme_commands():
    """Every ``gminimax ...`` line of the README's ``sh`` blocks, as argv."""
    blocks = re.findall(r"^```sh\n(.*?)^```$",
                        (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line, comments=True)[1:] for line in lines
            if line.startswith("gminimax ")]


@pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
def test_readme_command_runs(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # regret-curve --out writes its CSV here
    assert main(argv) == 0, capsys.readouterr().err


def test_readme_prgm_output_is_current(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    shown = re.search(r"A `prgm` run prints\n\n```json\n(.*?)^```$", text, re.M | re.S)
    argv = next(a for a in _readme_commands() if a[0] == "prgm" and "--box" in a)
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == json.loads(shown.group(1))
