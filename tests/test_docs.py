"""The public surface as a reader meets it: the README examples, the demos, ``__all__``."""

import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import igeo
from igeo import cli

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
COMMAND_LINES = [line for line in re.search(
    r"```bash\n(.*?)```", README.split("## Command line", 1)[1], re.S).group(1).splitlines()
    if line.startswith("igeo ")]


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command_line_runs(line, capsys):
    """Exit 0, or 3 where the comment says so; a comment that is a number is the value
    the command prints last."""
    command, _, comment = (part.strip() for part in line.partition("#"))
    code = 3 if comment.startswith("exit 3") else 0
    assert cli.main(shlex.split(command)[1:]) == code
    out = capsys.readouterr().out
    if re.fullmatch(r"[-+.\d]+", comment):
        assert out.rstrip().endswith(f": {comment}")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    res = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                         timeout=120)
    assert (res.returncode, res.stderr) == (0, "")
    assert res.stdout


def test_demos_are_found():
    assert len(DEMOS) == 4


def test_star_import_and_all():
    assert len(igeo.__all__) == len(set(igeo.__all__))
    namespace = {}
    exec("from igeo import *", namespace)  # a stale entry raises AttributeError
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(igeo.__all__)
