"""The public surface as a reader meets it: the README example, the demos, ``__all__``."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import igeo

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


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
