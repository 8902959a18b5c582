"""The README's Python examples run as written."""

import re

import pytest

from conftest import REPO_ROOT

BLOCKS = re.findall(r"^```python\n(.*?)^```", (REPO_ROOT / "README.md").read_text(),
                    re.S | re.M)


def test_readme_has_python_examples():
    assert len(BLOCKS) >= 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_python_block_runs(source, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(source, "README.md", "exec"), {})
