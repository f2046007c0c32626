"""README's Python examples run as written, from the repository root."""
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BLOCKS = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_a_python_example():
    assert BLOCKS


@pytest.mark.parametrize("block", BLOCKS, ids=lambda block: block.split("\n", 1)[0])
def test_readme_python_block_runs(monkeypatch, capsys, block):
    monkeypatch.chdir(ROOT)
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out
