from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    text = README.read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", text, re.S)
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == ["3 6", "26", "True"]
