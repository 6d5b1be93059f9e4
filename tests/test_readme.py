"""The README's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_blocks_run_in_order(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert blocks
    monkeypatch.chdir(tmp_path)  # the quick start saves a coverage table
    namespace: dict = {}
    for block in blocks:  # later blocks use names the earlier ones define
        exec(compile(block, str(README), "exec"), namespace)
