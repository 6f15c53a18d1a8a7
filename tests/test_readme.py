"""README's library quick start runs as written."""

import re
from pathlib import Path

from mpmath import mp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    row = namespace["row"]
    assert len(row.err) == 1 and all(mp.isfinite(e) for e in row.err)
    assert mp.isfinite(row.err0)
