"""The README's code that a reader would paste into Python runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_library_entry_points_block_runs():
    section = README.read_text(encoding="utf-8").split(
        "## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S)[1]
    exec(compile(block, str(README), "exec"), {})
