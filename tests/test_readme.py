"""Every ```python block of the README runs against the current library,
so an API change that leaves the README stale fails here."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def test_readme_has_python_blocks():
    assert BLOCKS


def test_readme_python_blocks_run():
    for index, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {index + 1}", "exec"), {})
