"""The python blocks of README.md run, in order, as one script."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", text, flags=re.S | re.M)


def test_readme_python_blocks_run_in_order():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) >= 2
    namespace: dict = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i + 1}", "exec"), namespace)
