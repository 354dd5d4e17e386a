"""The README's Python examples run as written."""

import re
from pathlib import Path

import chebgreen

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run_in_order():
    # the blocks build on each other (the second reuses N, f and G from the
    # first), so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert blocks
    namespace = {"__name__": "readme"}
    for n, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {n}", "exec"), namespace)


def test_readme_names_every_public_name():
    text = README.read_text()
    missing = [name for name in chebgreen.__all__
               if name != "__version__" and not re.search(rf"\b{name}\b", text)]
    assert missing == []
