"""The README's Python examples run as written, so the documented library
API cannot drift from the code."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def test_the_readme_python_blocks_run_in_order():
    # every fenced python block, in order, in one namespace: a later block
    # may use the names an earlier one defined
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.M | re.S)
    assert blocks
    namespace = {}
    for i, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
