"""The README's python examples run as written."""

import re
from pathlib import Path

import ugks1d

README = Path(ugks1d.__file__).parent.parent.parent / "README.md"


def test_readme_python_blocks_run():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), flags=re.M | re.S)
    assert len(blocks) == 2                      # the quick start and the harness example
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert abs(namespace["state"].t - 0.15) <= 1e-13    # the quick start ends at t = 0.15
    assert namespace["out"].n_cells == 25
