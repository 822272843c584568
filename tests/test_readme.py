"""The Python examples under README.md's Library heading run as written."""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def _library_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, re.M | re.S)


BLOCKS = _library_blocks()


def test_library_section_has_examples():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{i}" for i in range(1, len(BLOCKS) + 1)])
def test_library_example_runs(source):
    exec(compile(source, str(README), "exec"), {})
