"""Every fenced ``python`` block in README.md runs as written, and the
package re-exports only names README documents."""

import inspect
import re
from pathlib import Path

import pytest

import snpwoe

README = Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index):
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_reexports_are_documented():
    words = set(re.findall(r"\w+", README.read_text()))
    exported = {name for name, value in vars(snpwoe).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported and exported <= words
