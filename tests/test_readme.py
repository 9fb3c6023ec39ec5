"""The README's library quickstart runs as written and prints what it claims."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_quickstart_finds_the_exhaustive_optimum():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    best_line, exhaustive_line = out.getvalue().splitlines()
    # the first line is "<assignment> <objective>", the second "<assignment>"
    assert best_line.rsplit(" ", 1)[0] == exhaustive_line
