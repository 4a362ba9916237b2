"""The README's library quick start runs, and prints what its comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_block_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    comments = re.findall(r"^print\(.*\)\s+# (.*)$", block, re.M)
    assert len(printed) == len(comments)
    for line, comment in zip(printed, comments):
        try:
            ast.literal_eval(comment)
        except (ValueError, SyntaxError):
            continue  # a comment in words, not a printed value
        assert line == comment
