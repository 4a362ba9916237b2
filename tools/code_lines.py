"""Count the code lines of Python files: no comments, docstrings or blank lines.

A line counts when a token other than a comment, an indent or a newline
touches it.  A multi-line string counts all its lines, unless it is a
module, class or function docstring.  Each argument is a file or a
directory, searched recursively for ``*.py``; the script prints each file's
count and the total.  Run it from the repo root:

    python3 tools/code_lines.py src/dpl
"""

import ast, io, sys, tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}
DOC_OWNERS = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
total = 0
for arg in sys.argv[1:]:
    for path in sorted(Path(arg).rglob("*.py")) if Path(arg).is_dir() else [Path(arg)]:
        text = path.read_text()
        lines = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type not in SKIP:
                lines.update(range(tok.start[0], tok.end[0] + 1))
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, DOC_OWNERS) and ast.get_docstring(node) is not None:
                doc = node.body[0]
                lines -= set(range(doc.lineno, doc.end_lineno + 1))
        print(f"{len(lines):6} {path}")
        total += len(lines)
print(f"{total:6} total")
