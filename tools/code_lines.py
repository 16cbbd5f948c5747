"""Print the code lines of each Python file named, then their total.

A code line holds a token that is neither a comment nor a docstring, so
blank lines, comment lines and docstring lines do not count.  Stdlib only:

    python3 tools/code_lines.py src/fibc/*.py
"""

import ast
import io
import sys
import tokenize

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(path: str) -> int:
    with open(path, "rb") as f:
        source = f.read()
    docstrings = {(node.body[0].lineno, node.body[0].col_offset)
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, _SCOPES) and ast.get_docstring(node, clean=False) is not None}
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type not in _SKIP and tok.start not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


if __name__ == "__main__":
    total = 0
    for path in sys.argv[1:]:
        count = code_lines(path)
        total += count
        print(f"{count:5d} {path}")
    print(f"{total:5d} total")
