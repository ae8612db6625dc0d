#!/usr/bin/env python3
"""Count the code lines of Python files.

    python3 scripts/code_lines.py PATH...

A code line is a physical line that holds a Python token other than a
comment, outside every docstring (of a module, class or function). So blank
lines, comment-only lines and docstring lines do not count; a token that
spans lines, such as a multi-line string, counts on every line it spans. A
directory stands for the .py files under it. Prints one line per file, its
count then its path, and then the total when there is more than one file.
"""

import ast
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENDMARKER}


def code_lines(source: str) -> int:
    """The number of code lines of a Python source text."""
    docstrings = [node.body[0] for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                       ast.AsyncFunctionDef))
                  and ast.get_docstring(node, clean=False) is not None]
    spans = [((d.lineno, d.col_offset), (d.end_lineno, d.end_col_offset)) for d in docstrings]
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NOT_CODE:
            continue
        if tok.type == tokenize.STRING and any(a <= tok.start and tok.end <= b for a, b in spans):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def python_files(paths):
    for path in paths:
        if os.path.isdir(path):
            yield from sorted(os.path.join(top, name) for top, _, names in os.walk(path)
                              for name in names if name.endswith(".py"))
        else:
            yield path


def main(argv) -> int:
    if not argv:
        print("usage: python3 scripts/code_lines.py PATH...", file=sys.stderr)
        return 2
    total = 0
    files = list(python_files(argv))
    for path in files:
        with open(path, encoding="utf-8") as f:
            count = code_lines(f.read())
        total += count
        print(f"{count} {path}")
    if len(files) > 1:
        print(f"{total} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
