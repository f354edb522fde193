"""Count the code lines of the library: non-blank lines outside comments
and docstrings.

A line counts when it holds part of a token other than a comment, and is
not blank.  A docstring is the string that opens a module, class or
function body; its lines do not count.  Any other string counts on each of
its non-blank lines, so a multi-line string that is not a docstring counts
in full.

Run from the repository root; it prints each module's count and the total:

    python tests/code_lines.py [DIR]

``DIR`` defaults to ``src/stablefrac``.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(source: str) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of non-blank lines of ``source`` outside comments and
    docstrings."""
    text = source.splitlines()
    docs = docstring_lines(source)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return sum(1 for k in lines - docs if text[k - 1].strip())


def main(argv=None) -> int:
    root = Path((argv or sys.argv[1:] or ["src/stablefrac"])[0])
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:24} {count:5}")
    print(f"{'total':24} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
