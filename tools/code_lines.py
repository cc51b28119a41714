"""Count the code lines of Python files: lines that hold a token other than
a comment, and that are not part of a docstring of a module, class or
function. Blank lines, comments and docstrings do not count.

Usage, from the repository root:

    python3 tools/code_lines.py src/swarmdesk/*.py

prints one line per file, "<count> <path>", and last the total alone.
"""

import ast
import io
import sys
import tokenize

_LAYOUT = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
    tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER,
}


def docstring_lines(source: str) -> set[int]:
    """Line numbers of the docstrings of the module and of every class and
    (non-async) function in it."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)) or not node.body:
            continue
        first = node.body[0]
        if isinstance(first, ast.Expr) and isinstance(getattr(first.value, "value", None), str):
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def token_lines(source: str) -> set[int]:
    """Line numbers that a token other than layout or a comment spans."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return lines


def code_lines(source: str) -> int:
    return len(token_lines(source) - docstring_lines(source))


def main(paths: list[str]) -> None:
    total = 0
    for path in paths:
        with open(path) as f:
            count = code_lines(f.read())
        print(count, path)
        total += count
    print(total)


if __name__ == "__main__":
    main(sys.argv[1:])
