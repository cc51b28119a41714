"""Find the statements of a Python file that no check needs: replace each
statement with ``pass``, one at a time, and report every replacement under
which a command still passes.

Usage, from the repository root:

    python3 tools/mutants.py FILE -- CMD...

The working tree, without ``.git`` and bytecode caches, is copied to a
temporary directory, and every replacement is made in the copy, never in the
tree itself. Defs, classes, imports, docstrings (as ``tools/code_lines.py``
finds them) and ``pass`` itself are not replaced. CMD runs in the copy, first
on the unchanged file, where it must pass, then once per replacement, one
process at a time. A run that takes more than five times as long as the
first, plus 10 s, is stopped and counts as failed: a deleted statement can
leave a loop that never ends. Each replacement that CMD passes prints a line
"FILE:LINE KIND", KIND being the statement's class in ``ast``.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from code_lines import docstring_lines

_KEPT = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom, ast.Pass)


def statements(source: bytes) -> list[ast.stmt]:
    """The statements of ``source`` that are replaced, in source order."""
    docs = docstring_lines(source.decode())
    found = [
        n for n in ast.walk(ast.parse(source)) if isinstance(n, ast.stmt)
        and not isinstance(n, _KEPT) and not (isinstance(n, ast.Expr) and n.lineno in docs)
    ]
    return sorted(found, key=lambda n: (n.lineno, n.col_offset))


def replaced(source: bytes, node: ast.stmt) -> bytes:
    """``source`` with ``node`` replaced by ``pass``; ast counts its columns
    in UTF-8 bytes."""
    lines = source.splitlines(keepends=True)
    a = sum(map(len, lines[: node.lineno - 1])) + node.col_offset
    b = sum(map(len, lines[: node.end_lineno - 1])) + node.end_col_offset
    return source[:a] + b"pass" + source[b:]


def passes(cmd: list[str], cwd: str, timeout: float | None) -> bool:
    try:
        return subprocess.run(cmd, cwd=cwd, timeout=timeout, capture_output=True).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main(argv: list[str]) -> None:
    if len(argv) < 3 or argv[1] != "--":
        sys.exit(__doc__)
    path, cmd = argv[0], argv[2:]
    # no bytecode is written, so none can be stale when a replacement keeps
    # the file's size and modification second
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    with tempfile.TemporaryDirectory() as tmp:
        skip = shutil.ignore_patterns(".git", "__pycache__")
        copy = shutil.copytree(".", Path(tmp, "tree"), ignore=skip)
        target = copy / path
        source, began = target.read_bytes(), time.monotonic()
        if not passes(cmd, copy, None):
            sys.exit("the command fails on the unchanged tree")
        timeout = 5 * (time.monotonic() - began) + 10
        for node in statements(source):
            target.write_bytes(replaced(source, node))
            if passes(cmd, copy, timeout):
                print(f"{path}:{node.lineno} {type(node).__name__}", flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
