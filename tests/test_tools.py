"""The repository's tools: ``tools/code_lines.py``, the code-line counter,
and ``tools/mutants.py``, which finds statements that no check needs."""

import importlib.util
import subprocess
import sys
from pathlib import Path

_TOOLS = Path(__file__).resolve().parent.parent / "tools"
_PATH = _TOOLS / "code_lines.py"
# tools/ is not a package, so the script is loaded from its file
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Seven code lines: the import, the class line, its assignment, the def
# line, the two lines of the string that is no docstring, and the return.
_SOURCE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a comment after code


class A:
    """Class docstring."""

    x = 1


def f(a):
    """Function
    docstring."""

    # a comment in a body
    text = """not a
docstring"""
    return a + len(text)
'''


def test_counts_only_code_lines():
    assert code_lines.code_lines(_SOURCE) == 7


def test_docstring_lines_are_those_of_module_class_and_function():
    assert code_lines.docstring_lines(_SOURCE) == {1, 2, 9, 15, 16}


def test_main_prints_each_file_then_the_total(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(_SOURCE)
    second.write_text("y = 2\n\n# done\n")
    code_lines.main([str(first), str(second)])
    assert capsys.readouterr().out.splitlines() == [f"7 {first}", f"1 {second}", "8"]


# The check needs root's result, not its refusal of x < 0 nor the label; the
# label puts a character of three UTF-8 bytes before a statement on its line.
_TOY = '''"""A toy module."""

import math


def root(x):
    """The square root of x >= 0."""
    if x < 0: raise ValueError(x)
    label = "\u221a"; y = math.sqrt(x)
    return y
'''


def test_mutants_reports_each_statement_the_check_does_not_need(tmp_path):
    (tmp_path / "toy.py").write_text(_TOY, encoding="utf-8")
    check = [sys.executable, "-c", "import toy; assert toy.root(4.0) == 2.0"]
    done = subprocess.run(
        [sys.executable, str(_TOOLS / "mutants.py"), "toy.py", "--", *check],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["toy.py:8 If", "toy.py:8 Raise", "toy.py:9 Assign"]
    # the tree itself is never written
    assert [p.name for p in tmp_path.iterdir()] == ["toy.py"]
    assert (tmp_path / "toy.py").read_text(encoding="utf-8") == _TOY
