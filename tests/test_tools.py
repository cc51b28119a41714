"""The repository's tools: ``tools/code_lines.py``, the code-line counter."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
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
