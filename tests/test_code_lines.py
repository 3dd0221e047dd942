"""tools/code_lines.py, the counter behind the package's code-line figures."""

import importlib.util
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Ten code lines: the import, the class and def lines, ``size = 1``, the
# def's second line, both lines of the assigned string, ``"x".upper()``
# and both lines of the return. Docstrings, the bare string statement,
# comments and blank lines do not count.
FIXTURE = '''\
"""Module docstring
over two lines."""

# a comment line
import os  # a trailing comment


class Box:
    """Class docstring."""

    size = 1


def join(a,
         b):
    """Function docstring
    over two lines.
    """
    "a bare string statement"
    text = """an assigned string
over two lines"""
    "x".upper()
    return (a +
            b + text)
'''


def test_counts_only_code_lines(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    assert code_lines.code_lines(path) == 10


def test_cli_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\nx = 1\n')
    proc = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "    10  a.py\n     1  b.py\n    11  total\n"
