import importlib.util
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "scripts", "code_lines.py")
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Six code lines: the import, the def over two lines, the sum over two lines
# and the return; the docstrings, the comments and the blank lines count
# none.
FIXTURE = '''"""A module docstring,
over two lines."""

import os  # a trailing comment

# a comment line


def f(a,
      b):
    """A function docstring."""
    total = (a +
             b)
    return total
'''


def test_fixture_counts_six_code_lines():
    assert code_lines.code_lines(FIXTURE) == 6


def test_multi_line_strings_count_unless_docstrings():
    # A string that is not a docstring counts on each line it spans; a class
    # docstring next to code on its line leaves that line counted.
    source = 'x = """one\ntwo"""\n\n\nclass C:\n    """Doc\n    string."""; y = 1\n'
    assert code_lines.code_lines(source) == 4


def test_command_prints_each_file_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("# nothing but a comment\n\nz = 1\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    done = subprocess.run([sys.executable, SCRIPT, str(tmp_path)], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0
    assert done.stdout == f"6 {tmp_path / 'a.py'}\n1 {tmp_path / 'b.py'}\n7 total\n"
    done = subprocess.run([sys.executable, SCRIPT], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stderr.startswith("usage:")
