"""tools/code_lines.py on a file whose raw and code lines are counted by hand."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring,
on two lines."""

# a comment
import os  # a trailing comment


def f(x):
    """One-line docstring."""
    s = """a string
# that holds a hash
value"""
    return (x +
            1)


"a bare string statement"
'''


def test_counts_code_outside_comments_blanks_and_docstrings(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(SAMPLE)
    (tmp_path / "top.py").write_text("x = 1\n\n")
    out = subprocess.run([sys.executable, str(TOOL), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    # code: import, def, the three lines of s, the two of return
    assert out.splitlines() == ["pkg/m.py 17 7", "top.py 2 1", "total 19 8"]


def test_usage_without_a_directory():
    proc = subprocess.run([sys.executable, str(TOOL)], capture_output=True, text=True)
    assert proc.returncode == 2 and "usage" in proc.stderr
