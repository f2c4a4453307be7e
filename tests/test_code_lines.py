import os
import subprocess
import sys

import pytest

from code_lines import code_lines

SOURCE = '''"""A module docstring
over two lines."""

import os  # a comment after code

# a comment alone


class Thing:
    """A class docstring."""

    def method(self):
        """A method
        docstring."""
        text = """a string that is
no docstring"""
        return text


async def run():
    "A one-line docstring."
    return os.sep
'''


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, class, def, the string's two lines, return, async def, return
    assert code_lines(SOURCE) == 8


@pytest.mark.parametrize("script", ["code_lines.py", "option_count.py"])
@pytest.mark.parametrize("args", [[], ["a", "b", "c"]])
def test_usage_without_a_source(script, args):
    """With no source directory, or more than two, each report prints its
    usage to stderr and exits 2."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), script)
    ran = subprocess.run([sys.executable, path, *args], capture_output=True, text=True,
                         timeout=60)
    assert (ran.returncode, ran.stdout) == (2, "")
    assert ran.stderr == f"usage: python {path} SRC [BASE_SRC]\n"
