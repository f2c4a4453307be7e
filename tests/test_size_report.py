import os
import subprocess
import sys

import pytest

from size_report import code_lines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tests", "size_report.py")
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
# a command line of one subcommand per key, each with the given options
CLI = """import argparse
def build_parser():
    sub = (parser := argparse.ArgumentParser()).add_subparsers()
    for name, flags in {!r}.items():
        list(map(sub.add_parser(name).add_argument, flags))
    return parser
"""


def report(*args, script=SCRIPT):
    return subprocess.run([sys.executable, script, *map(str, args)], capture_output=True,
                          text=True, timeout=60, cwd=ROOT)


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    # import, class, def, the string's two lines, return, async def, return
    assert code_lines(SOURCE) == 8


# by its absolute path, and by the path relative to the root that CI calls it by
@pytest.mark.parametrize("script", [SCRIPT, os.path.join("tests", "size_report.py")],
                         ids=["absolute", "relative"])
@pytest.mark.parametrize("args", [[], ["a", "b", "c"]])
def test_usage_without_a_checkout(args, script):
    # with no checkout, or more than two, the report prints its usage, named by
    # the path it was called by, and exits 2
    ran = report(*args, script=script)
    assert (ran.returncode, ran.stdout) == (2, "")
    assert ran.stderr == f"usage: python {script} HEAD [BASE]\n"


def test_a_root_that_is_no_checkout_is_named_after_the_usage(tmp_path):
    # a literal HEAD (no such directory), and a directory with no sources,
    # as head or as base: no table and no traceback
    for args in (["HEAD"], [ROOT, "HEAD"], [tmp_path]):
        ran = report(*args)
        assert (ran.returncode, ran.stdout) == (2, "")
        assert ran.stderr == (f"usage: python {SCRIPT} HEAD [BASE]\n"
                              f"{args[-1]} is not the root of a checkout\n")


def checkout(root, modules, options, readme):
    (root / "src" / "nfclm").mkdir(parents=True)
    (root / "tests").mkdir()
    for name, text in {**modules, "cli.py": CLI.format(options)}.items():
        (root / "src" / "nfclm" / name).write_text(text, encoding="utf-8")
    (root / "tests" / "test_it.py").write_text("x = 1\n", encoding="utf-8")
    (root / "README.md").write_text(readme, encoding="utf-8")
    return root


def test_change_columns_show_an_added_and_a_removed_module_and_an_option(tmp_path):
    head = checkout(tmp_path / "head", {"new.py": "x = 1\n# a comment\n"},
                    {"a": ["--x", "--y"], "b": ["--z"]}, "one two ×\n")
    base = checkout(tmp_path / "base", {"old.py": '"""A docstring."""\n\ny = [\n    2,\n]\n'},
                    {"a": ["--x"], "b": ["--z"]}, "one two\n")
    ran = report(head, base)
    assert (ran.returncode, ran.stderr) == (0, "")
    assert {"| README.md words | 3 | 2 | +1 |",
            "| `tests/*.py` lines | 1 | 1 | +0 |",
            "| `new.py` | 2 | 1 | 0 | 0 | +2 | +1 |",
            "| `old.py` | 0 | 0 | 5 | 3 | -5 | -3 |",
            "| a | 2 | 1 | +1 |",
            "| b | 1 | 1 | +0 |",
            "| total | 3 | 2 | +1 |"} <= set(ran.stdout.splitlines())
    # the head alone: its columns only
    assert "| a | 2 |" in report(head).stdout.splitlines()
