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
