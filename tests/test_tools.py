"""The code-line counter of tools/count_code_lines.py, which measures the
size of src/srfe_lab: docstrings, comments and blank lines are not code,
and every line of a statement is."""
import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "count_code_lines.py"
_SPEC = importlib.util.spec_from_file_location("count_code_lines", _TOOL)
count_code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(count_code_lines)
code_lines = count_code_lines.code_lines


def test_docstrings_are_not_counted():
    source = '''\
"""Module docstring,
over two lines."""
import math


class Box:
    """Class docstring."""
    side = 2.0

    def area(self):
        """Function
        docstring."""
        return self.side ** 2


async def wait():
    """Coroutine docstring."""
    return math.pi
'''
    # import, class, side, def, return, async def, return
    assert code_lines(source) == 7


def test_a_string_that_is_not_a_docstring_is_counted():
    source = '''\
x = 1
"""Not the first statement of its body, so code."""
label = """two
lines"""
'''
    assert code_lines(source) == 4


def test_comments_and_blank_lines_are_not_counted():
    source = '''\
# a comment

import math  # a trailing comment


    # an indented comment
value = math.e
'''
    assert code_lines(source) == 2


def test_a_statement_over_several_lines_counts_each_line():
    source = '''\
total = (1 +
         2 +
         3)
call = max(1,
           # a comment inside the call
           2)
'''
    assert code_lines(source) == 5
