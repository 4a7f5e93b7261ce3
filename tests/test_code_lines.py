"""The rules of tools/code_lines.py, the code-size count that simplicity
changes and the CI's code-lines step quote: a line counts if it holds a
token other than a comment, and the lines of module, class and function
docstrings do not."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


def test_docstrings_count_zero(code_lines):
    src = (
        '"""Module docstring,\n'
        'over two lines."""\n'
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def method(self):\n"
        '        """Method\n'
        "        docstring.\n"
        '        """\n'
        "\n"
        "\n"
        "def f():\n"
        "    '''Function docstring.'''\n"
    )
    # only the class and def lines hold code, and a body made of a
    # docstring alone needs no other statement
    assert code_lines(src) == 3


def test_comments_and_blank_lines_count_zero(code_lines):
    src = (
        "# a comment\n"
        "\n"
        "x = 1  # a trailing comment\n"
        "    \n"
        "# another\n"
        "y = 2\n"
    )
    assert code_lines(src) == 2


def test_a_statement_over_three_lines_counts_three(code_lines):
    src = (
        "total = (1 +\n"
        "         2 +\n"
        "         3)\n"
    )
    assert code_lines(src) == 3


def test_a_string_that_is_not_a_docstring_counts(code_lines):
    src = (
        "x = 1\n"
        '"""Not a docstring: not the first statement."""\n'
        "\n"
        "def f():\n"
        "    y = 2\n"
        '    "also not a docstring"\n'
        "    return y\n"
    )
    assert code_lines(src) == 6


def test_multiline_string_value_counts_every_line(code_lines):
    src = (
        "MESSAGE = '''one\n"
        "two\n"
        "three'''\n"
    )
    assert code_lines(src) == 3
