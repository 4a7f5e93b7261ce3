"""Count the code lines of Python files: lines that hold a token other than
a comment, with the lines of module, class and function docstrings left
out, so a docstring rewrite does not read as a change in code size.
Prints each file's count, then their total.  The fast path, every module
but the brute-force oracle, and then the oracle alone:

    python tools/code_lines.py $(ls src/codecensus/*.py | grep -v '/oracle\\.py$')
    python tools/code_lines.py src/codecensus/oracle.py
"""

import ast
import io
import sys
import tokenize

DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
SKIP = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(src: str) -> int:
    docs = {line for node in ast.walk(ast.parse(src))
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node) is not None
            for line in range(node.body[0].lineno, node.body[0].end_lineno + 1)}
    code = {line for tok in tokenize.generate_tokens(io.StringIO(src).readline)
            if tok.type not in SKIP
            for line in range(tok.start[0], tok.end[0] + 1)} - docs
    return len(code)


if __name__ == "__main__":
    total = 0
    for path in sys.argv[1:]:
        with open(path) as f:
            count = code_lines(f.read())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
