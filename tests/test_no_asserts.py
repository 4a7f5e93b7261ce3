"""Checks that guard correctness raise explicitly, so they still run under
`python -O`: no module of the package holds an assert statement or reads
__debug__ (`-O` strips the one and sets the other to False).  The
`python -O` test run catches an assert only on a path some test drives
to failure; this finds every one."""

import ast
from pathlib import Path

import codecensus

PACKAGE = Path(codecensus.__file__).resolve().parent


def test_no_module_of_the_package_asserts_or_reads_debug():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert {"__init__.py", "burnside.py", "oracle.py"} <= {p.name for p in modules}
    found = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno} assert")
            elif isinstance(node, ast.Name) and node.id == "__debug__":
                found.append(f"{path.name}:{node.lineno} __debug__")
    assert not found, found
