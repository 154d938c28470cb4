"""The library's runtime needs nothing beyond the standard library."""

import ast
import pathlib
import sys

import spanforge

PACKAGE = pathlib.Path(spanforge.__file__).parent


def absolute_imports(path: pathlib.Path):
    """Top-level names of the modules a source file imports by absolute name."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_library_imports_only_the_standard_library():
    imports = {(path.name, name) for path in sorted(PACKAGE.rglob("*.py")) for name in absolute_imports(path)}
    assert ("internal.py", "itertools") in imports
    assert [pair for pair in sorted(imports) if pair[1] not in sys.stdlib_module_names] == []
