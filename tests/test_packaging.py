"""The runtime is stdlib-only: every import in the package names latslice
or a standard-library module, and the project declares no dependencies."""

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_package_imports_only_stdlib():
    sources = sorted((ROOT / "src" / "latslice").glob("*.py"))
    assert sources
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top == "latslice" or top in sys.stdlib_module_names, (path.name, name)


def test_no_declared_dependencies():
    # read as text: tomllib is not in Python 3.10, which the project supports
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert "dependencies = []" in lines
