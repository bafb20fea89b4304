"""The runtime is stdlib-only: every import in the package names latslice
or a standard-library module, and the project declares no dependencies.
Every module-level function in the package is used or exported, and every
name a module imports is read in it.  The Hermite reduction and the
back-substitution of one lattice by another each have one home."""

import ast
import collections
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


def _names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def test_no_dead_helpers():
    # a function counts as used when its name is read somewhere in src/
    # outside its own body (an import alone does not count), or when
    # latslice/__init__.py exports it
    trees = {
        path.name: ast.parse(path.read_text(), str(path))
        for path in sorted((ROOT / "src" / "latslice").glob("*.py"))
    }
    exported = {
        alias.asname or alias.name
        for node in ast.walk(trees["__init__.py"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    used = collections.Counter(name for tree in trees.values() for name in _names(tree))
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name not in exported:
                inside = sum(1 for name in _names(node) if name == node.name)
                if used[node.name] == inside:
                    dead.append(f"{module}:{node.name}")
    assert dead == []


def test_no_unused_imports():
    # __init__.py imports to export, so it is left out
    unused = []
    for path in sorted((ROOT / "src" / "latslice").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.partition(".")[0]
                    if name not in read:
                        unused.append(f"{path.name}:{name}")
    assert unused == []


def test_one_hermite_reduction():
    # lattice builders hand their bases to hermite_basis, which alone runs
    # the triangular reduction
    naming = [
        path.name
        for path in sorted((ROOT / "src" / "latslice").glob("*.py"))
        if "_reduce_triangular" in path.read_text()
    ]
    assert naming == ["polymatrix.py"]


def test_one_back_substitution():
    # every lattice-pair question (transition, containment, the image of a
    # sublattice in L/(z-x)L) divides through lattice._quotients
    naming = [
        path.name
        for path in sorted((ROOT / "src" / "latslice").glob("*.py"))
        if "_divide" in path.read_text()
    ]
    assert naming == ["lattice.py"]


def test_image_at_checks_chains_only():
    # the chain walk reads the image of z^k k[z]^m by lattice._target_image,
    # so validate_chain is the one function in src/ that calls _image_at
    callers = [
        f"{path.name}:{node.name}"
        for path in sorted((ROOT / "src" / "latslice").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.FunctionDef)
        and any(
            isinstance(sub, ast.Call) and "_image_at" in set(_names(sub.func))
            for sub in ast.walk(node)
        )
    ]
    assert callers == ["lattice.py:validate_chain"]
