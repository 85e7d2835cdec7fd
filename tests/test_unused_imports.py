"""Every name a ``src/`` module imports is used in that module.

No linter ships with the toolchain, so this walks each module's syntax
tree instead. A name counts as used when the module reads it anywhere or
lists it in ``__all__``; a name read only inside a quoted annotation does
not count (every module postpones annotations, so none needs quotes).
Package ``__init__.py`` files are exempt: they import to re-export.
"""

import ast
from pathlib import Path
from typing import Iterator, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(
    p for p in SRC.rglob("*.py") if p.name != "__init__.py"
)


def _imported(tree: ast.Module) -> Iterator[Tuple[str, int]]:
    """``(bound name, line)`` of every import in the module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def _used(tree: ast.Module) -> Set[str]:
    """The names the module reads, plus those in ``__all__``."""
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return used


def unused_imports(source: str) -> list:
    """``(name, line)`` of every imported name the source never uses."""
    tree = ast.parse(source)
    used = _used(tree)
    return sorted(
        (name, line) for name, line in _imported(tree) if name not in used
    )


def test_no_unused_imports():
    unused = {
        str(path.relative_to(SRC)): found
        for path in MODULES
        if (found := unused_imports(path.read_text()))
    }
    assert not unused, f"unused imports: {unused}"


def test_checker_flags_an_unused_import():
    source = (
        "from typing import Optional, Tuple\n"
        "import numpy as np\n"
        "import os.path\n"
        "x: Tuple[int, int] = (1, 2)\n"
        "os.sep\n"
    )
    assert unused_imports(source) == [("Optional", 1), ("np", 2)]


def test_all_counts_as_use():
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
