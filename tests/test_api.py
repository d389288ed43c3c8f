import ast
from pathlib import Path

import rowfinite

PACKAGE = Path(rowfinite.__file__).resolve().parent


def imported_names(tree):
    """The name each import binds, outside ``from __future__``."""
    return [alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names]


def test_every_public_name_resolves():
    missing = [name for name in rowfinite.__all__ if not hasattr(rowfinite, name)]
    assert missing == []


def test_the_package_imports_exactly_its_public_names():
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(imported_names(tree)) == sorted(set(rowfinite.__all__) - {"__version__"})


def test_no_module_imports_a_name_it_never_reads():
    # an annotation is parsed as an expression, so the names in it count as reads
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        if path.name == "__init__.py":
            read |= set(rowfinite.__all__)
        unread += [f"{path.name}: {name}" for name in imported_names(tree)
                   if name not in read]
    assert unread == []
