"""Static checks of the package source."""

import ast
from pathlib import Path

import nullveil


def test_no_module_imports_a_name_it_never_uses():
    """A name imported and never read is a leftover of deleted code.
    `__init__` is left out, as it imports to re-export, and so are
    `__future__` imports, which switch on a feature."""
    unused = []
    for path in sorted(Path(nullveil.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


def test_every_module_level_definition_is_referenced():
    """A function or class of the package that no code names is dead.
    A reference is a `Name` or `Attribute` in the package, in `perfbench/`
    or in `tests/`; the re-exports of `__init__` do not count."""
    package = Path(nullveil.__file__).parent
    repo = package.parent.parent
    sources = [path for path in package.glob("*.py") if path.name != "__init__.py"]
    sources += sorted((repo / "perfbench").glob("*.py")) + sorted((repo / "tests").glob("*.py"))
    referenced = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    dead = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        dead += [f"{path.name}:{node.lineno} {node.name}" for node in tree.body
                 if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                 and node.name not in referenced]
    assert not dead, dead
