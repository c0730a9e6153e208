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
