"""The package runs on the Python standard library alone."""
import ast
import sys
from pathlib import Path

import tollsim


def test_every_absolute_import_is_standard_library():
    sources = sorted(Path(tollsim.__file__).parent.glob("*.py"))
    assert sources
    foreign = []
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            foreign += [f"{path.name}:{node.lineno} {name}" for name in modules
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not foreign, f"non-stdlib imports: {foreign}"


def test_every_imported_name_is_used():
    """No module but the package's `__init__` imports a name it never reads,
    unless the import's line is marked `# noqa: F401`."""
    sources = sorted(Path(tollsim.__file__).parent.glob("*.py"))
    unused = []
    for path in sources:
        if path.name == "__init__.py":
            continue
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        tree = ast.parse(text)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            if any("# noqa: F401" in line
                   for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound
                       if name not in used]
    assert not unused, f"unused imports: {unused}"
