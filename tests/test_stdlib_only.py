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
