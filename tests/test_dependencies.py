import ast
import sys
from pathlib import Path

import lame_tta

PACKAGE = Path(lame_tta.__file__).parent


def test_numpy_is_the_only_runtime_dependency():
    # every import of the package is relative, numpy or the standard library
    foreign = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"numpy"}
            ]
    assert foreign == []
