import ast
import sys
from pathlib import Path

import codebench

ALLOWED = set(sys.stdlib_module_names) | {"numpy", "codebench"}


def test_package_imports_only_stdlib_and_numpy():
    # numpy is the one declared dependency; an optional import guarded by
    # try/except counts too, since it selects a second code path
    outside = []
    for path in sorted(Path(codebench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}:{node.lineno} {name}" for name in names
                        if name.split(".")[0] not in ALLOWED]
    assert outside == []
