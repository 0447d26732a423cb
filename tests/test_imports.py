import ast
import os
import subprocess
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


def test_importing_the_cli_builds_no_field():
    # field set-up belongs to the commands, not to the import
    src = str(Path(codebench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    check = "import codebench.cli\nfrom codebench import galois\nprint(len(galois._FIELD_CACHE))"
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "0\n"
