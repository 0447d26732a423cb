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


def test_package_reads_no_environment():
    # a run's output follows from its argv alone
    reads = []
    for path in sorted(Path(codebench.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("environ", "getenv", "environb", "getenvb"):
                reads.append(f"{path.name}:{node.lineno} {name}")
    assert reads == []


def test_importing_the_cli_builds_no_field():
    # field set-up belongs to the commands, not to the import
    src = str(Path(codebench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    check = "import codebench.cli\nfrom codebench import galois\nprint(len(galois._FIELD_CACHE))"
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "0\n"


def test_design_suites_import_no_masked_arrays():
    # np.unique imports numpy.ma on first use, a few ms of every fresh
    # process; the four-weight and determinant suites get by without it
    src = str(Path(codebench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    check = (
        "import contextlib, io, sys\n"
        "from codebench.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main('verify thm3.1 --q 9 --i 1'.split()),\n"
        "             main('verify thm4.3 --q 9 --i 1 --family q-minus-pi'.split())]\n"
        "print(codes, 'numpy.ma' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "[0, 0] False\n"
