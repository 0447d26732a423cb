"""Every argv recorded in perfbench/golden.json still gives its recorded
exit code and byte-identical stdout (compared by SHA-256)."""
import hashlib
import json
from pathlib import Path

import pytest

from codebench.cli import main

GOLDEN = json.loads((Path(__file__).parent.parent / "perfbench" / "golden.json").read_text())


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_output(key, capsys):
    code = main(key.split())
    data = capsys.readouterr().out.encode("utf-8")
    want = GOLDEN[key]
    assert (code, len(data)) == (want["exit"], want["bytes"])
    assert hashlib.sha256(data).hexdigest() == want["sha256"]
