"""Every argv recorded in perfbench/golden.json, and every subfield table
run pinned below, still gives its recorded exit code and byte-identical
stdout (compared by SHA-256)."""
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


# `subfield --tables` in every format and `verify thm5.x` at every published
# s: (exit code, stdout bytes, sha256 of stdout)
SUBFIELD_GOLDEN = {
    "--format text subfield --tables":
        (0, 745, "966e0843c12a240be69fc0700a71884bbd01dbe4e94373fd002c66c6497861fc"),
    "--format json subfield --tables":
        (0, 2696, "2456948e748ef5f2addb92cd364b6f98c6b2efcc65748d669b50f40c11ee445a"),
    "--format csv subfield --tables":
        (0, 556, "249a896090d2349c98e8016ee6469830af539c5b23e1fd9b225bb5dd5ea3c2d5"),
    "--format text verify thm5.1 --s 4":
        (0, 225, "8bd1fbb58d3b27b4cd133eb336db43a0162b4883d9c60d1038ed5a2ef1e7e116"),
    "--format json verify thm5.1 --s 4":
        (0, 548, "c4ed03dd25f6b2f86ee635e81f21065f727040bef1730c9ed417b3e7e95593a0"),
    "--format text verify thm5.1 --s 5":
        (0, 295, "924999c2fa4203c9090ca3067845e532466af7bd508dc9b9606a262150c000ea"),
    "--format json verify thm5.1 --s 5":
        (0, 744, "bacfcb4f7757732148438d552f7afe849c5cb566b2dc322476989d712a2edaa7"),
    "--format text verify thm5.1 --s 6":
        (0, 295, "cb77f54ff99dae5e20ea5752e7f36531e05e87bf0a73aaab23074302343cd897"),
    "--format json verify thm5.1 --s 6":
        (0, 744, "acd258c164561521cfd290b9df8afa62b32d1da73f307af2cc50dd81e0425013"),
    "--format text verify thm5.2 --s 2":
        (0, 225, "c42f03800a42a3e991687fa5862d32e23f5475f99184e19971307d6df334ad23"),
    "--format json verify thm5.2 --s 2":
        (0, 548, "f5340f7a179f6affe168ff2851798f8d93cab218c80d242e5a63ac6c850173e5"),
    "--format text verify thm5.2 --s 4":
        (0, 291, "147b526c8f64bd76ac14799549cf54d3024921f34652c6a13ecc375503e6f6f8"),
    "--format json verify thm5.2 --s 4":
        (0, 740, "626eea561720c9c8e1b64a27606acd78069051311b78da5f265bc3264117258e"),
    "--format text verify thm5.2 --s 6":
        (0, 299, "dc0592c8f3d4486c24d63356877974eff0f8e1cde1a8e1dd4827b4ed64e9aab7"),
    "--format json verify thm5.2 --s 6":
        (0, 748, "715f51438a429c8283fbc64704b92ca4f96325bd891d44c8ab463a94909e02e1"),
    "--format text verify thm5.3 --s 2":
        (0, 288, "368d4d82d79fb2d9db6a6447f5914605c3475f29be92a5d316f30b220ff2b9d4"),
    "--format json verify thm5.3 --s 2":
        (0, 737, "1a1f7c615ab402692bbd40a583dd4fa531930b370f06d153d6c38e40a91d83dc"),
    "--format text verify thm5.3 --s 3":
        (0, 294, "2289e3fa205267847119bbe65587c04f56a270cb087b94bd49fb5969bfaf8081"),
    "--format json verify thm5.3 --s 3":
        (0, 743, "5f32e6a65bc9619b96ce6f1d5173e1fd079acd711f20ccbe3cc525c6deb90323"),
    "--format text verify thm5.3 --s 4":
        (0, 296, "a7a80c918265ac0b81bc05dae3417fb3d51ad80ef69e68815145e0c6e2f9459a"),
    "--format json verify thm5.3 --s 4":
        (0, 745, "5cc5d730fe930219ee27fcd7b9bd64ac8a64885933f73c1c1fb7e4b3206bb405"),
}


@pytest.mark.parametrize("key", sorted(SUBFIELD_GOLDEN))
def test_subfield_table_output(key, capsys):
    code = main(key.split())
    data = capsys.readouterr().out.encode("utf-8")
    want_exit, want_bytes, want_sha = SUBFIELD_GOLDEN[key]
    assert (code, len(data)) == (want_exit, want_bytes)
    assert hashlib.sha256(data).hexdigest() == want_sha
