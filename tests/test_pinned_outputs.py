"""Byte-identity of the CLI outputs: the SHA-256 of each command's stdout.

A change to the polynomial core, the linear algebra or the transition
matrices must leave every printed basis, certificate and JSON document
unchanged.  If a digest here moves on purpose, recompute it and say why in
CHANGES.md.
"""

import hashlib
import io

import pytest

from perpetuants.cli import run

DIGESTS = {
    "verify 3 --gmax 14 --format json": "5964da5fdae51aaa10b85ef3c06451f2b5ac9f16e193a2ccb0a5d0d06b1b4091",
    "verify 4 --gmax 14 --format json": "7caf39a8c028a639b765a867c7f0d9e8470c0110015afe1180f76b8ce9be3b8c",
    "verify 5 --gmax 14 --format json": "eca46e430a97eb2fe83d8a28e85d8a78950bfe93ff14518bf09ecfed1b1274d4",
    "verify 5 --gmax 24 --format json": "ebca0bb7ff9999d04c952719167c22a62355f5eee5bb0200d63e086312b84764",
    "oracle 5 15 --format json": "df4a88a8af920c5842e5a8fa002a6753f421e79be80037efdb704f96ca4e82e3",
    "basis 5 15 --format json": "c55e08515a9fc7d1445879501156ab7eda24831e1b7ea28c8f7825332732953c",
    "perpetuants 5 17 --format json": "15291d57190d232508daf5407430efe207d9a0f66b3fdde2c953cf084a34424b",
    "qn 5 --format json": "6b577a3efc03d3ae44f25e5107361ff28b92065b57e7047bd4f0c53c5dcbf563",
    "qn 6": "2c6b381590589312a953396dc9dd04a3ae408a5278d8daf1b825e8f4b95ad45c",
    "qn 6 --format json": "6bed7ea441e16d200b62794420b3505cd501430a59d54d5d338e20de5601d25c",
    "relations --format json": "f9d86ef0d2ec25b197068bca13a18bffe0f6500fbb07839fd4b87c0cf3068d27",
    "basis 4 8": "170ca11171b5b6ca997a1d1d404b80118e7ea3ed7c0b5b737ec3b750a61b5605",
    "basis 5 15 --primitive": "baaf35af468ff42473ac3eb4923a151ffea6fee124b241f29502c16fc83e4b94",
    "basis 6 12 --primitive --format json": "a3638cd61f7b486260888a378494a24b8821c4cd5467c01e05d6105149469a5e",
    "oracle 4 8": "291ca983c426e05d359d1eba7d19b9c12ccb8262914294b781c9642ef10811d2",
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_cli_output_is_pinned(command):
    out, err = io.StringIO(), io.StringIO()
    code = run(command.split(), out=out, err=err)
    assert code == 0, f"`perpetuants {command}` exited {code}: {err.getvalue()}"
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == DIGESTS[command], f"`perpetuants {command}` output changed"
