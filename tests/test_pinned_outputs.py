"""Byte-identity of the CLI outputs: the SHA-256 of each command's stdout,
and of the JSON of p_h and q_n.

A change to the polynomial core, the linear algebra or the transition
matrices must leave every printed basis, certificate and JSON document
unchanged.  If a digest here moves on purpose, recompute it and say why in
CHANGES.md.
"""

import hashlib
import io

import pytest

from perpetuants import p_h, q_n
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
    "verify 6 --gmax 20 --format json": "5d8f3109d67411bffeb4df351b436b438dc18473a065a2db421419b99f26a9fd",
    "perpetuants 3 12 --format json": "51afd27a0bd9ddf1126ec3c6613abc1f323250ce4144a8cda324937d66cece1e",
    "perpetuants 4 14 --format json": "8dc5184c7efb676fc046d604dd7e89ee64ce31c569f7bd59cb27ed0bb093dfff",
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_cli_output_is_pinned(command):
    out, err = io.StringIO(), io.StringIO()
    code = run(command.split(), out=out, err=err)
    assert code == 0, f"`perpetuants {command}` exited {code}: {err.getvalue()}"
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    assert digest == DIGESTS[command], f"`perpetuants {command}` output changed"


P_H_DIGESTS = {
    (2, 1): "01887936a32ce594c16082f273cf7455052e54a497f2fa64c7bce6ef75b33c96",
    (3, 1): "0ab333e56d0736bbe75b0b3ebde7856b4eeb98b04737de66d6da1a02b2b251e9",
    (4, 1): "af7d013ee8c3a77cc68a76a7d48764c1b1e2dfd5cd8050d43f3deaf38b8d1a8b",
    (4, 2): "1f42422e3397e65fb12b48f4b25e3509199e1958b2083870ddfd78321554be3b",
    (5, 1): "c6fa588cc733e0da20c8f475a50c484ee32f044a1f7e3860481fe921ecebea53",
    (5, 2): "29427e97c36c8c6f3eeff12847547954a44c4ba58a74618dde285d8124f85087",
    (6, 1): "38abddf8fad6fb4681608ba11fcc067f302ab80278e7f61215bfc6ce300a0b3d",
    (6, 2): "cf675613a2ad6f4557affc9ce13b54d92e8972f891395650c16808260946a225",
    (6, 3): "181fd8b75534a9757634dcb9741bed9d4a3c1a06fc71a808ed6c2ea06d0ed02c",
}

Q_N_DIGESTS = {
    3: "0ab333e56d0736bbe75b0b3ebde7856b4eeb98b04737de66d6da1a02b2b251e9",
    4: "798e6f4e213e5c7def661fab93442f467ca3337fb1a280cdb9288d4800a3c341",
}


def _digest(poly):
    return hashlib.sha256(poly.to_json().encode()).hexdigest()


@pytest.mark.parametrize("nh", list(P_H_DIGESTS))
def test_p_h_is_pinned(nh):
    assert _digest(p_h(*nh)) == P_H_DIGESTS[nh]


@pytest.mark.parametrize("n", list(Q_N_DIGESTS))
def test_q_n_is_pinned(n):
    assert _digest(q_n(n)) == Q_N_DIGESTS[n]
