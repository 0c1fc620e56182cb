"""Output bytes of every benchmark invocation, pinned by its recorded digest.

The golden files under ``golden/`` cover A1 and A2 only.  ``bench/digests.json``
holds the stdout sha256 of every benchmark invocation (Hasse diagrams,
selfcheck runs, polynomial and multiplicity tables, ``mult`` queries and
``hecke kl`` elements, over A1 to A3, B2, C2 and G2); this module replays
each of them through the command line and compares its digest.  The file
is only read here.  The csv and text forms of every table argv, and
``hecke mul`` and ``hecke bar`` on A1 and A2, are pinned below.
"""

import contextlib
import hashlib
import io
import json
import re
from pathlib import Path

import pytest

from periodic_kl.cli import main

DIGESTS = json.loads((Path(__file__).resolve().parents[1] / "bench" / "digests.json").read_text())
PINNED = sorted(DIGESTS)


def _tokens(argv: str) -> list[str]:
    """The argv words; an element such as ``t(2,3,-7)*w[1 2 1]`` is one word."""
    return re.findall(r"\S*\[[^\]]*\]|\S+", argv)


@pytest.mark.parametrize("argv", PINNED)
def test_stdout_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_tokens(argv))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DIGESTS[argv]


# sha256 of the ``--format text`` stdout of every ``hecke kl`` argv above, as
# printed before the text was formatted from the element's terms.
KL_TEXT_DIGESTS = {
    "hecke kl --type A --rank 2 --l 5 --x t(-11,6)*w[2]":
        "443a25ba30e3c7c0c9d69fea75e1ffed6990a6d08a2aa25e96603c626feed58a",
    "hecke kl --type A --rank 3 --l 5 --x t(2,3,-7)*w[1 2 1]":
        "d83b7a2dc725c1a2c31273e296af5cf9d1dd865131e26b9aeaf26ab5acf40fb4",
    "hecke kl --type B --rank 2 --l 5 --x t(4,-10)*w[1 2]":
        "28b57bb8458fa8897336688ff09937712b906077981d50b2d6913d88089e8497",
    "hecke kl --type G --rank 2 --l 7 --x t(2,2)*w[1 2 1 2 1 2]":
        "6dece337b69640e3643f1534dcb068d30d60523963767ff4adc23149526c2494",
}


def test_every_kl_argv_has_a_text_digest():
    assert sorted(KL_TEXT_DIGESTS) == [argv for argv in PINNED if argv.startswith("hecke kl")]


@pytest.mark.parametrize("argv", sorted(KL_TEXT_DIGESTS))
def test_kl_text_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_tokens(argv) + ["--format", "text"])
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == KL_TEXT_DIGESTS[argv]


# sha256 of the ``--format csv`` and ``--format text`` stdout of every
# ``table`` argv above, recorded before the table writer rendered each
# distinct value once; only the JSON form is in ``bench/digests.json``.
TABLE_FORMAT_DIGESTS = {
    "table baby --type A --rank 1 --l 3 --height 2 --coset all --format csv":
        "353627b29aa9c3e1647343c53a04800968fea0beab60ac3394469c9f5f644806",
    "table baby --type A --rank 1 --l 3 --height 2 --coset all --format text":
        "83d6ffdad09a1d2d02bdd8f4cf2599dbae320766930e6694aa6b172fad032df9",
    "table baby --type A --rank 2 --l 5 --height 1 --coset 0,0 --format csv":
        "9c5d82453ef19f58004c0564868d4f08a5afeef45f066ebef92cab43bfa940c1",
    "table baby --type A --rank 2 --l 5 --height 1 --coset 0,0 --format text":
        "d84e99e6b8f80e16d0aaa869053e3f17af3a1260b5cb08069e2d838fa31ef17d",
    "table baby --type B --rank 2 --l 5 --height 1 --coset all --format csv":
        "f5e9bddeb122a1af71d528c1dd5b4d345a234207072fc5ab93b6191d2a33954c",
    "table baby --type B --rank 2 --l 5 --height 1 --coset all --format text":
        "2b2bd7b095e0aa50f01acbc6e8e9a271e59fa903c9504642215f82b027d708fd",
    "table p --type A --rank 1 --l 3 --height 2 --coset all --format csv":
        "353627b29aa9c3e1647343c53a04800968fea0beab60ac3394469c9f5f644806",
    "table p --type A --rank 1 --l 3 --height 2 --coset all --format text":
        "83d6ffdad09a1d2d02bdd8f4cf2599dbae320766930e6694aa6b172fad032df9",
    "table p --type A --rank 2 --l 5 --height 1 --coset 2,1 --format csv":
        "24cc638f12d59172a6e2b562dd5b86fa84484dfd877fddfdc474c42b326a1c69",
    "table p --type A --rank 2 --l 5 --height 1 --coset 2,1 --format text":
        "e51fce990215f490efa24e226bdd2ecaccd0aa81a47da0b04b89d42eb6f7f39e",
    "table p --type A --rank 3 --l 5 --height 0 --coset all --format csv":
        "3dcc2c7e41a5dbb8495788b57c3b1f458fa47a6daacdd5c79588c6cb5159f0fd",
    "table p --type A --rank 3 --l 5 --height 0 --coset all --format text":
        "3f4951cb75dc1947c43c3c00bb5f4826253d57820bfa531761ca02e5cd0fa650",
    "table p --type B --rank 2 --l 5 --height 1 --coset all --format csv":
        "66960cc580729c5e01c819d586c0563e173cbe64bb323631cd79501501640aa2",
    "table p --type B --rank 2 --l 5 --height 1 --coset all --format text":
        "7a54eaa43766ec9cb9cd5d288e270fa34b0aa4be85688db8f94edb9c65908d8f",
    "table q --type A --rank 1 --l 3 --height 2 --coset all --format csv":
        "3dfb0bccfc260204c8f66cb2e9fd3bd29eccb2f035886836fec96ecf9396e38c",
    "table q --type A --rank 1 --l 3 --height 2 --coset all --format text":
        "10294d5e9013997b690850e8b2e9be0f56027eb939866fbf44b72d4b44a4074c",
    "table q --type A --rank 2 --l 5 --height 1 --coset 1,2 --format csv":
        "03fd8906e85a7c00d91ce48be5496752dbdcd135edaae9c460a32df3d75b6410",
    "table q --type A --rank 2 --l 5 --height 1 --coset 1,2 --format text":
        "ada5a0c8e3c7d425b2bd94dc038fed6f12ba15580f72deae4d067841f802a930",
    "table q --type B --rank 2 --l 5 --height 1 --coset all --format csv":
        "143c030d5c3f45acb91343f790cc54c8aae6a0a4f6c9c6609ac52341766f526b",
    "table q --type B --rank 2 --l 5 --height 1 --coset all --format text":
        "196e37794168ae2a1e4352fae1c0fabb5db1f36988806233818fb4719d2dc6cf",
    "table qprime --type A --rank 1 --l 3 --height 2 --coset all --format csv":
        "95c4b2aa4f976a4d85722614e9d342c53f73fd0cb764bd46ef7045ca288a45d7",
    "table qprime --type A --rank 1 --l 3 --height 2 --coset all --format text":
        "8891694e4b12da411e76a0012c6f09795125b48c5469fd545292100a2f9bae2a",
    "table qprime --type A --rank 2 --l 5 --height 1 --coset 1,2 --format csv":
        "dde3bdbab68ef1be2d27d2bbb9342c971e808538432d6937059682fd13abb272",
    "table qprime --type A --rank 2 --l 5 --height 1 --coset 1,2 --format text":
        "2fbf1c4bf8d63d366584f41f1ef712dd5a201d09872fcaac8f4bb93a320ef017",
    "table qprime --type C --rank 2 --l 5 --height 1 --coset all --format csv":
        "ec0f9520913f54e126214a0cda81227a6113b9aee0f748eb57ee5302811c56e8",
    "table qprime --type C --rank 2 --l 5 --height 1 --coset all --format text":
        "0fe564b0b8a9ea100f6536252e38c3eecc71f90580c2cd032df0528bd6bbfc1e",
    "table simple-in-verma --type A --rank 1 --l 3 --height 2 --coset all --format csv":
        "3dfb0bccfc260204c8f66cb2e9fd3bd29eccb2f035886836fec96ecf9396e38c",
    "table simple-in-verma --type A --rank 1 --l 3 --height 2 --coset all --format text":
        "10294d5e9013997b690850e8b2e9be0f56027eb939866fbf44b72d4b44a4074c",
    "table simple-in-verma --type A --rank 2 --l 5 --height 1 --coset 1,2 --format csv":
        "2480b802952c1d6cf40a95a33ce7ea78e5c9c1231e2f616f99254adb273539aa",
    "table simple-in-verma --type A --rank 2 --l 5 --height 1 --coset 1,2 --format text":
        "ca7ee7e6de8a2f8559bb89aa29947e50241b132af2393e1d063d2a122033e66e",
    "table simple-in-verma --type C --rank 2 --l 5 --height 1 --coset all --format csv":
        "b8f1f37b4b3ccd197a919d7dc9faebefdc6fb8fee15638d1fa5e961e2c26e4b8",
    "table simple-in-verma --type C --rank 2 --l 5 --height 1 --coset all --format text":
        "bd9b0c1d58484cea4d2c1bcbff0fc78afe5d4403fd04a686d2078430e59d464d",
    "table verma-in-projective --type A --rank 1 --l 3 --height 2 --coset all --nu 2 --format csv":
        "e47fd33ec8594eae552e795a85a488cd2f8db8f77d3e1a1cbe2589ae25045860",
    "table verma-in-projective --type A --rank 1 --l 3 --height 2 --coset all --nu 2 --format text":
        "abbc344c6817b796a2c19c8be30a0ba6a9fd177b00b0d07ada7f32a5141ac8a8",
    "table verma-in-projective --type A --rank 2 --l 5 --height 1 --coset 1,2 --nu 2,2 --format csv":
        "2d1f106aaa9372e91167cd88f09b8d96822691e778402a80e2983791f2fc835e",
    "table verma-in-projective --type A --rank 2 --l 5 --height 1 --coset 1,2 --nu 2,2 --format text":
        "01ba4719c80b6fe911b091a7c05124b64eeece964e09c058ef8f9805daca546b",
    "table verma-in-projective --type C --rank 2 --l 5 --height 1 --coset all --nu 2,2 --format csv":
        "0c5ae37e72699146e451755f8cbd8d625f21a058a14adfd3e5ebc9fd37931ea7",
    "table verma-in-projective --type C --rank 2 --l 5 --height 1 --coset all --nu 2,2 --format text":
        "05735323af1ea77d1798f5104de78a9762429f029c7d0988d530bfcc88c36ca7",
}


def test_every_table_argv_has_a_csv_and_a_text_digest():
    tables = [argv for argv in PINNED if argv.startswith("table")]
    assert sorted(TABLE_FORMAT_DIGESTS) == sorted(f"{argv} --format {fmt}"
                                                  for argv in tables for fmt in ("csv", "text"))


# sha256 of the stdout of ``hecke mul`` and ``hecke bar`` on A1 and A2, in
# json and in text, recorded before the Hecke element writer.
HECKE_DIGESTS = {
    "hecke mul --type A --rank 1 --l 3 --x t(2)*w[] --y t(-1)*w[1] --format json":
        "d26433064b1bbc05500de6c36b218081bee69cd753d15330f088d0d6786c642e",
    "hecke mul --type A --rank 1 --l 3 --x t(2)*w[] --y t(-1)*w[1] --format text":
        "30efbd35205c6b227a747de4a33c764d7b419a5fcc22e6f8b634ad907324985c",
    "hecke bar --type A --rank 1 --l 3 --x t(3)*w[1] --format json":
        "a67f00e7e7a054db6d8f72e31dd626cd1d5d36f229aaabe86be0ce1f9f11d454",
    "hecke bar --type A --rank 1 --l 3 --x t(3)*w[1] --format text":
        "65af01a6a3607b60317508736a9fcca937284e57dcfedf86d34e15d7d4cd40f4",
    "hecke mul --type A --rank 2 --l 5 --x t(2,-1)*w[2] --y t(1,-1)*w[2 1] --format json":
        "6f97f6c6079730daca556175e237ca3e3879c6527f4684aa90a283026378c3be",
    "hecke mul --type A --rank 2 --l 5 --x t(2,-1)*w[2] --y t(1,-1)*w[2 1] --format text":
        "2033d17903cc8c2948157bbad68515270120c01612665bca89633485d1d246ad",
    "hecke bar --type A --rank 2 --l 5 --x t(1,-1)*w[1 2 1] --format json":
        "e37813c62197200d08a6c465038f7d3f7f559c2109bacc5e9e818328ae1d8ddf",
    "hecke bar --type A --rank 2 --l 5 --x t(1,-1)*w[1 2 1] --format text":
        "41787c8f1859b428e987b5a4d168ab4f81006ea7c09404e7d2db2dc30014d169",
}


@pytest.mark.parametrize("argv", sorted(TABLE_FORMAT_DIGESTS) + sorted(HECKE_DIGESTS))
def test_format_digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(_tokens(argv))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == {**TABLE_FORMAT_DIGESTS, **HECKE_DIGESTS}[argv]
