"""Byte-for-byte gates on CLI output.

The files under tests/data were written by the CLI before the code
behind it was restated: the JSON appendix and the embed pairs before the
case analysis became one table, the text appendix and `lnd verify`
before the report records were built as JSON values, and `orbits`
before each analyzed pair resolved to its principal-table row.  Any
change to a record, its order, or the key order of its outputs shows up
here as a diff.
"""

import hashlib
from pathlib import Path

import pytest

from orbitkit.cli import build_parser, main

DATA = Path(__file__).parent / "data"

# every supported pair: the four cited pairs, the rank-2 coincidences
# (with the C2 alias), and each family at l = 3, 4, 5
EMBED_PAIRS = [("B3", "G2"), ("D4", "G2"), ("A6", "G2"), ("E6", "F4"),
               ("A3", "B2"), ("A3", "C2"), ("A4", "B2")]
for _l in (3, 4, 5):
    EMBED_PAIRS += [(f"A{2 * _l}", f"B{_l}"), (f"A{2 * _l - 1}", f"C{_l}"),
                    (f"D{_l}", f"B{_l - 1}")]


def test_appendix_json_lmax12(capsys):
    code = main(["report", "appendix", "--lmax", "12", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / "appendix_lmax12.json").read_text()


def test_appendix_text_lmax12(capsys):
    code = main(["report", "appendix", "--lmax", "12"])
    out = capsys.readouterr().out
    assert code == 0
    assert out == (DATA / "appendix_lmax12.txt").read_text()


def test_lnd_verify_default_and_cap_0(capsys):
    chunks = []
    for argv in (["lnd", "verify"], ["lnd", "verify", "--cap", "0"]):
        code = main(argv)
        chunks.append(f"$ orbitkit {' '.join(argv)}\n{capsys.readouterr().out}exit {code}\n")
    assert "".join(chunks) == (DATA / "lnd_verify.txt").read_text()


def test_embed_every_supported_pair(capsys):
    chunks = []
    for g, r in EMBED_PAIRS:
        code = main(["embed", g, r])
        chunks.append(f"$ orbitkit embed {g} {r}\n{capsys.readouterr().out}exit {code}\n")
    assert "".join(chunks) == (DATA / "embed_pairs.txt").read_text()



# the partition-formula families (with the C2 -> B2 alias and the
# D-family note) and every exceptional type
ORBIT_TYPES = ["A1", "A3", "B2", "C2", "B4", "C5", "D4", "D7", "E6", "E7", "E8", "F4", "G2"]


def test_orbits_every_family(capsys):
    chunks = []
    for t in ORBIT_TYPES:
        code = main(["orbits", t])
        chunks.append(f"$ orbitkit orbits {t}\n{capsys.readouterr().out}exit {code}\n")
    assert "".join(chunks) == (DATA / "orbits.txt").read_text()


# sha256 of `report appendix --lmax 50`, the reference output every
# change to the code behind the report must keep
APPENDIX_LMAX50_SHA256 = {
    "json": "961bcbb02fce22845b60884f73a6c63a04ea9d48253616b9498c1be751ac6220",
    "text": "ec7d4618547a3746029c8a5eae61f82b5eec653e086538cc6dcf6e9d8e865eaf",
}


@pytest.mark.parametrize("fmt", sorted(APPENDIX_LMAX50_SHA256))
def test_appendix_lmax50_digest(capsys, fmt):
    code = main(["report", "appendix", "--lmax", "50", "--format", fmt])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == APPENDIX_LMAX50_SHA256[fmt]


# sha256 of the JSON of the `lnd verify` report at cap 4 and cap 0.  The
# command prints text only, so these pin what the text golden leaves
# out: every record's `inputs`.
LND_VERIFY_JSON_SHA256 = {
    4: "e01b0c4190d3e3d9d5faf4e01d841a3e7805ef683bdc1a9c70935371db8c0643",
    0: "c07ed7c6e1c4ece6397a34b0bbc068b48f30f4c0237af9557b9f0e1409204768",
}


@pytest.mark.parametrize("cap", sorted(LND_VERIFY_JSON_SHA256))
def test_lnd_verify_json_digest(cap):
    args = build_parser().parse_args(["lnd", "verify", "--cap", str(cap)])
    report = args.handler(args)
    digest = hashlib.sha256(report.to_json().encode()).hexdigest()
    assert digest == LND_VERIFY_JSON_SHA256[cap]
