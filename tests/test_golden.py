"""Byte-for-byte gates on CLI output.

The files under tests/data were written by the CLI before the code
behind it was restated: the JSON appendix and the embed pairs before the
case analysis became one table, the text appendix and `lnd verify`
before the report records were built as JSON values.  Any change to a
record, its order, or the key order of its outputs shows up here as a
diff.
"""

from pathlib import Path

from orbitkit.cli import main

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
