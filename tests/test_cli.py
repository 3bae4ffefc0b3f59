import json

from orbitkit.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_PASS,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    Report,
    main,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOrbitsCommand:
    def test_b2(self, capsys):
        code, out, _ = run(capsys, "orbits", "B2")
        assert code == EXIT_PASS
        assert "count=4" in out

    def test_g2(self, capsys):
        code, out, _ = run(capsys, "orbits", "G2")
        assert code == EXIT_PASS
        assert "count=5" in out and "exceptional-table" in out

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "orbits", "Z9")
        assert code == EXIT_USAGE
        assert out == "" and "Z9" in err


class TestEmbedCommand:
    def test_principal_witness(self, capsys):
        code, out, _ = run(capsys, "embed", "A3", "B2")
        assert code == EXIT_PASS
        assert "witness=principal" in out and "orbit_count_g=5" in out

    def test_subregular_witness(self, capsys):
        code, out, _ = run(capsys, "embed", "D4", "B3")
        assert code == EXIT_PASS
        assert "witness=subregular" in out and "partition=(5,3)" in out

    def test_unsupported(self, capsys):
        code, out, err = run(capsys, "embed", "A1", "A1")
        assert code == EXIT_UNSUPPORTED
        assert "supported cases" in err and out == ""

    def test_family_parameter_flag(self, capsys):
        code, out, _ = run(capsys, "embed", "A9", "C5", "--l", "5")
        assert code == EXIT_PASS
        code, out, err = run(capsys, "embed", "A9", "C5", "--l", "4")
        assert code == EXIT_USAGE

    def test_alias_c2(self, capsys):
        code, out, _ = run(capsys, "embed", "A3", "C2")
        assert code == EXIT_PASS
        assert "A3 > B2" in out


class TestAppendixReport:
    def test_text_passes(self, capsys):
        code, out, _ = run(capsys, "report", "appendix", "--lmax", "6")
        assert code == EXIT_PASS
        assert "status: pass" in out
        assert "orbit-count case (6): E6 > F4" in out

    def test_flags_exception_row(self, capsys):
        code, out, _ = run(capsys, "report", "appendix", "--lmax", "6")
        line = next(l for l in out.splitlines()
                    if "principal table row: D4 > B3" in l)
        assert "rank_plus_3=7" in line and "dim_gap=7" in line
        assert "gap_exceeds=False" in line

    def test_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "report", "appendix", "--lmax", "5",
                           "--format", "json")
        assert code == EXIT_PASS
        data = json.loads(out)
        assert data["status"] == "pass"
        report = Report.from_dict(data)
        assert report.to_dict() == data

    def test_json_and_text_carry_identical_records(self, capsys):
        code, text_out, _ = run(capsys, "report", "appendix", "--lmax", "5")
        code, json_out, _ = run(capsys, "report", "appendix", "--lmax", "5",
                                "--format", "json")
        data = json.loads(json_out)
        record_lines = [l for l in text_out.splitlines()
                        if l.startswith("[PASS]") or l.startswith("[FAIL]")]
        assert len(record_lines) == len(data["results"])
        for line, record in zip(record_lines, data["results"]):
            assert record["anchor"] in line
            assert line.startswith("[PASS]") == record["pass"]

    def test_exception_set_record(self, capsys):
        _, out, _ = run(capsys, "report", "appendix", "--lmax", "8",
                        "--format", "json")
        data = json.loads(out)
        record = next(r for r in data["results"]
                      if r["anchor"] == "dimension-gap exception set")
        assert record["pass"] is True
        assert record["outputs"]["found"] == ["A3 > B2", "D4 > B3"]

    def test_lmax_too_small(self, capsys):
        code, out, err = run(capsys, "report", "appendix", "--lmax", "3")
        assert code == EXIT_USAGE and out == ""

    def test_bad_format_rejected(self, capsys):
        code, _, _ = run(capsys, "report", "appendix", "--format", "yaml")
        assert code == EXIT_USAGE


class TestLndVerify:
    def test_passes_with_expected_lines(self, capsys):
        code, out, _ = run(capsys, "lnd", "verify")
        assert code == EXIT_PASS
        assert "1 = a1*b2 - a2*b1" in out
        assert "deg_d1(a1*b2)=1 deg_d2(a1*b2)=1" in out
        assert "u*v - z^2 + 1/4 == 0 in C[SL2]" in out
        assert "status: pass" in out

    def test_cap_flag(self, capsys):
        code, out, _ = run(capsys, "lnd", "verify", "--cap", "6")
        assert code == EXIT_PASS
        assert "cap 6" in out

    def test_negative_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "lnd", "verify", "--cap", "-1")
        assert code == EXIT_USAGE and out == ""
        assert err == "--cap must be at least 0, got -1\n"

    def test_cap_zero_records_failures(self, capsys):
        code, out, err = run(capsys, "lnd", "verify", "--cap", "0")
        assert code == EXIT_CHECK_FAILURE and err == ""
        line = next(l for l in out.splitlines() if "compatibility element" in l)
        assert line.startswith("[FAIL]")
        assert "deg_d1(a1*b2)=>0 deg_d2(a1*b2)=>0" in line
        assert "status: fail (7 records)" in out


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_report_without_kind(self, capsys):
        assert run(capsys, "report")[0] == EXIT_USAGE
