import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitkit
from orbitkit import cli, embedcheck, rootsys
from orbitkit.lndcalc import sl2
from orbitkit.cli import (
    EXIT_CHECK_FAILURE,
    EXIT_PASS,
    EXIT_UNSUPPORTED,
    EXIT_USAGE,
    LMAX_CAP,
    RANK_CAP,
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

    def test_rank_cap(self, capsys):
        code, out, err = run(capsys, "orbits", f"A{RANK_CAP + 1}")
        assert code == EXIT_USAGE and out == ""
        assert err == "rank must be at most 2000, got A2001\n"
        code, out, _ = run(capsys, "orbits", f"A{RANK_CAP}")
        assert code == EXIT_PASS and "count=" in out


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
        assert code == EXIT_USAGE and out == ""
        assert err == "--l 4 does not match the family parameter 5 of A9 > C5\n"

    def test_family_parameter_flag_without_parameter(self, capsys):
        code, out, err = run(capsys, "embed", "B3", "G2", "--l", "3")
        assert code == EXIT_USAGE and out == ""
        assert err == "--l 3 does not apply: B3 > G2 has no family parameter\n"

    def test_alias_c2(self, capsys):
        code, out, _ = run(capsys, "embed", "A3", "C2")
        assert code == EXIT_PASS
        assert "A3 > B2" in out

    def test_rank_cap(self, capsys):
        code, out, err = run(capsys, "embed", "A4002", "B2001")
        assert code == EXIT_USAGE and out == ""
        assert err == "rank must be at most 2000, got A4002\n"
        code, out, err = run(capsys, "embed", "A3", "B2001")
        assert code == EXIT_USAGE and err == "rank must be at most 2000, got B2001\n"
        code, out, _ = run(capsys, "embed", f"D{RANK_CAP}", f"B{RANK_CAP - 1}")
        assert code == EXIT_PASS and "D2000 > B1999" in out

    def test_root_system_self_check_is_one_line(self, capsys, monkeypatch):
        """A failed root-system self-check ends like every other internal
        inconsistency: exit 1 and one stderr line, no traceback."""
        caches = (rootsys.build_root_system, rootsys.positive_root_count,
                  rootsys.group_dimension)
        simple_roots = rootsys._simple_roots
        monkeypatch.setattr(rootsys, "_simple_roots", lambda t: (
            rootsys._G2_SIMPLE[::-1] if t.family == "G" else simple_roots(t)))
        for cached in caches:
            cached.cache_clear()
        try:
            code, out, err = run(capsys, "embed", "B3", "G2")
        finally:
            monkeypatch.undo()
            for cached in caches:
                cached.cache_clear()
        assert code == EXIT_CHECK_FAILURE and out == ""
        assert err == "internal inconsistency: ambient Cartan matrix disagrees with table for G2\n"


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

    def test_json_schema(self, capsys):
        """The report's keys, its records' keys, and a status that is
        "pass" exactly when every record passes; checked on a passing
        appendix and on the failing `lnd verify --cap 0` report."""
        code, out, _ = run(capsys, "report", "appendix", "--lmax", "5",
                           "--format", "json")
        assert code == EXIT_PASS
        args = cli.build_parser().parse_args(["lnd", "verify", "--cap", "0"])
        failing = args.handler(args)
        assert run(capsys, "lnd", "verify", "--cap", "0")[0] == EXIT_CHECK_FAILURE
        for data, status in ((json.loads(out), "pass"), (failing.to_dict(), "fail")):
            assert list(data) == ["version", "command", "status", "results"]
            assert data["version"] == orbitkit.__version__
            for record in data["results"]:
                assert list(record) == ["kind", "anchor", "inputs", "outputs", "pass"]
                assert isinstance(record["pass"], bool)
            assert data["status"] == status
            assert (status == "pass") == all(r["pass"] for r in data["results"])
        # records hold JSON values as built: nothing is converted on output
        assert json.loads(failing.to_json()) == failing.to_dict()

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
        assert err == "--lmax must be between 4 and 500, got 3\n"

    @pytest.mark.parametrize("lmax", [LMAX_CAP + 1, 10 ** 9])
    def test_lmax_cap(self, capsys, lmax):
        code, out, err = run(capsys, "report", "appendix", "--lmax", str(lmax))
        assert code == EXIT_USAGE and out == ""
        assert err == f"--lmax must be between 4 and 500, got {lmax}\n"

    def test_one_table_sweep(self, capsys, monkeypatch):
        calls = []

        def spy(l_max):
            calls.append(l_max)
            return table(l_max)

        table = embedcheck.principal_table
        monkeypatch.setattr(embedcheck, "principal_table", spy)
        monkeypatch.setattr(cli, "principal_table", spy)
        code, _, _ = run(capsys, "report", "appendix", "--lmax", "8")
        assert code == EXIT_PASS and calls == [8]

    def test_rows_carry_their_case_record(self, capsys, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args)
            return identify(*args)

        identify = embedcheck._identify
        monkeypatch.setattr(embedcheck, "_identify", counting)
        code, _, _ = run(capsys, "report", "appendix", "--lmax", "60")
        assert code == EXIT_PASS and calls == []

    def test_root_systems_built_for_exceptional_types_only(self, capsys):
        for cached in (rootsys.build_root_system, rootsys.positive_root_count,
                       rootsys.group_dimension):
            cached.cache_clear()
        code, _, _ = run(capsys, "report", "appendix", "--lmax", "60")
        assert code == EXIT_PASS
        assert rootsys.build_root_system.cache_info().misses == 3  # G2, F4, E6

    def test_bad_format_rejected(self, capsys):
        code, out, err = run(capsys, "report", "appendix", "--format", "yaml")
        assert code == EXIT_USAGE and out == ""
        assert err == ("orbitkit report appendix: error: argument --format: invalid choice:"
                       " 'yaml' (choose from 'text', 'json')\n")


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

    def test_derivation_self_check_is_one_line(self, capsys, monkeypatch):
        """A derivation that fails the relation check is an internal
        inconsistency: exit 1 and one stderr line, no traceback."""
        derivations = sl2.sl2_standard_derivations
        monkeypatch.setattr(sl2, "preserves_relations", lambda ring, d: False)
        derivations.cache_clear()
        try:
            code, out, err = run(capsys, "lnd", "verify")
        finally:
            monkeypatch.undo()
            derivations.cache_clear()
        assert code == EXIT_CHECK_FAILURE and out == ""
        assert err == "internal inconsistency: d1 does not preserve the determinant relation\n"


class TestColdProcess:
    """The CLI as users run it: a fresh interpreter per command."""

    ENV = dict(os.environ, PYTHONPATH=str(Path(orbitkit.__file__).parents[1]))

    def python(self, *args):
        return subprocess.run([sys.executable, *args], env=self.ENV,
                              capture_output=True, text=True)

    def test_import_leaves_lndcalc_unloaded(self):
        proc = self.python("-c", "import orbitkit.cli, sys; print(sorted(m for m in"
                                 " sys.modules if m.startswith('orbitkit.lndcalc')))")
        assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr

    def test_lnd_verify_loads_lndcalc_on_demand(self):
        proc = self.python("-m", "orbitkit.cli", "lnd", "verify")
        assert proc.returncode == EXIT_PASS, proc.stderr
        assert "status: pass (7 records)" in proc.stdout

    def test_closed_stdout_ends_quietly(self):
        # the JSON report (about 176 KB) overflows the pipe buffer, so the
        # write hits the closed read end
        proc = subprocess.Popen(
            [sys.executable, "-m", "orbitkit.cli", "report", "appendix",
             "--lmax", "50", "--format", "json"],
            env=self.ENV, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == EXIT_PASS, err
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestUsage:
    def test_no_arguments(self, capsys):
        assert run(capsys, )[0] == EXIT_USAGE

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == EXIT_USAGE

    def test_report_without_kind(self, capsys):
        assert run(capsys, "report")[0] == EXIT_USAGE

    @pytest.mark.parametrize("argv, line", [
        ("orbits", "orbitkit orbits: error: the following arguments are required: type"),
        ("embed A3", "orbitkit embed: error: the following arguments are required: r"),
        ("lnd", "orbitkit lnd: error: the following arguments are required: lnd_kind"),
        ("bogus", "orbitkit: error: argument command: invalid choice: 'bogus'"
                  " (choose from 'orbits', 'embed', 'report', 'lnd')"),
        ("orbits B2 --x", "orbitkit: error: unrecognized arguments: --x"),
        ("report appendix --lmax abc",
         "orbitkit report appendix: error: argument --lmax: invalid int value: 'abc'"),
    ])
    def test_argparse_refusal_is_one_line(self, capsys, argv, line):
        code, out, err = run(capsys, *argv.split())
        assert code == EXIT_USAGE and out == ""
        assert err == line + "\n"

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["report", "appendix", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: orbitkit report appendix")
