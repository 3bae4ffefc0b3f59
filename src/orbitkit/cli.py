"""Command-line frontend.

Commands
    orbits <TYPE>                         nilpotent orbit count of one type
    embed <G> <R> [--l N]                 verdict for one embedding case
    report appendix [--lmax N] [--format text|json]
                                          case-analysis reproduction (embedcheck.py)
    lnd verify [--cap N]                  SL2 derivation suite (lndcalc/sl2.py)

Exit codes: 0 pass, 1 check failure, 2 usage or parse error,
3 unsupported case.  A handler renders one layer's checks as a Report
(embedcheck.appendix_checks, lndcalc.sl2_checks, one verdict, one orbit
count), and `main` takes the exit code from its status: 0 when every
record passes, 1 when one fails.  A failed internal self-check exits 1
with one line on stderr.  The report goes to stdout as text or JSON;
the JSON is output only, nothing here reads it back.  A refused input
(a missing, unknown or malformed argument, an argument out of range, a
type that does not parse) leaves stdout empty and prints one line on
stderr, with exit 2.  `--help` prints the usage and exits 0.  When the
reader closes stdout early (`orbitkit ... | head -1`), the report is
cut off without a traceback and the exit code stays the command's own.
"""

import argparse
import json
import os
import sys
from dataclasses import dataclass

from . import __version__
from .embedcheck import (
    DEFAULT_L_MAX,
    InconsistencyError,
    UnsupportedCaseError,
    _L_MAX_MIN,
    appendix_checks,
    embedding_verdict,
)
from .orbits import nilpotent_orbit_count
from .rootsys import InvalidLieTypeError, LieType

# lndcalc is imported inside the `lnd verify` handler: no other command
# uses it, and every cold process would pay for loading it.

__all__ = ["Record", "Report", "UsageError", "main", "console_main",
           "EXIT_PASS", "EXIT_CHECK_FAILURE", "EXIT_USAGE", "EXIT_UNSUPPORTED"]

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_USAGE = 2
EXIT_UNSUPPORTED = 3

# Input caps: `orbits B2000` and `embed D2000 B1999` answer in under a
# second, `report appendix --lmax 500` in about a second.
RANK_CAP = 2000
LMAX_CAP = 500


class UsageError(ValueError):
    """An argument the command refuses; `main` prints the message and exits 2."""


@dataclass
class Record:
    """One checked claim; `inputs` and `outputs` hold JSON values only."""

    kind: str  # orbit-count | table-row | verdict | lnd-check
    anchor: str
    inputs: dict
    outputs: dict
    passed: bool

    def to_dict(self) -> dict:
        return {"kind": self.kind, "anchor": self.anchor, "inputs": self.inputs,
                "outputs": self.outputs, "pass": self.passed}

    def text_line(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.outputs.items() if v is not None)
        return f"[{'PASS' if self.passed else 'FAIL'}] {self.anchor}: {detail}"


@dataclass
class Report:
    command: str
    results: list[Record]

    @property
    def status(self) -> str:
        return "pass" if all(r.passed for r in self.results) else "fail"

    def to_dict(self) -> dict:
        return {"version": __version__, "command": self.command,
                "status": self.status, "results": [r.to_dict() for r in self.results]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def render_text(self) -> str:
        lines = [f"orbitkit {__version__} -- {self.command}"]
        lines += [r.text_line() for r in self.results]
        lines.append(f"status: {self.status} ({len(self.results)} records)")
        return "\n".join(lines)


# -- command handlers ----------------------------------------------------


def _check_rank_cap(*types: LieType) -> None:
    for t in types:
        if t.rank > RANK_CAP:
            raise UsageError(f"rank must be at most {RANK_CAP}, got {t}")


def cmd_orbits(args) -> Report:
    t = LieType.from_string(args.type)
    _check_rank_cap(t)
    oc = nilpotent_orbit_count(t)
    record = Record(
        kind="orbit-count", anchor=f"nilpotent orbit count {t}",
        inputs={"type": str(t)},
        outputs={"count": oc.count, "method": oc.method, "notes": list(oc.notes)},
        passed=True)
    return Report(command=f"orbits {args.type}", results=[record])


def cmd_embed(args) -> Report:
    g = LieType.from_string(args.g)
    r = LieType.from_string(args.r)
    _check_rank_cap(g, r)
    verdict = embedding_verdict(g, r)
    l = verdict.case.family_parameter
    if args.l is not None and l is None:
        raise UsageError(f"--l {args.l} does not apply: {g} > {r} has no family parameter")
    if args.l is not None and l != args.l:
        raise UsageError(f"--l {args.l} does not match the family parameter {l} of {g} > {r}")
    record = Record(*verdict.as_check(f"embedding verdict: {g} > {r}"))
    extra = f" --l {args.l}" if args.l is not None else ""
    return Report(command=f"embed {args.g} {args.r}{extra}", results=[record])


def cmd_report_appendix(args) -> Report:
    if not _L_MAX_MIN <= args.lmax <= LMAX_CAP:
        raise UsageError(f"--lmax must be between {_L_MAX_MIN} and {LMAX_CAP}, got {args.lmax}")
    results = [Record(*check) for check in appendix_checks(args.lmax)]
    return Report(command=f"report appendix --lmax {args.lmax}", results=results)


def cmd_lnd_verify(args) -> Report:
    if args.cap < 0:
        raise UsageError(f"--cap must be at least 0, got {args.cap}")
    from .lndcalc import sl2_checks
    results = [Record("lnd-check", *check) for check in sl2_checks(args.cap)]
    return Report(command=f"lnd verify --cap {args.cap}", results=results)


# -- argument parsing ------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Refuses through `main`'s one path instead of printing a usage line
    and exiting; subparsers are built with the same class."""

    def error(self, message):
        raise UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="orbitkit",
        description="exact verification of orbit counts, embedding case"
                    " analyses, and the SL2 derivation calculus")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("orbits", help="nilpotent orbit count for one simple type")
    p.add_argument("type", help="Lie type label, e.g. A3, B2, E6")
    p.set_defaults(handler=cmd_orbits)

    p = sub.add_parser("embed", help="embedding verdict for a pair of types")
    p.add_argument("g")
    p.add_argument("r")
    p.add_argument("--l", type=int, default=None,
                   help="expected family parameter (cross-checked)")
    p.set_defaults(handler=cmd_embed)

    p = sub.add_parser("report", help="batch reproductions")
    rsub = p.add_subparsers(dest="report_kind", required=True)
    ap = rsub.add_parser("appendix", help="full case-analysis reproduction")
    ap.add_argument("--lmax", type=int, default=DEFAULT_L_MAX)
    ap.add_argument("--format", choices=("text", "json"), default="text")
    ap.set_defaults(handler=cmd_report_appendix)

    p = sub.add_parser("lnd", help="derivation calculus checks")
    lsub = p.add_subparsers(dest="lnd_kind", required=True)
    vp = lsub.add_parser("verify", help="run the SL2 derivation suite")
    vp.add_argument("--cap", type=int, default=4,
                    help="iteration cap for nilpotence certification (>= 0)")
    vp.set_defaults(handler=cmd_lnd_verify)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        report = args.handler(args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    except InvalidLieTypeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnsupportedCaseError as exc:
        print(f"unsupported case: {exc}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except InconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILURE
    json_format = getattr(args, "format", "text") == "json"
    try:
        print(report.to_json() if json_format else report.render_text())
    except BrokenPipeError:
        # the reader is gone; send the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_PASS if report.status == "pass" else EXIT_CHECK_FAILURE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
