"""Output checks, run outside the timed region.

Each check returns None when the output is right and a one-line reason
when it is not.  Expected values come from ``oracles`` and from the way
the workload built its inputs, never from orbitkit.
"""

import json

from . import oracles

APPENDIX_EXCEPTIONS = ["A3 > B2", "D4 > B3"]


def appendix_record_count(lmax: int) -> int:
    """Records in `report appendix --lmax L`: 3L - 1 orbit-count verdicts,
    3L - 1 principal-table rows, one subregular check per row, and the
    exception-set record."""
    return 3 * (3 * lmax - 1) + 1


def check_appendix(lmax: int, returncode: int, stdout: bytes,
                   counts: oracles.PartitionCounts) -> str | None:
    if returncode != 0:
        return f"exit code {returncode}"
    try:
        report = json.loads(stdout)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if report.get("status") != "pass":
        return f"status {report.get('status')!r}"
    results = report.get("results", [])
    if len(results) != appendix_record_count(lmax):
        return f"{len(results)} records, expected {appendix_record_count(lmax)}"
    exception_records = [r for r in results if r["anchor"] == "dimension-gap exception set"]
    if len(exception_records) != 1 or \
            exception_records[0]["outputs"].get("found") != APPENDIX_EXCEPTIONS:
        return "dimension-gap exception set differs from the paper's"
    for record in results:
        inputs, outputs = record["inputs"], record["outputs"]
        if not record["pass"]:
            return f"record failed: {record['anchor']}"
        if "orbit_count_g" in outputs:
            for side in ("g", "r"):
                expected = counts.orbit_count(*oracles.parse_type(inputs[side]))
                if outputs[f"orbit_count_{side}"] != expected:
                    return (f"{record['anchor']}: orbit count of {inputs[side]} is"
                            f" {outputs[f'orbit_count_{side}']}, expected {expected}")
        if "dim_gap" in outputs:
            g, r = oracles.parse_type(inputs["g"]), oracles.parse_type(inputs["r"])
            gap = oracles.group_dimension(*g) - oracles.group_dimension(*r)
            if (outputs["dim_gap"], outputs["rank_plus_3"]) != (gap, g[1] + 3):
                return f"{record['anchor']}: dimension columns differ from closed forms"
    return None


# -- orbit-queries --------------------------------------------------------

_PRINCIPAL_PAIRS = {("A3", "B2"), ("A4", "B2")}


def _subregular_partition(family: str, rank: int) -> str | None:
    if family == "A":
        return f"({rank},1)"
    if family == "D":
        return f"({2 * rank - 3},3)"
    if (family, rank) == ("B", 3):
        return "(5,1,1)"
    return None


def _check_verdict(op, result, counts):
    g_label, r_label, supported = op.args
    if not supported:
        return None  # the caller checked that UnsupportedCaseError was raised
    g, r = oracles.parse_type(g_label), oracles.parse_type(r_label)
    numbers = result.numbers
    for side, t in (("g", g), ("r", r)):
        if numbers.get(f"orbit_count_{side}") != counts.orbit_count(*t):
            return f"orbit count of {t} is {numbers.get(f'orbit_count_{side}')}"
    if not result.holds:
        return "verdict does not hold"
    canonical = (f"{g[0]}{g[1]}", f"{r[0]}{r[1]}")
    if canonical in _PRINCIPAL_PAIRS:
        return None if result.witness.value == "principal" else "witness is not principal"
    if result.witness.value != "subregular":
        return f"witness {result.witness.value}, expected subregular"
    dim_g, dim_r = oracles.group_dimension(*g), oracles.group_dimension(*r)
    expected = {"dim_g": dim_g, "dim_r": dim_r, "gap": dim_g - dim_r,
                "rank_g": g[1], "bound": g[1] + 3}
    got = {k: numbers.get(k) for k in expected}
    if got != expected:
        return f"dimension numbers {got}, expected {expected}"
    partition = None if result.partition is None else str(result.partition)
    if partition != _subregular_partition(*g):
        return f"subregular partition {partition}"
    return None


def _check_classify(op, result, counts):
    n = op.args[0]
    expected = counts.p(n + 1)
    if len(result) != expected:
        return f"{len(result)} partitions of {n + 1}, expected {expected}"
    previous = None
    for p in result:
        parts = tuple(p)
        if sum(parts) != n + 1 or any(a < b for a, b in zip(parts, parts[1:])) or \
                (parts and parts[-1] < 1):
            return f"{parts} is not a partition of {n + 1}"
        if previous is not None and not parts < previous:
            return "partitions are not in strictly decreasing order"
        previous = parts
    return None


def check_orbit_op(op, result, error, counts: oracles.PartitionCounts) -> str | None:
    if op.kind == "verdict" and not op.args[2]:
        if error is None:
            return "unsupported pair did not raise"
        if type(error).__name__ != "UnsupportedCaseError":
            return f"unsupported pair raised {type(error).__name__}"
        return None
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    if op.kind == "count":
        expected = counts.orbit_count(*op.args)
        return None if result.count == expected else f"count {result.count}, expected {expected}"
    if op.kind == "verdict":
        return _check_verdict(op, result, counts)
    if op.kind == "classify":
        return _check_classify(op, result, counts)
    parts = op.args[0]
    centralizer = oracles.centralizer_dimension(parts)
    expected = sum(parts) ** 2 - centralizer if op.kind == "dimension" else centralizer
    return None if result == expected else f"{op.kind} {result}, expected {expected}"


# -- lnd-algebra ----------------------------------------------------------

def check_lnd_op(op, result, error, normal_form) -> str | None:
    """normal_form is orbitkit's, for the idempotence check; it must be
    called untraced."""
    if error is not None:
        return f"raised {type(error).__name__}: {error}"
    kind = op.kind
    if kind == "mul":
        f, g = op.args
        return None if result.terms == oracles.poly_mul(f, g) else "product differs"
    if kind == "pow":
        f, e = op.args
        return None if result.terms == oracles.poly_pow(f, e) else "power differs"
    if kind == "normal_form":
        if result.terms != oracles.normal_form(op.args[0]):
            return "normal form differs"
        return None if normal_form(result) == result else "normal form is not idempotent"
    if kind == "apply_derivation":
        which, (f, g), _ = op.args
        leibniz = oracles.normal_form(oracles.poly_add(
            oracles.poly_mul(f, oracles.derive(g, which)),
            oracles.poly_mul(oracles.derive(f, which), g)))
        return None if result.terms == leibniz else "Leibniz rule fails"
    if kind == "delta_degree":
        which, factors, _ = op.args
        expected = sum(oracles.delta_degree(f, which) for f in factors)
        return None if result == expected else f"degree {result}, expected {expected} (additivity)"
    found, k1, _, cap, point = op.args
    if bool(result.found) != found:
        return f"witness found={result.found}, expected {found}"
    if not found:
        if not oracles.on_sl2(point) or any(oracles.evaluate(f, point) for f in k1):
            return "no-witness certificate is invalid"
        return None
    if result.found_degree is None or result.found_degree > 2 * cap:
        return f"witness degree {result.found_degree} above the cap"
    total = {}
    for term in result.combination:
        product = oracles.normal_form(oracles.poly_mul(term.left.terms, term.right.terms))
        total = oracles.poly_add(total, {m: c * term.coefficient for m, c in product.items()})
    return None if total == oracles.ONE else "witness equation does not reduce to 1"
