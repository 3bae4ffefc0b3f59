"""Case analysis for principal reductive embeddings R < G.

Three computable criteria decide, pair by pair, that some SL2-subgroup
of G meets every conjugate of R badly enough:

  orbit-count           fewer nilpotent orbits in r than in g
  dimension-gap         dim G - dim R strictly exceeds rank G + 3, the
                        centralizer dimension bound for the subregular
                        semisimple element
  subregular-partition  the subregular Jordan type is incompatible with
                        the invariant form or fixed vector defining R

Pairs settled in the literature by triality or by sl2-triple lifting
tables are reported with criterion "cited-only" and an explanatory
citation string; nothing is recomputed for them.

The case list is one table, _CASES; every sweep and lookup is derived
from it.  Every analyzed pair resolves to its PrincipalRow, and each
criterion reads that row.  Rows and sweeps re-derive every tabulated
number from root systems and partition counts and fail loudly on any
mismatch.
"""

import operator
import re
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple

from .orbits import nilpotent_orbit_count, subregular_partition
from .partitions import Partition, is_orthogonal_partition, is_symplectic_partition
from .rootsys import LieType, _check_lie_type, group_dimension
from .rootsys import RootSystemConsistencyError as InconsistencyError

__all__ = [
    "Criterion",
    "Witness",
    "EmbeddingCase",
    "CaseVerdict",
    "PrincipalRow",
    "UnsupportedCaseError",
    "InconsistencyError",
    "SUPPORTED_CASES",
    "orbit_count_criterion",
    "rank2_cases_report",
    "principal_table",
    "dimension_gap_check",
    "dimension_gap_exceptions",
    "subregular_membership_check",
    "embedding_verdict",
    "appendix_checks",
]

DEFAULT_L_MAX = 50


class Criterion(Enum):
    ORBIT_COUNT = "orbit-count"
    DIMENSION_GAP = "dimension-gap"
    SUBREGULAR_PARTITION = "subregular-partition"
    CITED_ONLY = "cited-only"


class Witness(Enum):
    PRINCIPAL = "principal"
    SUBREGULAR = "subregular"
    NONE = "none"


class UnsupportedCaseError(ValueError):
    """The pair is outside the analyzed case list; no verdict is extended
    to it."""


class EmbeddingCase(NamedTuple):
    """A labeled pair of types.  Identical labels are representable so
    that the orbit-count comparator can report "equal counts" instead of
    raising; the analyzed case list never contains such pairs."""

    g_type: LieType
    r_type: LieType
    family_parameter: int | None = None

    def __str__(self):
        return f"{self.g_type} > {self.r_type}"

    def as_inputs(self) -> dict:
        return {"g": str(self.g_type), "r": str(self.r_type), "l": self.family_parameter}


class CaseVerdict(NamedTuple):
    case: EmbeddingCase
    criterion: Criterion
    holds: bool
    numbers: Mapping[str, int] = MappingProxyType({})
    partition: Partition | None = None
    citation: str | None = None
    note: str | None = None

    @property
    def witness(self) -> Witness:
        """Principal when orbit counts decide, subregular for every other criterion."""
        if not self.holds:
            return Witness.NONE
        return Witness.PRINCIPAL if self.criterion is Criterion.ORBIT_COUNT else Witness.SUBREGULAR

    def as_check(self, anchor: str) -> tuple[str, str, dict, dict, bool]:
        """This verdict as a report check, (kind, anchor, inputs, outputs, passed)."""
        outputs = {"criterion": self.criterion.value, "witness": self.witness.value,
                   "holds": self.holds, **self.numbers}
        if self.partition is not None:
            outputs["partition"] = str(self.partition)
        if self.citation is not None:
            outputs["citation"] = self.citation
        if self.note is not None:
            outputs["note"] = self.note
        return "verdict", anchor, self.case.as_inputs(), outputs, self.holds


class PrincipalRow(NamedTuple):
    """One row of the principal-embedding table: the subgroup R is
    principal in G, and the columns compare dim G - dim R with the
    subregular centralizer bound rank G + 3."""

    case: EmbeddingCase
    dim_g: int
    dim_r: int
    record: "_Case"
    alias_note: str | None = None

    @property
    def rank_plus_3(self) -> int:
        return self.case.g_type.rank + 3

    @property
    def dim_gap(self) -> int:
        return self.dim_g - self.dim_r

    @property
    def gap_exceeds(self) -> bool:
        return self.dim_gap > self.rank_plus_3

    def gap_check(self) -> CaseVerdict:
        """dimension_gap_check of this row."""
        return CaseVerdict(
            case=self.case, criterion=Criterion.DIMENSION_GAP, holds=self.gap_exceeds,
            numbers={"dim_g": self.dim_g, "dim_r": self.dim_r, "gap": self.dim_gap,
                     "rank_g": self.case.g_type.rank, "bound": self.rank_plus_3},
            note=None if self.gap_exceeds else "gap does not exceed the bound; deferred to"
                                               " the subregular-partition criterion")

    def subregular_check(self) -> CaseVerdict:
        """subregular_membership_check of this row, read from its case record."""
        g, rec = self.case.g_type, self.record
        if rec.citation is not None:
            return CaseVerdict(
                case=self.case, criterion=Criterion.CITED_ONLY, holds=True, citation=rec.citation,
                partition=subregular_partition(g) if g.family in "ABD" else None)
        p = subregular_partition(g)
        incompatible, note = rec.obstruction
        return CaseVerdict(
            case=self.case, criterion=Criterion.SUBREGULAR_PARTITION, holds=incompatible(p),
            numbers={"l": self.case.family_parameter}, partition=p, note=note.format(p))


_TRIALITY_CITATION = (
    "G2 is the triality-fixed subgroup of SO8; the subregular Jordan types"
    " (5,1,1) of so7 (extending to (5,1,1,1) in so8) and (5,3) of so8 are"
    " not triality-invariant, so no conjugate of the subregular SL2 lies in G2")

_A6_CITATION = (
    "the subregular Jordan type (6,1) of sl7 is not orthogonal, so no"
    " conjugate of the subregular SL2 of SL7 lies in SO7, and G2 sits inside SO7")

_E6_CITATION = (
    "by the sl2-triple lifting tables, conjugacy classes of triples in f4 lift"
    " uniquely to e6 and the largest non-principal e6 orbit meeting f4 has"
    " codimension 10; the subregular e6 orbit has codimension 8, so no"
    " conjugate of the subregular SL2 of E6 lies in F4")

# (test, note): the subregular Jordan type of G is incompatible with R
_NOT_SYMPLECTIC = (lambda p: not is_symplectic_partition(p),
                   "Jordan type {} is not symplectic, so it preserves no symplectic form")
_NOT_ORTHOGONAL = (lambda p: not is_orthogonal_partition(p),
                   "Jordan type {} is not orthogonal, so it preserves no orthogonal form")
_NO_PART_ONE = (lambda p: p.multiplicity(1) == 0,
                "Jordan type {} has no part 1, so the subregular SL2 fixes"
                " no line and misses every conjugate of the stabilizer")


@lru_cache(maxsize=None)
def _rank_form(label: str) -> tuple[str, int, int]:
    """Family and rank a*l + b of a label: "A2l-1" -> ("A", 2, -1), "B3" -> ("B", 0, 3)."""
    letter, a, l, b = re.fullmatch(r"([A-G])(\d*)(l?)([+-]\d+)?", label).groups()
    return (letter, int(a or 1), int(b or 0)) if l else (letter, 0, int(a))


def _label_at(label: str, l: int | None) -> tuple[str, int]:
    """The label at parameter l, before LieType canonicalizes it: "Cl" -> ("C", 2)."""
    letter, a, b = _rank_form(label)
    return letter, b if l is None else a * l + b


class _Case(NamedTuple):
    """One row of the paper's principal-embedding table: G and R fixed
    ("B3") or linear in the family parameter l >= l_min ("Bl-1").  The l
    in orbit_count_at are rank-2 coincidences, case (1), settled by orbit
    counts alone; the rest by the obstruction or the citation."""

    number: int  # the paper's case number
    g: str
    r: str
    closed_forms: Callable[[int | None], tuple[int, int]]  # rank G + 3, dim G - dim R
    l_min: int | None = None
    orbit_count_at: tuple[int, ...] = ()
    obstruction: tuple[Callable[[Partition], bool], str] | None = None
    citation: str | None = None

    def types(self, l: int | None) -> tuple[LieType, LieType]:
        return LieType(*_label_at(self.g, l)), LieType(*_label_at(self.r, l))


# The case analysis, in the order of the paper's principal table.
_CASES = (
    _Case(2, "B3", "G2", lambda _: (6, 7), citation=_TRIALITY_CITATION),
    _Case(2, "D4", "G2", lambda _: (7, 14), citation=_TRIALITY_CITATION),
    _Case(2, "A6", "G2", lambda _: (9, 34), citation=_A6_CITATION),
    _Case(6, "E6", "F4", lambda _: (9, 26), citation=_E6_CITATION),
    _Case(4, "A2l-1", "Cl", lambda l: (2 * l + 2, l * (2 * l - 1) - 1),
          l_min=2, orbit_count_at=(2,), obstruction=_NOT_SYMPLECTIC),
    _Case(3, "A2l", "Bl", lambda l: (2 * l + 3, 2 * l * l + 3 * l),
          l_min=2, orbit_count_at=(2,), obstruction=_NOT_ORTHOGONAL),
    _Case(5, "Dl", "Bl-1", lambda l: (l + 3, 2 * l - 1),
          l_min=4, obstruction=_NO_PART_ONE),
)

# The smallest l_max whose sweep reaches every parametrized row (Dl from l = 4).
_L_MAX_MIN = max(rec.l_min for rec in _CASES if rec.l_min is not None)

# The paper's claim that exactly these rows have dim G - dim R <= rank G + 3.
# Stated, not derived from _CASES: appendix_checks tests the table against it.
PAPER_GAP_EXCEPTIONS = ("A3 > B2", "D4 > B3")


def _supported_cases() -> tuple[str, ...]:
    """One line per case number, e.g. "G=B3, D4 or A6, R=G2"."""
    lines: dict[int, tuple[list[str], str]] = {}
    for rec in _CASES:
        for l in rec.orbit_count_at:
            g, r = rec.types(l)
            letter, rank = _label_at(rec.r, l)
            r_text = str(r) if r.family == letter else f"{r} (={letter}{rank})"
            lines.setdefault(1, ([], r_text))[0].append(str(g))
        span = "" if rec.l_min is None else f" (l>={rec.l_min})"
        lines.setdefault(rec.number, ([], rec.r))[0].append(rec.g + span)
    return tuple(f"G={', '.join(gs[:-1]) + ' or ' if gs[1:] else ''}{gs[-1]}, R={r}"
                 for _, (gs, r) in sorted(lines.items()))


SUPPORTED_CASES = _supported_cases()


def _identify(g: LieType, r: LieType) -> PrincipalRow:
    """The table row of the analyzed pair g > r, l solved from the rank of g.
    Raises UnsupportedCaseError outside the case list."""
    _check_lie_type(g)
    _check_lie_type(r)
    for rec in _CASES:
        letter, a, b = _rank_form(rec.g)
        l, rest = divmod(g.rank - b, a) if a else (None, g.rank - b)
        if (g.family == letter and not rest and (l is None or l >= rec.l_min)
                and rec.types(l) == (g, r)):
            return _row(rec, l)
    raise UnsupportedCaseError(
        f"no verdict is recorded for {g} > {r}; supported cases: "
        + "; ".join(SUPPORTED_CASES))


def _sweep(l_max: int) -> list[tuple[_Case, int | None]]:
    """Every (record, l) of the table up to l_max, in table order."""
    l_max = operator.index(l_max)  # refuses floats, strings and None
    if l_max < _L_MAX_MIN:
        raise ValueError(f"l_max must be at least {_L_MAX_MIN}, got {l_max}")
    return [(rec, l) for rec in _CASES
            for l in ((None,) if rec.l_min is None else range(rec.l_min, l_max + 1))]


def orbit_count_criterion(g: LieType, r: LieType) -> CaseVerdict:
    """Holds when r has strictly fewer nilpotent orbits than g, so some
    sl2-conjugacy class of g misses every conjugate of r."""
    count_g = nilpotent_orbit_count(g).count
    count_r = nilpotent_orbit_count(r).count
    return CaseVerdict(
        case=EmbeddingCase(g, r),
        criterion=Criterion.ORBIT_COUNT,
        holds=count_r < count_g,
        numbers={"orbit_count_g": count_g, "orbit_count_r": count_r},
    )


def rank2_cases_report(l_max: int = DEFAULT_L_MAX) -> list[CaseVerdict]:
    """Orbit-count verdicts for the six rank >= 2 principal-subgroup
    cases; parametrized families run over 3 <= l <= l_max (the D family
    over 4 <= l <= l_max).  Every verdict must hold."""
    verdicts = []
    for rec, l in _sweep(l_max):
        g, r = rec.types(l)
        # the report lists the pairs by case number; case (1) lists them without l
        index, l = (1, None) if l in rec.orbit_count_at else (rec.number, l)
        v = orbit_count_criterion(g, r)
        if not v.holds:
            raise InconsistencyError(
                f"case ({index}) fails at {g} > {r}: orbit counts"
                f" {v.numbers['orbit_count_g']} vs {v.numbers['orbit_count_r']}")
        numbers = {**v.numbers, "case": index, **({} if l is None else {"l": l})}
        verdicts.append(v._replace(case=EmbeddingCase(g, r, l), numbers=numbers))
    return sorted(verdicts, key=lambda v: v.numbers["case"])


def _row(rec: _Case, l: int | None) -> PrincipalRow:
    g, r = rec.types(l)
    letter, rank = _label_at(rec.r, l)
    note = None if r.family == letter else f"R is {letter}{rank}, canonicalized to {r}"
    row = PrincipalRow(EmbeddingCase(g, r, l), group_dimension(g), group_dimension(r), rec, note)
    if (row.rank_plus_3, row.dim_gap) != rec.closed_forms(l):
        raise InconsistencyError(
            f"table row {g} > {r}: closed form {rec.closed_forms(l)}"
            f" vs root-system values ({row.rank_plus_3}, {row.dim_gap})")
    return row


def principal_table(l_max: int = DEFAULT_L_MAX) -> list[PrincipalRow]:
    """The seven-row table of principal embeddings, parametrized rows
    swept up to l_max.  The closed-form columns are cross-checked
    against dimensions recomputed from root systems."""
    return [_row(rec, l) for rec, l in _sweep(l_max)]


def dimension_gap_check(g: LieType, r: LieType) -> CaseVerdict:
    """Compare dim G - dim R with rank G + 3.  A strict excess rules out
    a degenerate fixed-point-free action of the subregular SL2 on G/R,
    so the subregular witness works; otherwise the verdict defers to the
    subregular-partition criterion."""
    return _identify(g, r).gap_check()


def dimension_gap_exceptions(l_max: int = DEFAULT_L_MAX) -> list[EmbeddingCase]:
    """Rows of the principal table whose dimension gap does not exceed
    rank G + 3; these need the refined subregular argument."""
    return [row.case for row in principal_table(l_max) if not row.gap_exceeds]


def subregular_membership_check(g: LieType, r: LieType) -> CaseVerdict:
    """Decide that no conjugate of the subregular SL2 of G lies in R.

    For the classical rows this is a partition computation: Jordan type
    (r,1) of sl_{r+1} is not symplectic for odd r and not orthogonal for
    even r, and Jordan type (2l-3,3) of so_{2l} fixes no line.  The G2
    and F4 rows rest on cited triality/lifting facts."""
    return _identify(g, r).subregular_check()


def embedding_verdict(g: LieType, r: LieType) -> CaseVerdict:
    """Full verdict for one analyzed pair.

    The orbit-count criterion runs first and settles the rank-2
    coincidences (A3 or A4 over B2).  Every other analyzed pair is a
    principal-table row: the dimension gap is compared with the
    subregular bound, then the subregular-partition or cited argument
    pins the witness.  The returned numbers collect every quantity used.
    """
    row = _identify(g, r)
    l = row.case.family_parameter
    oc = orbit_count_criterion(g, r)
    if l in row.record.orbit_count_at and oc.holds:
        return oc._replace(case=row.case, numbers={**oc.numbers, "l": l})
    gap, membership = row.gap_check(), row.subregular_check()
    numbers = {**oc.numbers, **({} if l is None else {"l": l}),
               **gap.numbers, **membership.numbers}
    return membership._replace(numbers=numbers,
                               note=membership.note if gap.holds else gap.note)


def appendix_checks(l_max: int = DEFAULT_L_MAX) -> list[tuple[str, str, dict, dict, bool]]:
    """The `report appendix` checks: orbit-count cases, table rows, their
    subregular checks, and the table's exception set against the paper's."""
    checks = [v.as_check(f"orbit-count case ({v.numbers['case']}): {v.case}")
              for v in rank2_cases_report(l_max)]
    rows = principal_table(l_max)
    for row in rows:
        suffix = f" l={row.case.family_parameter}" if row.case.family_parameter else ""
        outputs = {"rank_plus_3": row.rank_plus_3, "dim_gap": row.dim_gap,
                   "gap_exceeds": row.gap_exceeds}
        if row.alias_note:
            outputs["alias"] = row.alias_note
        checks.append(("table-row", f"principal table row: {row.case}{suffix}",
                       row.case.as_inputs(), outputs, True))
    checks += [v.as_check(f"subregular check: {v.case}")
               for v in map(PrincipalRow.subregular_check, rows)]
    found = sorted(str(row.case) for row in rows if not row.gap_exceeds)
    checks.append(("table-row", "dimension-gap exception set", {"l_max": l_max},
                   {"expected": list(PAPER_GAP_EXCEPTIONS), "found": found},
                   found == list(PAPER_GAP_EXCEPTIONS)))
    return checks
