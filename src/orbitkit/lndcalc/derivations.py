"""Derivations on quotient rings: Leibniz application, nilpotence
degrees, kernel membership, and the kernel-product witness search that
certifies semi-compatibility of two locally nilpotent derivations.
`apply_derivation` and `delta_degree` share one Leibniz pass, `_derive`,
on integer numerators, over the table each `Derivation` builds once;
its terms, like the kernel products of the search (one entry, which
checks memberships itself), go to `QuotientRing._reduce` as they are
made.  The search eliminates with `echelon.Echelon`.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

from ..echelon import Echelon
from .poly import MultiPoly, _ints, _numerators, _over, _signed_sum, poly_to_text
from .quotient import QuotientRing

__all__ = [
    "DEFAULT_DEGREE_CAP",
    "Derivation",
    "NotNilpotentError",
    "KernelMembershipError",
    "WitnessReport",
    "WitnessTerm",
    "make_derivation",
    "apply_derivation",
    "delta_degree",
    "is_in_kernel",
    "preserves_relations",
    "degrees_compatible",
    "verify_compatibility_condition2",
    "verify_semicompatibility_witness",
]

DEFAULT_DEGREE_CAP = 64


class NotNilpotentError(RuntimeError):
    """Iterated application did not reach zero within the cap; the input
    may not be locally nilpotent, or the cap is too small."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"derivation did not annihilate the element within {cap + 1}"
                         f" applications (degree above the cap {cap})")


class KernelMembershipError(ValueError):
    """A claimed kernel element is not actually in the kernel."""


@dataclass(frozen=True)
class Derivation:
    """A derivation given by its images on every generator."""

    gens: tuple[str, ...]
    images: Mapping[str, MultiPoly]
    # d(x_i) / x_i per generator i as (m, c) pairs, ints where integral (m
    # may hold -1): d(coef * x^mono) is the sum of coef * e_i * c * x^(mono + m)
    _table: list = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        missing = [g for g in self.gens if g not in self.images]
        if missing:
            raise ValueError(f"no image for generators {missing}")
        for name, img in self.images.items():
            if name not in self.gens:
                raise ValueError(f"image given for unknown generator {name!r}")
            if not isinstance(img, MultiPoly):
                raise TypeError(f"image {img!r} of {name!r} is not a MultiPoly")
            if img.gens != self.gens:
                raise ValueError(f"image of {name!r} is over different generators")
        object.__setattr__(self, "_table", [
            [(m[:i] + (m[i] - 1,) + m[i + 1:], c) for m, c in _ints(self.images[g].terms).items()]
            for i, g in enumerate(self.gens)])


def make_derivation(ring: QuotientRing, /,
                    **images: MultiPoly | str | int | Fraction) -> Derivation:
    """Build a derivation from generator images given by name;
    unnamed generators map to zero.  String images are parsed."""
    table = {}
    for g, value in (dict.fromkeys(ring.gens, 0) | images).items():
        if isinstance(value, str):
            value = ring.parse(value)
        elif isinstance(value, (int, Fraction)) and not isinstance(value, bool):
            value = ring.constant(value)
        elif not isinstance(value, MultiPoly):
            raise TypeError(f"image {value!r} of {g!r} is not a MultiPoly, str, int"
                            " or Fraction")
        table[g] = ring.normal_form(value)
    return Derivation(ring.gens, table)


def apply_derivation(ring: QuotientRing, d: Derivation, f: MultiPoly) -> MultiPoly:
    """Extend the generator images by the Leibniz rule and reduce."""
    numerators, denominator = _numerators(ring._own(f).terms)
    return MultiPoly._of(ring.gens, _over(_derive(ring, d, numerators), denominator))


def _derive(ring: QuotientRing, d: Derivation, terms: dict) -> dict:
    """d(terms), reduced, as a new term map: ints stay ints when d's
    images (read once, into d._table, when d is built) are integral and
    the relation is monic."""
    if d.gens != ring.gens:
        raise ValueError(f"derivation over {d.gens}, ring over {ring.gens}")
    return ring._reduce((tuple(map(add, mono, m)), coef * e * c)
                        for mono, coef in terms.items()
                        for e, image in zip(mono, d._table) if e for m, c in image)


def delta_degree(ring: QuotientRing, d: Derivation, f: MultiPoly,
                 cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Largest n with d^n(f) nonzero in the ring; kernel elements have
    degree 0.  Certifies a degree of at most `cap`: raises
    NotNilpotentError once d^(cap+1)(f) is still nonzero.  Reduction and
    d are linear and the chain only tests for zero, so it runs on f's
    integer numerators, scaled once and reduced as they are.  A cap that
    is not a nonnegative int (a bool included) raises ValueError."""
    if type(cap) is not int or cap < 0:
        raise ValueError(f"cap must be a nonnegative int, got {cap!r}")
    terms = ring._reduce(_numerators(ring._own(f).terms)[0].items())
    if not terms:
        raise ValueError("delta-degree is defined for nonzero elements only")
    steps = 0
    while terms:
        if steps > cap:
            raise NotNilpotentError(cap)
        terms = _derive(ring, d, terms)
        steps += 1
    return steps - 1


def is_in_kernel(ring: QuotientRing, d: Derivation, f: MultiPoly) -> bool:
    return apply_derivation(ring, d, f).is_zero()


def preserves_relations(ring: QuotientRing, d: Derivation) -> bool:
    """Whether d maps the ring's relation into the relation ideal, i.e.
    descends to a derivation of the quotient."""
    return ring.relation is None or apply_derivation(ring, d, ring.relation).is_zero()


def degrees_compatible(deg1: int | str, deg2: int | str) -> bool:
    """The element condition for a compatible pair of locally nilpotent
    derivations: degree exactly 1 under d1 and at most 1 under d2.  A
    degree that is not an int (">cap", not certified) fails it."""
    return deg1 == 1 and isinstance(deg2, int) and deg2 <= 1


def verify_compatibility_condition2(ring: QuotientRing, d1: Derivation,
                                    d2: Derivation, a: MultiPoly,
                                    cap: int = DEFAULT_DEGREE_CAP) -> bool:
    """True iff the delta-degrees of a under d1 and d2 are
    degrees_compatible.  Both are certified: NotNilpotentError when
    either exceeds the cap."""
    return degrees_compatible(delta_degree(ring, d1, a, cap),
                              delta_degree(ring, d2, a, cap))


@dataclass(frozen=True)
class WitnessTerm:
    coefficient: Fraction
    left_label: str
    right_label: str
    left: MultiPoly
    right: MultiPoly
    degree: int  # number of kernel factors multiplied, both sides


@dataclass(frozen=True)
class WitnessReport:
    """Outcome of the search for the constant 1 in the span of products
    of kernel monomials."""

    degree_cap: int
    combination: tuple[WitnessTerm, ...] = ()
    found_degree: int | None = None

    @property
    def found(self) -> bool:
        return self.found_degree is not None

    def equation(self) -> str:
        if not self.found:
            return f"1 not found at degree {self.degree_cap}"
        return "1 = " + _signed_sum((term.coefficient, f"{term.left_label}*{term.right_label}")
                                    for term in self.combination)


def _label(p: MultiPoly) -> str:
    """p's text, in parentheses when it is a sum or starts with a sign,
    so that it reads as one factor of a product."""
    text = poly_to_text(p)
    return f"({text})" if len(p.terms) > 1 or text.startswith("-") else text


def _level(ring: QuotientRing, levels: list, d: int) -> list:
    """(last factor index, label, reduced term map) for the products of d
    kernel elements of one side (levels[0]) with repetition, in
    combinations_with_replacement order; built from level d - 1 on first
    use."""
    base = levels[0]
    while len(levels) < d:
        levels.append([(i, f"{label}*{base[i][1]}", ring._product(terms, base[i][2]))
                       for last, label, terms in levels[-1] for i in range(last, len(base))])
    return levels[d - 1]


def verify_semicompatibility_witness(ring: QuotientRing,
                                     d1: Derivation, d2: Derivation,
                                     kernel1: Iterable[MultiPoly],
                                     kernel2: Iterable[MultiPoly],
                                     degree: int = 3) -> WitnessReport:
    """Search Span(products of kernel monomials) for the constant 1.

    Each claimed kernel element is verified first.  The walk then goes
    over the total factor count 2 .. 2*degree, within a total over the
    left factor count ascending, and within that over the left and then
    the right side's products of at most `degree` kernel elements; each
    product is reduced and added to an exact span, and the walk stops as
    soon as 1 is in it.  A side's products with d factors are built when
    the walk first reaches them, so the cost follows the degree of the
    answer, not the bound.  On success the report carries the explicit
    combination and the total where the walk stopped.

    Products are term maps, made and reduced in one pass
    (`QuotientRing._product`), ints for integral kernel elements; each
    enters the echelon as its integer numerators, so `Fraction` arithmetic
    runs only for rational kernel elements and for the report's
    coefficients (c*scale/lead) and factors, its only polynomials.  Product
    i is tagged (-1, i), below every monomial, so the row pivoted on 1
    holds its combination in its tags.  A degree that is not a nonnegative
    int (a bool included), or a ring with no generators, raises ValueError.
    """
    if type(degree) is not int or degree < 0:
        raise ValueError(f"degree must be a nonnegative int, got {degree!r}")
    if not ring.gens:
        raise ValueError("the witness search needs a ring with at least one generator")
    kernels = [[ring.normal_form(f) for f in k] for k in (kernel1, kernel2)]
    for side, (d, elements) in enumerate(zip((d1, d2), kernels)):
        for f in elements:
            if not is_in_kernel(ring, d, f):
                raise KernelMembershipError(f"{poly_to_text(f)} is not in the kernel of the"
                                            f" {('first', 'second')[side]} derivation")

    left, right = ([[(i, _label(f), _ints(f.terms)) for i, f in enumerate(k)]] for k in kernels)
    span = Echelon()
    visited = []  # (left_label, right_label, left, right, degree, scale)
    for total in range(2, 2 * degree + 1):
        for dl in range(max(1, total - degree), min(degree, total - 1) + 1):
            for _, llabel, tleft in _level(ring, left, dl):
                for _, rlabel, tright in _level(ring, right, total - dl):
                    vec, scale = _numerators(ring._product(tleft, tright))
                    vec[-1, len(visited)] = 1
                    visited.append((llabel, rlabel, tleft, tright, total, scale))
                    pivot = span.insert(vec)
                    # 1 is in the span once the smallest monomial, 1, is a pivot
                    if not any(pivot):
                        row = span.rows[pivot]
                        terms = tuple(
                            WitnessTerm(Fraction(row[-1, i] * sc, row[pivot]), ll, rl,
                                        MultiPoly(ring.gens, lt), MultiPoly(ring.gens, rt), t)
                            for i, (ll, rl, lt, rt, t, sc) in enumerate(visited) if (-1, i) in row)
                        return WitnessReport(degree, terms, found_degree=total)
    return WitnessReport(degree)
