"""Derivations on quotient rings: Leibniz application, nilpotence
degrees, kernel membership, and the kernel-product witness search that
certifies semi-compatibility of two locally nilpotent derivations.
"""

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Mapping, Sequence

from .poly import Monomial, MultiPoly, _add_term, _signed_sum, poly_to_text
from .quotient import QuotientRing

__all__ = [
    "Derivation",
    "NotNilpotentError",
    "KernelMembershipError",
    "WitnessReport",
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

    def __init__(self, cap: int, message: str | None = None):
        self.cap = cap
        super().__init__(message or
                         f"derivation did not annihilate the element within {cap + 1}"
                         f" applications (degree above the cap {cap})")


class KernelMembershipError(ValueError):
    """A claimed kernel element is not actually in the kernel."""


@dataclass(frozen=True)
class Derivation:
    """A derivation given by its images on every generator."""

    gens: tuple[str, ...]
    images: Mapping[str, MultiPoly]

    def __post_init__(self):
        missing = [g for g in self.gens if g not in self.images]
        if missing:
            raise ValueError(f"no image for generators {missing}")
        for name, img in self.images.items():
            if name not in self.gens:
                raise ValueError(f"image given for unknown generator {name!r}")
            if img.gens != self.gens:
                raise ValueError(f"image of {name!r} is over different generators")


def make_derivation(ring: QuotientRing,
                    images: Mapping[str, MultiPoly | str | int] | None = None,
                    **named_images) -> Derivation:
    """Build a derivation from (possibly partial) generator images;
    unnamed generators map to zero.  String images are parsed."""
    given: dict[str, MultiPoly | str | int] = dict(images or {})
    given.update(named_images)
    table = {}
    for g in ring.gens:
        value = given.pop(g, 0)
        if isinstance(value, str):
            value = ring.parse(value)
        elif isinstance(value, (int, Fraction)):
            value = ring.constant(value)
        table[g] = ring.normal_form(value)
    if given:
        raise ValueError(f"images for unknown generators {sorted(given)}")
    return Derivation(ring.gens, table)


def apply_derivation(ring: QuotientRing, d: Derivation, f: MultiPoly) -> MultiPoly:
    """Extend the generator images by the Leibniz rule and reduce."""
    gens = ring.gens
    out: dict[Monomial, Fraction] = {}
    for mono, coef in f.terms.items():
        for i, e in enumerate(mono):
            if e:
                lowered = mono[:i] + (e - 1,) + mono[i + 1:]
                for m, c in d.images[gens[i]].terms.items():
                    _add_term(out, tuple(a + b for a, b in zip(lowered, m)), coef * e * c)
    return ring.normal_form(MultiPoly(gens, out))


def delta_degree(ring: QuotientRing, d: Derivation, f: MultiPoly,
                 cap: int = DEFAULT_DEGREE_CAP) -> int:
    """Largest n with d^n(f) nonzero in the ring; kernel elements have
    degree 0.  Certifies a degree of at most `cap`: raises
    NotNilpotentError once d^(cap+1)(f) is still nonzero."""
    g = ring.normal_form(f)
    if g.is_zero():
        raise ValueError("delta-degree is defined for nonzero elements only")
    steps = 0
    while not g.is_zero():
        if steps > cap:
            raise NotNilpotentError(cap)
        g = apply_derivation(ring, d, g)
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

    found: bool
    degree_cap: int
    combination: tuple[WitnessTerm, ...] = ()
    found_degree: int | None = None

    def equation(self) -> str:
        if not self.found:
            return f"1 not found at degree {self.degree_cap}"
        return "1 = " + _signed_sum((term.coefficient, f"{term.left_label}*{term.right_label}")
                                    for term in self.combination)


def _label(p: MultiPoly) -> str:
    text = poly_to_text(p)
    return f"({text})" if len(p.terms) > 1 else text


def _side_monomials(ring: QuotientRing, elements: Sequence[MultiPoly], degree: int):
    """Products of 1..degree elements with repetition, in deterministic
    order; yields (factor count, label, reduced product)."""
    for d in range(1, degree + 1):
        for combo in combinations_with_replacement(range(len(elements)), d):
            prod = ring.one()
            for i in combo:
                prod = prod * elements[i]
            label = "*".join(_label(elements[i]) for i in combo)
            yield d, label, ring.normal_form(prod)


class _Span:
    """Incremental exact span with bookkeeping to express new members of
    the span as combinations of the inserted vectors."""

    def __init__(self):
        self.rows: dict[Monomial, tuple[dict[Monomial, Fraction], dict[int, Fraction]]] = {}

    def _reduce(self, vec: dict[Monomial, Fraction], combo: dict[int, Fraction]):
        while vec:
            pivot = max(vec)
            if pivot not in self.rows:
                return vec, combo, pivot
            rvec, rcombo = self.rows[pivot]
            factor = vec[pivot] / rvec[pivot]
            for m, c in rvec.items():
                _add_term(vec, m, -factor * c)
            for i, c in rcombo.items():
                _add_term(combo, i, -factor * c)
        return vec, combo, None

    def insert(self, index: int, p: MultiPoly):
        vec, combo, pivot = self._reduce(dict(p.terms), {index: Fraction(1)})
        if pivot is not None:
            self.rows[pivot] = (vec, combo)

    def express(self, p: MultiPoly) -> dict[int, Fraction] | None:
        """Combination of inserted vectors equal to p, or None."""
        vec, combo, pivot = self._reduce(dict(p.terms), {})
        if pivot is not None:
            return None
        return {i: -c for i, c in combo.items()}


def verify_semicompatibility_witness(ring: QuotientRing,
                                     d1: Derivation, d2: Derivation,
                                     kernel1: Iterable[MultiPoly],
                                     kernel2: Iterable[MultiPoly],
                                     degree: int = 3) -> WitnessReport:
    """Search Span(products of kernel monomials) for the constant 1.

    Monomials in the given kernel elements up to the degree bound are
    multiplied pairwise across the two kernels, reduced, and fed to an
    exact linear solver.  On success the report carries the explicit
    combination; each claimed kernel element is verified first.
    """
    k1 = [ring.normal_form(f) for f in kernel1]
    k2 = [ring.normal_form(f) for f in kernel2]
    for side, d, elements in (("first", d1, k1), ("second", d2, k2)):
        for f in elements:
            if not is_in_kernel(ring, d, f):
                raise KernelMembershipError(
                    f"{poly_to_text(f)} is not in the kernel of the {side} derivation")

    left = list(_side_monomials(ring, k1, degree))
    right = list(_side_monomials(ring, k2, degree))
    # (left_label, right_label, left, right, degree): WitnessTerm's fields
    products = [(ll, lr, pl, pr, dl + dr)
                for dl, ll, pl in left for dr, lr, pr in right]
    products.sort(key=lambda item: item[4])

    span = _Span()
    one = ring.one()
    for index, (_, _, pleft, pright, _) in enumerate(products):
        span.insert(index, ring.normal_form(pleft * pright))
        combo = span.express(one)
        if combo is not None:
            terms = tuple(WitnessTerm(combo[i], *products[i]) for i in sorted(combo))
            return WitnessReport(found=True, degree_cap=degree, combination=terms,
                                 found_degree=max(t.degree for t in terms))
    return WitnessReport(found=False, degree_cap=degree)
