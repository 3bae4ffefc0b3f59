"""Sparse multivariate polynomials over the rationals.

Coefficients are exact `fractions.Fraction` values; there is no floating
point anywhere in this package: a float, bool or string coefficient
raises TypeError (text goes through `parse_poly`).  A polynomial is a
map from exponent vectors (one slot per named generator, in a fixed
order) to nonzero coefficients, e.g. over generators ("a1", "a2", "b1", "b2")

    a1*b2 - a2*b1 - 1   <->   {(1,0,0,1): 1, (0,1,1,0): -1, (0,0,0,0): -1}

Monomials are compared lexicographically in generator order, which is
the term order used by the quotient-ring rewriting.

Validation happens once, at the public boundary: `MultiPoly(gens,
terms)`, and through it `zero`, `constant`, `generator` and
`parse_poly`, checks every exponent vector and makes every coefficient
a nonzero Fraction.  Results computed here (`+`, `-`, `*`, `**`,
`substitute`, `QuotientRing.normal_form`, `apply_derivation`) skip the
checks through `MultiPoly._of`, because they combine checked terms
only: exponents add (a rewrite divides out only a power of the lead
that divides the monomial), `_over` divides into Fractions, and
`_add_term` (stated once, in `orbitkit.echelon`) drops every sum that
cancels.

The coefficient rule: polynomials hold Fractions.  Private term maps
hold ints where integral (`_ints`: the relation's powers, the Leibniz
tables and the witness search's kernel products), or integer numerators
over one denominator (`_numerators`, undone once by `_over`), which is
how `*`, `**` (and through them `substitute`), `normal_form`,
`apply_derivation` and `delta_degree` compute.  `_mul` is the free
product, for `*`, `**` and the relation's powers; the witness search
multiplies with `QuotientRing._product`, which reduces each term as it
is made.

Polynomial text (`parse_poly`, and `poly_to_text`'s output) is terms
joined by `+`/`-`, each term factors joined by `*`, each factor a
coefficient `n` or `n/d` or a generator `gen` or `gen^k`.
"""

import math
import re
from fractions import Fraction
from operator import add
from typing import Iterable, Mapping, Union

from ..echelon import _add_term

__all__ = ["MultiPoly", "PolyParseError", "parse_poly", "poly_to_text"]

Monomial = tuple[int, ...]
Scalar = Union[int, Fraction]


class PolyParseError(ValueError):
    pass


class MultiPoly:
    """Immutable-by-convention sparse polynomial over named generators."""

    __slots__ = ("gens", "terms")

    def __init__(self, gens: Iterable[str], terms: Mapping[Monomial, Scalar] | None = None):
        gens = tuple(gens)
        clean: dict[Monomial, Fraction] = {}
        for mono, coef in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) != len(gens) or any(type(e) is not int or e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for generators {gens}")
            if not isinstance(coef, (int, Fraction)) or isinstance(coef, bool):
                raise TypeError(f"coefficient {coef!r} is not an int or a Fraction")
            coef = Fraction(coef)
            if coef:
                clean[mono] = coef
        self.gens = gens
        self.terms = clean

    @classmethod
    def _of(cls, gens: tuple[str, ...], terms: dict[Monomial, Fraction]) -> "MultiPoly":
        """Unchecked constructor.  `terms` must be a dict the caller has
        just built, never another polynomial's `terms`, with nonnegative
        exponent vectors of length len(gens) and nonzero Fraction values."""
        self = object.__new__(cls)
        self.gens = gens
        self.terms = terms
        return self

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, gens: Iterable[str]) -> "MultiPoly":
        return cls(gens)

    @classmethod
    def constant(cls, gens: Iterable[str], value: Scalar) -> "MultiPoly":
        gens = tuple(gens)
        return cls(gens, {(0,) * len(gens): value})

    @classmethod
    def generator(cls, gens: Iterable[str], name: str) -> "MultiPoly":
        gens = tuple(gens)
        if name not in gens:
            raise ValueError(f"{name!r} is not one of the generators {gens}")
        expo = tuple(1 if g == name else 0 for g in gens)
        return cls(gens, {expo: 1})

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Maximum monomial degree; -1 for the zero polynomial."""
        return max((sum(m) for m in self.terms), default=-1)

    def _operand(self, other) -> "MultiPoly":
        """other over self's generators; a scalar becomes a checked constant."""
        if not isinstance(other, MultiPoly):
            return MultiPoly.constant(self.gens, other)
        if self.gens != other.gens:
            raise ValueError(f"generator mismatch: {self.gens} vs {other.gens}")
        return other

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = self._operand(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(out, m, c)
        return MultiPoly._of(self.gens, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.gens, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._operand(other)
        (t1, d1), (t2, d2) = _numerators(self.terms), _numerators(other.terms)
        return MultiPoly._of(self.gens, _over(_mul(t1, t2), d1 * d2))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Binary powering on the integer numerators, divided once by d**n;
        p ** 0 is the checked constant 1."""
        if type(n) is not int or n < 0:
            raise ValueError("only nonnegative integer powers")
        if not n:
            return MultiPoly.constant(self.gens, 1)
        base, d = _numerators(self.terms)
        d, result = d ** n, None
        while n:
            if n & 1:
                result = base if result is None else _mul(result, base)
            n >>= 1
            if n:
                base = _mul(base, base)
        return MultiPoly._of(self.gens, _over(result, d))

    def substitute(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Replace each named generator by its image, a MultiPoly (TypeError
        otherwise); generators not named map to themselves, and an unknown
        name raises ValueError.  The images share one generator context,
        which the result is over.  A term of k factors costs k - 1 products."""
        unknown = [name for name in images if name not in self.gens]
        if unknown:
            raise ValueError(f"images given for unknown generators {unknown}")
        for value in images.values():
            if not isinstance(value, MultiPoly):
                raise TypeError(f"image {value!r} is not a MultiPoly")
        cache = {name: images[name] if name in images else MultiPoly.generator(self.gens, name)
                 for name in self.gens}
        gens = cache[self.gens[0]].gens if self.gens else self.gens
        if any(image.gens != gens for image in cache.values()):
            raise ValueError(f"images over generators other than {gens}")
        out: dict[Monomial, Fraction] = {}
        for mono, coef in self.terms.items():
            term = None
            for name, e in zip(self.gens, mono):
                if e:
                    term = cache[name] ** e if term is None else term * cache[name] ** e
            for m, c in (term.terms.items() if term is not None else [((0,) * len(gens), 1)]):
                _add_term(out, m, coef * c)
        return MultiPoly._of(gens, out)

    # -- identity ------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.gens == other.gens
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.gens, frozenset(self.terms.items())))

    def __repr__(self):
        return f"MultiPoly({self.gens!r}, {str(self)!r})"

    def __str__(self):
        return poly_to_text(self)


def _mul(t1: Mapping[Monomial, Scalar], t2: Mapping[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    """The product of two term maps, as a new map; exponent vectors add,
    so shifted ones (see `QuotientRing`) multiply too."""
    out: dict[Monomial, Scalar] = {}
    for m1, c1 in t1.items():
        for m2, c2 in t2.items():
            _add_term(out, tuple(map(add, m1, m2)), c1 * c2)
    return out


def _ints(terms: Mapping[Monomial, Scalar]) -> dict[Monomial, Scalar]:
    """A copy of terms with every integral coefficient stored as an int."""
    return {m: c.numerator if c.denominator == 1 else c for m, c in terms.items()}


def _numerators(terms: Mapping[Monomial, Scalar]) -> tuple[dict[Monomial, int], int]:
    """(terms * d, d) for the least common denominator d, as a new map of
    ints; an all-int map is copied, with d = 1."""
    if all(type(c) is int for c in terms.values()):
        return dict(terms), 1
    d = math.lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (d // c.denominator) for m, c in terms.items()}, d


def _over(terms: Mapping[Monomial, int], d: int) -> dict[Monomial, Fraction]:
    """Undo `_numerators`: terms / d as a new map of Fractions."""
    return {m: Fraction(c, d) for m, c in terms.items()}


def _signed_sum(pairs: Iterable[tuple[Fraction, str]]) -> str:
    """Join (coefficient, factor text) pairs as `c*f - c*f + ...`; a unit
    coefficient is left out before a nonempty factor text."""
    chunks = []
    for coef, factors in pairs:
        mag = abs(coef)
        body = str(mag) if not factors else factors if mag == 1 else f"{mag}*{factors}"
        chunks.append(("- " if coef < 0 else "+ ") + body)
    text = " ".join(chunks)
    return text[2:] if text.startswith("+") else "-" + text[2:]


def poly_to_text(p: MultiPoly) -> str:
    """Canonical text form: terms in decreasing term order, exponents as
    `gen^k` with `^1` omitted, unit coefficients suppressed."""
    if p.is_zero():
        return "0"
    return _signed_sum(
        (p.terms[mono], "*".join(g if e == 1 else f"{g}^{e}" for g, e in zip(p.gens, mono) if e))
        for mono in sorted(p.terms, reverse=True))


_FACTOR = re.compile(r"\s*(?:(?P<coef>\d+(?:/\d+)?)"
                     r"|(?P<gen>[A-Za-z][A-Za-z0-9_]*)(?:\s*\^\s*(?P<exp>\d+))?)\s*")


def parse_poly(text: str, gens: Iterable[str]) -> MultiPoly:
    """Parse polynomial text over the named generators.

    Grammar: terms joined by runs of `+`/`-` (a leading run is allowed,
    a run multiplies out); each term is factors joined by `*`; each
    factor is `n`, `n/d` or `gen`, `gen^k` with n, d, k decimal
    integers.  Whitespace is allowed around factors and `^`.  Anything
    else, an unknown generator or a zero denominator raises
    PolyParseError naming the offending text.
    """
    gens = tuple(gens)
    index = {g: i for i, g in enumerate(gens)}
    pieces = re.split(r"([-+])", text)
    terms: dict[Monomial, Fraction] = {}
    sign = 1
    for piece, op in zip(pieces[::2], pieces[1::2] + [None]):
        if piece.strip() or op is None:  # blank only before a sign
            coef, expo = Fraction(sign), [0] * len(gens)
            for factor in piece.split("*"):
                m = _FACTOR.fullmatch(factor)
                if not m:
                    raise PolyParseError(f"bad factor {factor.strip()!r} in {text!r}")
                if m["coef"]:
                    try:
                        coef *= Fraction(m["coef"])
                    except ZeroDivisionError:
                        raise PolyParseError(f"zero denominator in {m['coef']!r}") from None
                elif m["gen"] in index:
                    expo[index[m["gen"]]] += int(m["exp"] or 1)
                else:
                    raise PolyParseError(f"unknown generator {m['gen']!r}; have {gens}")
            _add_term(terms, tuple(expo), coef)
            sign = 1
        if op == "-":
            sign = -sign
    return MultiPoly(gens, terms)
