"""Sparse multivariate polynomials over the rationals.

Coefficients are exact `fractions.Fraction` values; there is no floating
point anywhere in this package.  A polynomial is a map from exponent
vectors (one slot per named generator, in a fixed order) to nonzero
coefficients, e.g. over generators ("a1", "a2", "b1", "b2")

    a1*b2 - a2*b1 - 1   <->   {(1,0,0,1): 1, (0,1,1,0): -1, (0,0,0,0): -1}

Monomials are compared lexicographically in generator order, which is
the term order used by the quotient-ring rewriting.
"""

import re
from fractions import Fraction
from typing import Iterable, Mapping, Union

__all__ = ["MultiPoly", "PolyParseError", "parse_poly"]

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
            if len(mono) != len(gens) or any(not isinstance(e, int) or e < 0 for e in mono):
                raise ValueError(f"bad exponent vector {mono} for generators {gens}")
            coef = Fraction(coef)
            if coef:
                clean[mono] = coef
        self.gens = gens
        self.terms = clean

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

    def _check_gens(self, other: "MultiPoly"):
        if self.gens != other.gens:
            raise ValueError(f"generator mismatch: {self.gens} vs {other.gens}")

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.constant(self.gens, other)
        self._check_gens(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(out, m, c)
        return MultiPoly(self.gens, out)

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly(self.gens, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other if isinstance(other, MultiPoly) else -Fraction(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return MultiPoly(self.gens, {m: c * other for m, c in self.terms.items()})
        self._check_gens(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                _add_term(out, tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
        return MultiPoly(self.gens, out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        result = MultiPoly.constant(self.gens, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def substitute(self, images: Mapping[str, "MultiPoly"]) -> "MultiPoly":
        """Replace each named generator by a polynomial (same generator
        context); generators not named map to themselves."""
        out: dict[Monomial, Fraction] = {}
        cache = {name: images.get(name, MultiPoly.generator(self.gens, name))
                 for name in self.gens}
        for mono, coef in self.terms.items():
            term = MultiPoly.constant(self.gens, coef)
            for name, e in zip(self.gens, mono):
                if e:
                    term = term * cache[name] ** e
            for m, c in term.terms.items():
                _add_term(out, m, c)
        return MultiPoly(self.gens, out)

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


def _add_term(terms: dict, key, coef) -> None:
    """Add coef into terms[key], dropping the key when the sum cancels."""
    s = terms.get(key, 0) + coef
    if s:
        terms[key] = s
    else:
        terms.pop(key, None)


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


_TOKEN = re.compile(r"\s*(?:(?P<num>\d+(?:/\d+)?)|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
                    r"|(?P<op>[-+*^]))")


def _tokenize(text: str):
    text = text.rstrip()
    pos, out = 0, []
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise PolyParseError(f"unexpected character at {text[pos:pos + 10]!r}")
        if m.group("num"):
            out.append(("num", m.group("num")))
        elif m.group("name"):
            out.append(("name", m.group("name")))
        else:
            out.append(("op", m.group("op")))
        pos = m.end()
    return out


def parse_poly(text: str, gens: Iterable[str]) -> MultiPoly:
    """Parse the textual format `coef*gen^exp*...` joined by `+`/`-`.

    Whitespace is ignored; `^1` may be omitted; coefficients may be
    integers or fractions like `1/4`.
    """
    gens = tuple(gens)
    index = {g: i for i, g in enumerate(gens)}
    tokens = _tokenize(text)
    if not tokens:
        raise PolyParseError("empty polynomial text")
    terms: dict[Monomial, Fraction] = {}
    pos = 0
    while pos < len(tokens):
        sign = 1
        while pos < len(tokens) and tokens[pos][0] == "op" and tokens[pos][1] in "+-":
            if tokens[pos][1] == "-":
                sign = -sign
            pos += 1
        coef = Fraction(sign)
        expo = [0] * len(gens)
        expect_factor = True
        saw_factor = False
        while pos < len(tokens):
            kind, value = tokens[pos]
            if kind == "op" and value in "+-":
                break
            if kind == "op" and value == "*":
                if expect_factor:
                    raise PolyParseError("misplaced '*'")
                expect_factor = True
                pos += 1
                continue
            if not expect_factor:
                raise PolyParseError(f"missing operator before {value!r}")
            if kind == "num":
                coef *= Fraction(value)
                pos += 1
            elif kind == "name":
                if value not in index:
                    raise PolyParseError(f"unknown generator {value!r}; have {gens}")
                power = 1
                pos += 1
                if pos < len(tokens) and tokens[pos] == ("op", "^"):
                    pos += 1
                    if pos >= len(tokens) or tokens[pos][0] != "num" or "/" in tokens[pos][1]:
                        raise PolyParseError(f"expected integer exponent after {value}^")
                    power = int(tokens[pos][1])
                    pos += 1
                expo[index[value]] += power
            else:
                raise PolyParseError(f"unexpected {value!r} inside a term")
            expect_factor = False
            saw_factor = True
        if not saw_factor:
            raise PolyParseError("empty term")
        _add_term(terms, tuple(expo), coef)
    return MultiPoly(gens, terms)
