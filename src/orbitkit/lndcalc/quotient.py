"""Polynomial quotient rings C[gens] / (relation) with one relation.

The relation's lead is its lexicographically largest monomial, and
reduction rewrites the lead as R = lead - relation / (lead coefficient),
whose every monomial lies below the lead: a monomial m with lead^k the
largest power of the lead dividing it becomes (m / lead^k) * R^k in one
step.  Coefficient types follow the rule stated in `poly`.

Terms are reduced as they arrive: `_reduce` takes (monomial,
coefficient) pairs, so products (`_product`) and Leibniz passes are
never summed first.  A ring is one-pass (`_one_pass`) when no monomial
of R uses a generator of the lead: as k is the largest power, m / lead^k
keeps some lead generator below its exponent in the lead, R^k does not
raise it, so a rewrite's terms are reduced and go straight into the
result.  Otherwise they go to a pending map that the same loop drains.

Termination: lex order is a monomial order, so every monomial of R^k
lies below lead^k, and a rewrite replaces a monomial by lex-smaller
ones.  Lex order is a well-order, so any order of rewrites stops.

Confluence: one polynomial is a Groebner basis of the ideal it
generates, so the normal form is the unique remainder of division by
the relation, and reduction is linear, so terms may be merged and taken
in any order: f and g are equal in the ring exactly when their normal
forms are equal.
"""

from itertools import chain, compress
from operator import add, floordiv, sub
from typing import Iterable

from ..echelon import _add_term
from .poly import Monomial, MultiPoly, Scalar, _ints, _mul, _numerators, _over, parse_poly

__all__ = ["QuotientRing", "RelationError"]


class RelationError(ValueError):
    """The relation is zero or constant, so it has no monomial to rewrite."""


class QuotientRing:
    """Free polynomial ring over named generators modulo at most one
    relation; `lead` is the relation's largest monomial, or None."""

    def __init__(self, gens: Iterable[str], relation: MultiPoly | None = None):
        self.gens = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise ValueError(f"duplicate generator names in {self.gens}")
        self.relation = relation
        self.lead: Monomial | None = None
        if relation is None:
            return
        self._own(relation, "relation")
        self.lead = max(relation.terms, default=(0,) * len(self.gens))
        if not any(self.lead):
            raise RelationError(f"relation {relation} is zero or constant")
        scale = -1 / relation.terms[self.lead]
        replacement = _ints({m: c * scale for m, c in relation.terms.items() if m != self.lead})
        self._exponents = [e for e in self.lead if e]
        self._one_pass = not any(any(compress(m, self.lead)) for m in replacement)
        # R^0, R^1, ..., each monomial of R^k shifted by -k*lead; grown by _reduce
        self._powers = [{(0,) * len(self.gens): 1},
                        {tuple(map(sub, m, self.lead)): c for m, c in replacement.items()}]

    # -- element constructors ------------------------------------------

    def zero(self) -> MultiPoly:
        return MultiPoly.zero(self.gens)

    def one(self) -> MultiPoly:
        return MultiPoly.constant(self.gens, 1)

    def constant(self, value) -> MultiPoly:
        return MultiPoly.constant(self.gens, value)

    def generator(self, name: str) -> MultiPoly:
        return MultiPoly.generator(self.gens, name)

    def parse(self, text: str) -> MultiPoly:
        """Parse text into a raw polynomial (not reduced)."""
        return parse_poly(text, self.gens)

    def element(self, text: str) -> MultiPoly:
        """Parse and reduce to normal form."""
        return self.normal_form(self.parse(text))

    # -- reduction -------------------------------------------------------

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        """Exhaustively rewrite until no monomial is divisible by the
        lead.  Idempotent; f minus the result lies in the relation ideal."""
        numerators, denominator = _numerators(self._own(f).terms)
        return MultiPoly._of(self.gens, _over(self._reduce(numerators.items()), denominator))

    def _own(self, f: MultiPoly, what: str = "polynomial") -> MultiPoly:
        """f, once checked to be a MultiPoly over the ring's generators; errors call it `what`."""
        if not isinstance(f, MultiPoly):
            raise TypeError(f"{what} {f!r} is not a MultiPoly")
        if f.gens != self.gens:
            raise ValueError(f"{what} over {f.gens}, ring over {self.gens}")
        return f

    def _product(self, t1: dict, t2: dict) -> dict:
        """The normal form of the product of two term maps, as a new map."""
        return self._reduce((tuple(map(add, m1, m2)), c1 * c2)
                            for m1, c1 in t1.items() for m2, c2 in t2.items())

    def _reduce(self, pairs: Iterable[tuple[Monomial, Scalar]]) -> dict:
        """The normal form of the sum of (monomial, coefficient) pairs of
        any coefficient type, as a new term map; a monomial may come more
        than once."""
        done: dict = {}
        if self.lead is None:
            for mono, coef in pairs:
                _add_term(done, mono, coef)
            return done
        lead, exponents, powers = self.lead, self._exponents, self._powers
        pending: dict = {}
        rewritten = done if self._one_pass else pending
        # once the pairs run out, take the pending terms until none is left
        drain = iter(lambda: pending.popitem() if pending else None, None)
        for mono, coef in chain(pairs, drain):
            k = min(map(floordiv, compress(mono, lead), exponents))
            if not k:
                _add_term(done, mono, coef)
                continue
            while len(powers) <= k:
                powers.append(_mul(powers[-1], powers[1]))
            for shift, rcoef in powers[k].items():
                _add_term(rewritten, tuple(map(add, mono, shift)), coef * rcoef)
        return done

    def __repr__(self):
        return f"QuotientRing(gens={self.gens!r}, relation={self.relation!r})"
