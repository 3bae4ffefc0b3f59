"""Polynomial quotient rings C[gens] / (relation) with one relation.

The relation's lead is its lexicographically largest monomial, and
reduction rewrites the lead as R = lead - relation / (lead coefficient),
whose every monomial lies below the lead: a monomial m with lead^k the
largest power of the lead dividing it becomes (m / lead^k) * R^k in one
step.  R's coefficients go through `poly._ints`, so with a monic integer
relation (such as the SL2 determinant) int-coefficient polynomials
reduce to int-coefficient polynomials; Fraction inputs are reduced on
their integer numerators and still give Fractions.

Termination: lex order is a monomial order, so every monomial of R^k
lies below lead^k, and a rewrite replaces a monomial by lex-smaller
ones.  Lex order is a well-order, so any order of rewrites stops.

Confluence: one polynomial is a Groebner basis of the ideal it
generates, so the normal form is the unique remainder of division by
the relation, and reduction is linear, so terms may be merged and taken
in any order: f and g are equal in the ring exactly when their normal
forms are equal.
"""

from operator import add, floordiv, sub
from typing import Iterable

from ..echelon import _add_term
from .poly import Monomial, MultiPoly, _ints, _mul, _numerators, _over, parse_poly

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
        if relation.gens != self.gens:
            raise ValueError(f"relation over {relation.gens}, ring over {self.gens}")
        self.lead = max(relation.terms, default=(0,) * len(self.gens))
        if not any(self.lead):
            raise RelationError(f"relation {relation} is zero or constant")
        scale = -1 / relation.terms[self.lead]
        replacement = _ints({m: c * scale for m, c in relation.terms.items() if m != self.lead})
        self._support = [i for i, e in enumerate(self.lead) if e]
        self._exponents = [self.lead[i] for i in self._support]
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
        if f.gens != self.gens:
            raise ValueError(f"polynomial over {f.gens}, ring over {self.gens}")
        numerators, denominator = _numerators(f.terms)
        return MultiPoly._of(self.gens, _over(self._reduce(numerators), denominator))

    def _reduce(self, terms: dict) -> dict:
        """The normal form of a term map of any coefficient type that the
        caller gives up: it is emptied, or returned if there is no relation."""
        if self.lead is None:
            return terms
        support, exponents, powers = self._support, self._exponents, self._powers
        done: dict = {}
        while terms:
            mono, coef = terms.popitem()
            k = min(map(floordiv, map(mono.__getitem__, support), exponents))
            if not k:
                _add_term(done, mono, coef)
                continue
            while len(powers) <= k:
                powers.append(_mul(powers[-1], powers[1]))
            for shift, rcoef in powers[k].items():
                _add_term(terms, tuple(map(add, mono, shift)), coef * rcoef)
        return done

    def __repr__(self):
        return f"QuotientRing(gens={self.gens!r}, relation={self.relation!r})"
