"""Polynomial quotient rings C[gens] / (relation) with one relation.

The relation's lead is its lexicographically largest monomial, and
reduction rewrites the lead as lead - relation / (lead coefficient),
whose every monomial lies below the lead.

Termination: `normal_form` always rewrites the largest monomial left,
and a rewrite adds only monomials below it, so the monomials it takes
strictly decrease.  Lex order on exponent vectors is a well-order, so
this stops.

Confluence: one polynomial is a Groebner basis of the ideal it
generates, so the normal form is the unique remainder of division by
the relation, whatever the order of rewrites: f and g are equal in the
ring exactly when their normal forms are equal.
"""

from fractions import Fraction
from typing import Iterable

from .poly import Monomial, MultiPoly, _add_term, parse_poly

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
        self._replacement = [(m, c * scale) for m, c in relation.terms.items()
                             if m != self.lead]

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
        lead = self.lead
        work = dict(f.terms)
        done: dict[Monomial, Fraction] = {}
        while work:
            mono = max(work)
            coef = work.pop(mono)
            if lead is None or any(a < b for a, b in zip(mono, lead)):
                # rewrites land below the rewritten monomial, so monomials
                # leave `work` in decreasing order and reach `done` once
                done[mono] = coef
                continue
            shift = tuple(a - b for a, b in zip(mono, lead))
            for rmono, rcoef in self._replacement:
                _add_term(work, tuple(a + b for a, b in zip(shift, rmono)), coef * rcoef)
        return MultiPoly(self.gens, done)

    def __repr__(self):
        return f"QuotientRing(gens={self.gens!r}, relation={self.relation!r})"
