"""Polynomial quotient rings presented by rewrite rules.

A ring is a generator list plus rules `leading monomial -> replacement
polynomial`.  Reduction repeatedly rewrites the largest reducible
monomial, and terminates because each rule's replacement is strictly
below its leading monomial in the lexicographic term order (validated
at construction).

Caveat: with several rules no confluence check is performed, so normal
forms are canonical only when the rule set happens to be a Groebner
basis for its ideal.  The single-relation rings used here (notably
C[SL2]) are of that kind.
"""

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .poly import Monomial, MultiPoly, _add_term, parse_poly

__all__ = ["QuotientRing", "RelationError"]


class RelationError(ValueError):
    """A rewrite rule violates the termination invariant."""


def _divisible(mono: Monomial, lead: Monomial) -> bool:
    return all(a >= b for a, b in zip(mono, lead))


class QuotientRing:
    """Free polynomial ring over named generators modulo rewrite rules."""

    def __init__(self, gens: Iterable[str],
                 rules: Sequence[tuple[Mapping[str, int] | Monomial, MultiPoly]] = ()):
        self.gens = tuple(gens)
        if len(set(self.gens)) != len(self.gens):
            raise ValueError(f"duplicate generator names in {self.gens}")
        normalized = []
        for lead, replacement in rules:
            if isinstance(lead, Mapping):
                unknown = set(lead) - set(self.gens)
                if unknown:
                    raise ValueError(f"rule names unknown generators {sorted(unknown)}")
                lead = tuple(lead.get(g, 0) for g in self.gens)
            lead = tuple(lead)
            if len(lead) != len(self.gens) or any(e < 0 for e in lead):
                raise ValueError(f"bad leading monomial {lead}")
            if not any(lead):
                raise RelationError("leading monomial must be nonconstant")
            if replacement.gens != self.gens:
                raise ValueError("replacement polynomial is over different generators")
            for mono in replacement.terms:
                if mono >= lead:
                    raise RelationError(
                        f"replacement monomial {mono} is not below the leading"
                        f" monomial {lead}; rewriting would not terminate")
            normalized.append((lead, replacement))
        self.rules = tuple(normalized)

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

    def _rule_for(self, mono: Monomial):
        for lead, replacement in self.rules:
            if _divisible(mono, lead):
                return lead, replacement
        return None

    def normal_form(self, f: MultiPoly) -> MultiPoly:
        """Exhaustively rewrite until no monomial is divisible by a rule
        head.  Idempotent; f minus the result lies in the relation ideal."""
        if f.gens != self.gens:
            raise ValueError(f"polynomial over {f.gens}, ring over {self.gens}")
        work = dict(f.terms)
        done: dict[Monomial, Fraction] = {}
        while work:
            mono = max(work)
            coef = work.pop(mono)
            rule = self._rule_for(mono)
            if rule is None:
                # rewrites land below the rewritten monomial, so monomials
                # leave `work` in decreasing order and reach `done` once
                done[mono] = coef
                continue
            lead, replacement = rule
            shift = tuple(a - b for a, b in zip(mono, lead))
            for rmono, rcoef in replacement.terms.items():
                _add_term(work, tuple(a + b for a, b in zip(shift, rmono)), coef * rcoef)
        return MultiPoly(self.gens, done)

    def __repr__(self):
        heads = [str(MultiPoly(self.gens, {lead: 1})) for lead, _ in self.rules]
        return f"QuotientRing(gens={self.gens!r}, rule_heads={heads!r})"
