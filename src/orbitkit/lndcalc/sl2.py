"""The coordinate ring of SL2 and its standard unipotent derivations.

Generators a1, a2, b1, b2 are the matrix entries (a1 a2 / b1 b2), and
the ring's one relation is the determinant a1*b2 - a2*b1 - 1, whose
lead a1*b2 rewrites to a2*b1 + 1.
The derivations generated by left multiplication by the lower and upper
triangular unipotent subgroups are

    d1 = a1 d/db1 + a2 d/db2        d2 = b1 d/da1 + b2 d/da2

and the diagonal torus acting by right multiplication scales the first
column by t^-1 and the second by t, giving the generator weights used
for the invariant-ring checks.
"""

from fractions import Fraction
from functools import lru_cache

from .derivations import Derivation, make_derivation, preserves_relations
from .poly import MultiPoly, parse_poly
from .quotient import QuotientRing

__all__ = [
    "SL2_GENERATORS",
    "DIAGONAL_TORUS_WEIGHTS",
    "sl2_coordinate_ring",
    "sl2_standard_derivations",
    "sl2_invariant_generators",
    "diagonal_torus_weight",
    "hypersurface_identity_holds",
    "sign_flip_fixes_hypersurface",
    "verify_invariant_hypersurface",
]

SL2_GENERATORS = ("a1", "a2", "b1", "b2")

DIAGONAL_TORUS_WEIGHTS = {"a1": -1, "a2": 1, "b1": -1, "b2": 1}


@lru_cache(maxsize=1)
def sl2_coordinate_ring() -> QuotientRing:
    """C[SL2] = C[a1,a2,b1,b2] / (a1*b2 - a2*b1 - 1)."""
    return QuotientRing(SL2_GENERATORS, parse_poly("a1*b2 - a2*b1 - 1", SL2_GENERATORS))


@lru_cache(maxsize=1)
def sl2_standard_derivations() -> tuple[Derivation, Derivation]:
    """The pair (d1, d2) of locally nilpotent derivations above; both
    are checked to preserve the determinant relation."""
    ring = sl2_coordinate_ring()
    d1 = make_derivation(ring, b1="a1", b2="a2")
    d2 = make_derivation(ring, a1="b1", a2="b2")
    for name, d in (("d1", d1), ("d2", d2)):
        if not preserves_relations(ring, d):
            # imported here, not at the top: only this path needs the
            # root-system module, and loading it slows every lndcalc start-up
            from ..rootsys import RootSystemConsistencyError
            raise RootSystemConsistencyError(f"{name} does not preserve the determinant relation")
    return d1, d2


def sl2_invariant_generators() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Generators u = a1*a2, v = b1*b2, z = a2*b1 + 1/2 of the ring of
    invariants of the diagonal torus action."""
    ring = sl2_coordinate_ring()
    return ring.element("a1*a2"), ring.element("b1*b2"), ring.element("a2*b1 + 1/2")


def diagonal_torus_weight(f: MultiPoly) -> int | None:
    """Common torus weight of all monomials of f, or None when f is not
    homogeneous.  The zero polynomial is homogeneous of weight 0."""
    if set(f.gens) - set(SL2_GENERATORS):
        raise ValueError(f"expected a polynomial over {SL2_GENERATORS}, got {f.gens}")
    weights = [DIAGONAL_TORUS_WEIGHTS[g] for g in f.gens]
    seen = {sum(e * w for e, w in zip(mono, weights)) for mono in f.terms}
    if not seen:
        return 0
    if len(seen) > 1:
        return None
    return seen.pop()


def hypersurface_identity_holds() -> bool:
    """Whether u*v - z^2 + 1/4 vanishes in C[SL2]."""
    ring = sl2_coordinate_ring()
    u, v, z = sl2_invariant_generators()
    return ring.normal_form(u * v - z * z + ring.constant(Fraction(1, 4))).is_zero()


def sign_flip_fixes_hypersurface() -> bool:
    """Whether (u,v,z) -> (-u,-v,-z) fixes u*v - z^2 + 1/4 in C[u,v,z]."""
    gens = ("u", "v", "z")
    relation = parse_poly("u*v - z^2 + 1/4", gens)
    flip = {name: -MultiPoly.generator(gens, name) for name in gens}
    return relation.substitute(flip) == relation


def verify_invariant_hypersurface() -> bool:
    """Conjunction of the hypersurface identity in C[SL2] and its
    invariance under the residual sign-flip action."""
    return hypersurface_identity_holds() and sign_flip_fixes_hypersurface()
