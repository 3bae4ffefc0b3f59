"""The coordinate ring of SL2 and its standard unipotent derivations.

Generators a1, a2, b1, b2 are the matrix entries (a1 a2 / b1 b2), and
the ring's one relation is the determinant a1*b2 - a2*b1 - 1, whose
lead a1*b2 rewrites to a2*b1 + 1.
The derivations generated by left multiplication by the lower and upper
triangular unipotent subgroups are

    d1 = a1 d/db1 + a2 d/db2        d2 = b1 d/da1 + b2 d/da2

and the diagonal torus acting by right multiplication scales the first
column by t^-1 and the second by t; its invariants are generated by
u, v and z, the subject of the invariant-ring checks.

`sl2_checks` is the suite `lnd verify` prints; the constants below
state once the facts it checks.
"""

from functools import lru_cache

from .. import RootSystemConsistencyError
from .derivations import (Derivation, KernelMembershipError, NotNilpotentError,
                          degrees_compatible, delta_degree, make_derivation,
                          preserves_relations, verify_semicompatibility_witness)
from .poly import MultiPoly, parse_poly
from .quotient import QuotientRing

__all__ = ["SL2_GENERATORS", "sl2_coordinate_ring", "sl2_standard_derivations",
           "sl2_invariant_generators", "hypersurface_identity_holds",
           "sign_flip_fixes_hypersurface", "verify_invariant_hypersurface", "sl2_checks"]

SL2_GENERATORS = ("a1", "a2", "b1", "b2")

_KERNELS = (("a1", "a2"), ("b1", "b2"))  # generators of ker d1 and of ker d2
_ELEMENT = "a1*b2"  # degree 1 under both d1 and d2
_INVARIANTS = {"u": "a1*a2", "v": "b1*b2", "z": "a2*b1 + 1/2"}
_HYPERSURFACE = "u*v - z^2 + 1/4"


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
            raise RootSystemConsistencyError(f"{name} does not preserve the determinant relation")
    return d1, d2


def sl2_invariant_generators() -> tuple[MultiPoly, MultiPoly, MultiPoly]:
    """Generators u, v, z of the ring of invariants of the diagonal torus action."""
    ring = sl2_coordinate_ring()
    return tuple(ring.element(text) for text in _INVARIANTS.values())


def hypersurface_identity_holds() -> bool:
    """Whether u*v - z^2 + 1/4 vanishes in C[SL2]."""
    images = dict(zip(_INVARIANTS, sl2_invariant_generators()))
    relation = parse_poly(_HYPERSURFACE, _INVARIANTS)
    return sl2_coordinate_ring().normal_form(relation.substitute(images)).is_zero()


def sign_flip_fixes_hypersurface() -> bool:
    """Whether (u,v,z) -> (-u,-v,-z) fixes u*v - z^2 + 1/4 in C[u,v,z]."""
    relation = parse_poly(_HYPERSURFACE, _INVARIANTS)
    flip = {name: -MultiPoly.generator(relation.gens, name) for name in relation.gens}
    return relation.substitute(flip) == relation


def verify_invariant_hypersurface() -> bool:
    """Conjunction of the hypersurface identity in C[SL2] and its
    invariance under the residual sign-flip action."""
    return hypersurface_identity_holds() and sign_flip_fixes_hypersurface()


def sl2_checks(cap: int) -> list[tuple[str, dict, dict, bool]]:
    """The `lnd verify` suite as (anchor, inputs, outputs, passed) tuples.
    A nilpotence degree above `cap` (>= 0) reads ">cap"; degree 0 means
    the element is in the kernel, which is what the memberships read."""
    ring = sl2_coordinate_ring()
    derivations = dict(zip(("d1", "d2"), sl2_standard_derivations()))

    def degree(d, f) -> int | str:
        try:
            return delta_degree(ring, d, f, cap)
        except NotNilpotentError:
            return f">{cap}"

    preserved = dict.fromkeys(derivations, True)  # checked when they were built
    degrees = {f"deg_{label}({name})": degree(d, ring.generator(name))
               for label, d in derivations.items() for name in ring.gens}
    # each derivation kills its kernel generators and moves the other's first one
    kernel1, kernel2 = _KERNELS
    memberships = {f"{g} in ker {label}": degrees[f"deg_{label}({g})"] == 0
                   for label, kernel in zip(derivations, _KERNELS) for g in kernel}
    memberships |= {f"{g} not in ker {label}": degrees[f"deg_{label}({g})"] != 0
                    for label, g in zip(derivations, (kernel2[0], kernel1[0]))}
    witness_inputs = {"kernel1": list(kernel1), "kernel2": list(kernel2), "degree_cap": 3}
    try:
        witness = verify_semicompatibility_witness(
            ring, *derivations.values(), *([ring.generator(g) for g in k] for k in _KERNELS),
            witness_inputs["degree_cap"])
    except KernelMembershipError as exc:
        witness_check = {"equation": str(exc)}, False
    else:
        witness_check = ({"equation": witness.equation(), "found_degree": witness.found_degree},
                         witness.found)
    a = ring.element(_ELEMENT)
    element = {f"deg_{label}({_ELEMENT})": degree(d, a) for label, d in derivations.items()}
    holds, flip_fixed = hypersurface_identity_holds(), sign_flip_fixes_hypersurface()
    return [
        ("determinant relation preserved", {"relation": str(ring.relation)},
         preserved, all(preserved.values())),
        (f"local nilpotence on generators (cap {cap})", {"cap": cap},
         degrees, all(isinstance(v, int) for v in degrees.values())),
        ("kernel memberships", {}, memberships, all(memberships.values())),
        ("semi-compatibility witness", witness_inputs, *witness_check),
        (f"compatibility element {_ELEMENT}", {"a": _ELEMENT},
         element, degrees_compatible(*element.values())),
        ("invariant hypersurface", dict(_INVARIANTS),
         {"identity": f"{_HYPERSURFACE} == 0 in C[SL2]", "reduces_to_zero": holds}, holds),
        ("sign-flip equivariance", {"action": "(u,v,z) -> (-u,-v,-z)"},
         {"fixes_hypersurface": flip_fixed}, flip_fixed),
    ]
