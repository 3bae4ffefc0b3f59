"""Property tests: the text round trip of polynomials, normal forms on
C[SL2] and on random one-relation rings, and conjugation of partitions
as an involution."""

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.lndcalc import (
    MultiPoly,
    QuotientRing,
    parse_poly,
    poly_to_text,
    sl2_coordinate_ring,
)
from orbitkit.partitions import Partition, conjugate_partition

GENS = ("a1", "a2", "b1", "b2")

SMALL = settings(max_examples=25, deadline=None)

coefficients = st.fractions(min_value=-20, max_value=20, max_denominator=12)
monomials = st.tuples(*[st.integers(0, 3)] * len(GENS))


@st.composite
def polynomials(draw):
    terms = draw(st.dictionaries(monomials, coefficients, max_size=6))
    if draw(st.booleans()):
        terms[(0,) * len(GENS)] = draw(coefficients)
    return MultiPoly(GENS, terms)


@st.composite
def one_relation_rings(draw):
    """A ring over 2 or 3 generators with a random nonconstant relation,
    and two elements f, g; exponents stay at most 2."""
    gens = draw(st.sampled_from((("x", "y"), ("x", "y", "z"))))
    small = st.tuples(*[st.integers(0, 2)] * len(gens))
    nonzero = coefficients.filter(bool)

    def poly(min_size=0):
        return MultiPoly(gens, draw(st.dictionaries(small, nonzero, min_size=min_size,
                                                    max_size=4)))

    relation = poly(min_size=1)
    if not any(max(relation.terms)):
        relation = relation + MultiPoly.generator(gens, draw(st.sampled_from(gens)))
    return QuotientRing(gens, relation), poly(), poly()


partitions = st.lists(st.integers(1, 12), max_size=10).map(
    lambda parts: Partition(sorted(parts, reverse=True)))


@SMALL
@given(polynomials())
def test_text_round_trip(p):
    assert parse_poly(poly_to_text(p), GENS) == p


@SMALL
@given(polynomials())
def test_normal_form_idempotent(p):
    ring = sl2_coordinate_ring()
    once = ring.normal_form(p)
    assert ring.normal_form(once) == once


@SMALL
@given(one_relation_rings())
def test_one_relation_normal_form_is_canonical(case):
    ring, f, g = case
    nf_f, nf_g = ring.normal_form(f), ring.normal_form(g)
    assert ring.normal_form(ring.relation).is_zero()
    assert ring.normal_form(nf_f) == nf_f
    assert ring.normal_form(f * g) == ring.normal_form(nf_f * nf_g)


@SMALL
@given(partitions)
def test_conjugation_is_an_involution(p):
    q = conjugate_partition(p)
    assert conjugate_partition(q) == p
    assert q.total == p.total

