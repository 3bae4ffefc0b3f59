"""Property tests: the text round trip of polynomials, normal-form
idempotence on C[SL2], and conjugation of partitions as an involution."""

from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.lndcalc import MultiPoly, parse_poly, poly_to_text, sl2_coordinate_ring
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
@given(partitions)
def test_conjugation_is_an_involution(p):
    q = conjugate_partition(p)
    assert conjugate_partition(q) == p
    assert q.total == p.total

