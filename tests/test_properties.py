"""Property tests: the text round trip of polynomials, normal forms on
C[SL2] and on random one-relation rings (against a largest-first
reference rewrite, and of unmerged term streams and products against
normal_form), the witness search on random one-relation rings
against a Fraction rank, the partition constructor's validation, and
conjugation of partitions as an involution."""

import re
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations_with_replacement

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitkit.lndcalc import (
    MultiPoly,
    QuotientRing,
    make_derivation,
    parse_poly,
    poly_to_text,
    sl2_coordinate_ring,
    verify_semicompatibility_witness,
)
from orbitkit.partitions import Partition, conjugate_partition

import test_lndcalc

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
@given(one_relation_rings())
def test_streamed_pairs_reduce_like_their_sum(case):
    # the pairs come unmerged: f's terms twice, then g's terms
    ring, f, g = case
    pairs = chain(f.terms.items(), f.terms.items(), g.terms.items())
    assert ring._reduce(pairs) == ring.normal_form(f + f + g).terms
    assert ring._product(f.terms, g.terms) == ring.normal_form(f * g).terms


def largest_first_normal_form(ring, f) -> dict:
    """The reference rewrite: always take the largest monomial left and,
    when the relation's lead divides it, replace one copy of the lead by
    lead - relation / (lead coefficient).  Rewrites land below the
    rewritten monomial, so each irreducible monomial is taken once."""
    lead, relation = ring.lead, ring.relation.terms
    replacement = [(m, -c / relation[lead]) for m, c in relation.items() if m != lead]
    work, done = dict(f.terms), {}
    while work:
        mono = max(work)
        coef = work.pop(mono)
        if any(a < b for a, b in zip(mono, lead)):
            done[mono] = coef
            continue
        for rmono, rcoef in replacement:
            key = tuple(a - b + r for a, b, r in zip(mono, lead, rmono))
            work[key] = work.get(key, 0) + coef * rcoef
            if not work[key]:
                del work[key]
    return done


@SMALL
@given(one_relation_rings())
def test_one_relation_normal_form_matches_largest_first(case):
    # products of three elements reach exponent 6, so a monomial can hold
    # the lead several times over
    ring, f, g = case
    for p in (f, f * g, f * g * g):
        assert ring.normal_form(p).terms == largest_first_normal_form(ring, p)


def fraction_rank(vectors) -> int:
    """Rank of polynomials as coefficient vectors: Gauss-Jordan
    elimination over Fraction on a dense matrix, one column per monomial."""
    columns = sorted({m for v in vectors for m in v.terms})
    rows = [[Fraction(v.terms.get(m, 0)) for m in columns] for v in vectors]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        head = rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                factor = rows[r][col] / head[col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], head)]
        rank += 1
    return rank


@SMALL
@given(one_relation_rings(), st.data())
def test_witness_search_against_fraction_rank(case, data):
    # under the zero derivation every element is in the kernel, so any
    # kernel sets are valid; the search's answer is checked against the
    # span of all the products it may use, built here with Fraction.
    # Random sets rarely reach 1, so half the cases take f, f + c1 and
    # g, g^e + c2, whose products reach c1*c2 at total 1 + e; f and g get
    # monomials u and v with u*v the relation's lead, so their products
    # are rewritten by the relation.
    ring, f, g = case
    if data.draw(st.booleans()):
        u = tuple(data.draw(st.integers(0, e)) for e in ring.lead)
        v = tuple(e - a for e, a in zip(ring.lead, u))
        f, g = f + MultiPoly(ring.gens, {u: 1}), g + MultiPoly(ring.gens, {v: 1})
        c1, c2 = (data.draw(coefficients.filter(bool)) for _ in range(2))
        kernel1, kernel2 = [f, f + c1], [g, g ** data.draw(st.integers(1, 2)) + c2]
    else:
        small = st.tuples(*[st.integers(0, 1)] * len(ring.gens))
        elements = st.dictionaries(small, coefficients.filter(bool), min_size=1,
                                   max_size=3).map(lambda terms: MultiPoly(ring.gens, terms))
        kernel1 = [f] + data.draw(st.lists(elements, max_size=1))
        kernel2 = [g] + data.draw(st.lists(elements, max_size=1))
    cap = data.draw(st.integers(1, 2))
    zero = make_derivation(ring)
    report = verify_semicompatibility_witness(ring, zero, zero, kernel1, kernel2, cap)
    if report.found:
        total = ring.zero()
        for term in report.combination:
            assert type(term.coefficient) is Fraction
            test_lndcalc.TestTrustedConstruction.assert_canonical(term.left)
            test_lndcalc.TestTrustedConstruction.assert_canonical(term.right)
            total = total + term.coefficient * (term.left * term.right)
        assert ring.normal_form(total) == ring.one()
        return

    def products(kernel):
        return [ring.normal_form(reduce(lambda p, q: p * q, factors))
                for d in range(1, cap + 1)
                for factors in combinations_with_replacement(kernel, d)]

    span = [ring.normal_form(p * q) for p in products(kernel1) for q in products(kernel2)]
    assert fraction_rank(span + [ring.one()]) == fraction_rank(span) + 1


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-2, 8), max_size=8))
def test_partition_rejects_exactly_the_invalid_lists(parts):
    # first index whose part is nonpositive or larger than its predecessor
    bad = next((i for i, p in enumerate(parts) if p < 1 or (i and parts[i - 1] < p)),
               None)
    if bad is None:
        assert Partition(parts).parts == tuple(parts)
        return
    if parts[bad] < 1:
        message = f"parts must be positive, got {parts[bad]}"
    else:
        message = f"parts must be weakly decreasing: {tuple(parts)}"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        Partition(parts)


@SMALL
@given(partitions)
def test_conjugation_is_an_involution(p):
    q = conjugate_partition(p)
    assert conjugate_partition(q) == p
    assert q.total == p.total

