import random
from fractions import Fraction

import pytest

from orbitkit.lndcalc import (
    KernelMembershipError,
    MultiPoly,
    NotNilpotentError,
    QuotientRing,
    RelationError,
    apply_derivation,
    degrees_compatible,
    delta_degree,
    diagonal_torus_weight,
    hypersurface_identity_holds,
    is_in_kernel,
    make_derivation,
    parse_poly,
    preserves_relations,
    sign_flip_fixes_hypersurface,
    sl2_coordinate_ring,
    sl2_invariant_generators,
    sl2_standard_derivations,
    verify_compatibility_condition2,
    verify_invariant_hypersurface,
    verify_semicompatibility_witness,
)


@pytest.fixture(scope="module")
def ring():
    return sl2_coordinate_ring()


@pytest.fixture(scope="module")
def derivations():
    return sl2_standard_derivations()


def random_reduced(ring, rng, max_terms=4, max_exp=2, coef=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in ring.gens)
        terms[mono] = rng.randint(-coef, coef)
    return ring.normal_form(MultiPoly(ring.gens, terms))


class TestQuotientRing:
    def test_determinant_rewrite(self, ring):
        assert str(ring.element("a1*b2")) == "a2*b1 + 1"
        assert str(ring.element("5")) == "5"
        assert str(ring.element("a1")) == "a1"

    def test_relation_reduces_to_zero(self, ring):
        assert ring.normal_form(ring.parse("a1*b2 - a2*b1 - 1")).is_zero()

    def test_iterated_rewrite(self, ring):
        assert str(ring.element("a1*b2*a1*b2")) == "a2^2*b1^2 + 2*a2*b1 + 1"

    def test_one_step_example(self, ring):
        assert str(ring.element("a1*b2 + a2*b1")) == "2*a2*b1 + 1"

    def test_idempotence_on_random_inputs(self, ring):
        rng = random.Random(20260811)
        for _ in range(120):
            p = MultiPoly(ring.gens, {
                tuple(rng.randint(0, 5) for _ in ring.gens): rng.randint(-4, 4)
                for _ in range(rng.randint(0, 5))})
            nf = ring.normal_form(p)
            assert ring.normal_form(nf) == nf
            # the difference lies in the relation ideal: reducing it gives 0
            assert ring.normal_form(p - nf).is_zero()

    def test_normal_form_has_no_rule_head(self, ring):
        rng = random.Random(7)
        assert ring.lead == (1, 0, 0, 1)
        for _ in range(50):
            nf = random_reduced(ring, rng, max_exp=3)
            for mono in nf.terms:
                assert not all(a >= b for a, b in zip(mono, ring.lead))

    def test_zero_or_constant_relation_rejected(self):
        gens = ("x", "y")
        for relation in (MultiPoly.zero(gens), MultiPoly.constant(gens, 3)):
            with pytest.raises(RelationError):
                QuotientRing(gens, relation)

    def test_relation_over_other_generators_rejected(self):
        with pytest.raises(ValueError):
            QuotientRing(("x", "y"), parse_poly("x - y", ("x", "y", "z")))

    def test_lead_is_lex_largest_monomial(self):
        gens = ("x", "y")
        for text in ("y^3 - x", "-x + y^3", "x - y^3"):
            ring = QuotientRing(gens, parse_poly(text, gens))
            assert ring.lead == (1, 0)
            assert str(ring.element("x^2*y")) == "y^7"

    def test_lead_coefficient_normalised(self):
        gens = ("x", "y")
        ring = QuotientRing(gens, parse_poly("-y^2 + 2*x*y - 2", gens))
        assert ring.lead == (1, 1)
        assert str(ring.element("x*y")) == "1/2*y^2 + 1"
        assert ring.normal_form(ring.relation).is_zero()

    def test_gen_mismatch(self, ring):
        with pytest.raises(ValueError):
            ring.normal_form(MultiPoly.generator(("x",), "x"))


class TestDerivations:
    def test_images(self, ring, derivations):
        d1, d2 = derivations
        assert apply_derivation(ring, d1, ring.generator("b1")) == ring.generator("a1")
        assert apply_derivation(ring, d1, ring.generator("a1")).is_zero()
        assert apply_derivation(ring, d2, ring.generator("b2")).is_zero()

    def test_leibniz_on_example(self, ring, derivations):
        _, d2 = derivations
        assert str(apply_derivation(ring, d2, ring.element("a1*b2"))) == "b1*b2"

    def test_constants_killed(self, ring, derivations):
        d1, _ = derivations
        assert apply_derivation(ring, d1, ring.one()).is_zero()

    def test_relation_preservation(self, ring, derivations):
        d1, d2 = derivations
        assert preserves_relations(ring, d1)
        assert preserves_relations(ring, d2)

    def test_non_preserving_derivation_detected(self, ring):
        d = make_derivation(ring, a1="a1")
        assert not preserves_relations(ring, d)

    def test_leibniz_sum_builds_no_throwaway_polynomials(self, ring, derivations,
                                                         monkeypatch):
        d1, _ = derivations
        f = ring.element("a1*b1^2 + a2*b1*b2 + b2^3")
        built = []
        init = MultiPoly.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(MultiPoly, "__init__", counting_init)
        result = apply_derivation(ring, d1, f)
        assert len(built) == 2  # the Leibniz sum and its normal form
        monkeypatch.undo()
        assert str(result) == "2*a1^2*b1 + 2*a2^2*b1 + 3*a2*b2^2 + a2"

    def test_leibniz_rule_sampled(self, ring, derivations):
        rng = random.Random(424242)
        checked = 0
        for _ in range(100):
            f = random_reduced(ring, rng)
            g = random_reduced(ring, rng)
            for d in derivations:
                lhs = apply_derivation(ring, d, ring.normal_form(f * g))
                rhs = ring.normal_form(
                    apply_derivation(ring, d, f) * g + f * apply_derivation(ring, d, g))
                assert lhs == rhs
                checked += 1
        assert checked >= 100

    def test_unknown_image_rejected(self, ring):
        with pytest.raises(ValueError):
            make_derivation(ring, c1="a1")


class TestDeltaDegree:
    def test_kernel_elements_have_degree_zero(self, ring, derivations):
        d1, _ = derivations
        assert delta_degree(ring, d1, ring.generator("a1")) == 0

    def test_compatibility_element(self, ring, derivations):
        d1, d2 = derivations
        f = ring.element("a1*b2")
        assert delta_degree(ring, d1, f) == 1
        assert delta_degree(ring, d2, f) == 1

    def test_square_of_b1(self, ring, derivations):
        d1, _ = derivations
        assert delta_degree(ring, d1, ring.element("b1^2")) == 2

    def test_cap_boundary(self, ring, derivations):
        # a cap certifies degree <= cap; the error comes only when
        # d^(cap+1) is still nonzero
        d1, _ = derivations
        f = ring.element("b1^2")
        assert delta_degree(ring, d1, f, cap=2) == 2
        with pytest.raises(NotNilpotentError, match="within 2 applications") as info:
            delta_degree(ring, d1, f, cap=1)
        assert info.value.cap == 1
        assert "cap 1" in str(info.value)

    def test_zero_input_rejected(self, ring, derivations):
        d1, _ = derivations
        with pytest.raises(ValueError):
            delta_degree(ring, d1, ring.parse("a1*b2 - a2*b1 - 1"))

    def test_cap_exceeded(self):
        free = QuotientRing(("x",))
        euler = make_derivation(free, x="x")  # x -> x is not locally nilpotent
        with pytest.raises(NotNilpotentError):
            delta_degree(free, euler, free.generator("x"), cap=10)

    def test_generators_nilpotent_within_cap_4(self, ring, derivations):
        for d in derivations:
            for name in ring.gens:
                assert delta_degree(ring, d, ring.generator(name), cap=4) <= 1

    def test_degree_additivity_sampled(self, ring, derivations):
        # C[SL2] is a domain, so degrees add on products
        d1, _ = derivations
        rng = random.Random(31337)
        checked = 0
        while checked < 50:
            f = random_reduced(ring, rng, max_terms=3, max_exp=1)
            g = random_reduced(ring, rng, max_terms=3, max_exp=1)
            fg = ring.normal_form(f * g)
            if f.is_zero() or g.is_zero() or fg.is_zero():
                continue
            assert delta_degree(ring, d1, fg) == \
                delta_degree(ring, d1, f) + delta_degree(ring, d1, g)
            checked += 1


class TestKernels:
    def test_memberships(self, ring, derivations):
        d1, d2 = derivations
        assert is_in_kernel(ring, d1, ring.generator("a1"))
        assert is_in_kernel(ring, d1, ring.generator("a2"))
        assert not is_in_kernel(ring, d1, ring.generator("b1"))
        assert is_in_kernel(ring, d2, ring.element("b1*b2"))

    def test_products_have_small_degrees(self, ring, derivations):
        d1, d2 = derivations
        for a in ("a1", "a2"):
            for b in ("b1", "b2"):
                f = ring.element(f"{a}*{b}")
                assert delta_degree(ring, d1, f) <= 1
                assert delta_degree(ring, d2, f) <= 1


class TestWitnessSearch:
    def test_sl2_witness(self, ring, derivations):
        d1, d2 = derivations
        k1 = [ring.generator("a1"), ring.generator("a2")]
        k2 = [ring.generator("b1"), ring.generator("b2")]
        report = verify_semicompatibility_witness(ring, d1, d2, k1, k2)
        assert report.found
        assert report.equation() == "1 = a1*b2 - a2*b1"
        assert report.found_degree == 2

    @pytest.mark.parametrize("kernel1, kernel2, equation", [
        (["2*a1", "3*a2"], ["b1", "b2"], "1 = 1/2*2*a1*b2 - 1/3*3*a2*b1"),
        (["a2", "a1"], ["2*b2", "b1"], "1 = -a2*b1 + 1/2*a1*2*b2"),
        (["2*a1 + a2", "a1 - a2"], ["b1", "3*b2"],
         "1 = -1/3*(2*a1 + a2)*b1 + 1/9*(2*a1 + a2)*3*b2"
         " + 2/3*(a1 - a2)*b1 + 1/9*(a1 - a2)*3*b2"),
    ], ids=["scaled", "reordered", "mixed"])
    def test_equation_with_non_unit_coefficients(self, ring, derivations,
                                                 kernel1, kernel2, equation):
        d1, d2 = derivations
        report = verify_semicompatibility_witness(
            ring, d1, d2, [ring.element(t) for t in kernel1],
            [ring.element(t) for t in kernel2])
        assert report.equation() == equation

    def test_witness_combination_evaluates_to_one(self, ring, derivations):
        d1, d2 = derivations
        k1 = [ring.generator("a1"), ring.generator("a2")]
        k2 = [ring.generator("b1"), ring.generator("b2")]
        report = verify_semicompatibility_witness(ring, d1, d2, k1, k2)
        total = ring.zero()
        for term in report.combination:
            total = total + term.coefficient * (term.left * term.right)
        assert ring.normal_form(total) == ring.one()

    def test_not_found_at_degree_3(self, ring, derivations):
        d1, d2 = derivations
        report = verify_semicompatibility_witness(
            ring, d1, d2, [ring.generator("a1")], [ring.generator("b1")])
        assert not report.found
        assert report.degree_cap == 3
        assert "not found" in report.equation()

    def test_trivial_ring(self):
        free = QuotientRing(("x",))
        zero = make_derivation(free)
        report = verify_semicompatibility_witness(free, zero, zero,
                                                  [free.one()], [free.one()])
        assert report.found and report.equation() == "1 = 1*1"

    def test_membership_precondition_checked(self, ring, derivations):
        d1, d2 = derivations
        with pytest.raises(KernelMembershipError, match="b1"):
            verify_semicompatibility_witness(
                ring, d1, d2, [ring.generator("b1")], [ring.generator("b1")])


class TestCompatibility:
    def test_a1b2_satisfies_condition(self, ring, derivations):
        d1, d2 = derivations
        assert verify_compatibility_condition2(ring, d1, d2, ring.element("a1*b2"))

    def test_kernel_element_fails(self, ring, derivations):
        d1, d2 = derivations
        assert not verify_compatibility_condition2(ring, d1, d2, ring.generator("a1"))

    def test_high_degree_fails(self, ring, derivations):
        d1, d2 = derivations
        assert not verify_compatibility_condition2(ring, d1, d2, ring.element("b1^2"))

    @pytest.mark.parametrize("deg1,deg2,holds", [
        (1, 1, True), (1, 0, True), (0, 1, False), (2, 0, False), (1, 2, False),
        (1, ">4", False), (">4", 1, False), (">0", ">0", False),
    ])
    def test_rule_on_degrees(self, deg1, deg2, holds):
        # the CLI passes ">cap" text for degrees it could not certify
        assert degrees_compatible(deg1, deg2) is holds


class TestTorusAction:
    def test_invariant_generators_have_weight_zero(self, ring):
        u, v, z = sl2_invariant_generators()
        assert diagonal_torus_weight(u) == 0
        assert diagonal_torus_weight(v) == 0
        assert diagonal_torus_weight(z) == 0

    def test_single_generators(self, ring):
        assert diagonal_torus_weight(ring.generator("a1")) == -1
        assert diagonal_torus_weight(ring.generator("b2")) == 1

    def test_non_homogeneous_flagged(self, ring):
        assert diagonal_torus_weight(ring.element("a1 + a2")) is None

    def test_weights_add_under_product(self, ring):
        # the determinant relation has weight 0, so reduction preserves
        # weights and they add on products of homogeneous elements
        rng = random.Random(99)
        monos = [MultiPoly(ring.gens, {tuple(rng.randint(0, 2) for _ in ring.gens): 1})
                 for _ in range(60)]
        checked = 0
        for f, g in zip(monos[::2], monos[1::2]):
            wf, wg = diagonal_torus_weight(f), diagonal_torus_weight(g)
            prod = ring.normal_form(f * g)
            if prod.is_zero():
                continue
            w = diagonal_torus_weight(prod)
            assert w is not None and w == wf + wg
            checked += 1
        assert checked >= 25

    def test_hypersurface_identity(self, ring):
        u, v, z = sl2_invariant_generators()
        assert ring.normal_form(u * v - z * z + ring.constant(Fraction(1, 4))).is_zero()
        assert hypersurface_identity_holds()
        assert sign_flip_fixes_hypersurface()
        assert verify_invariant_hypersurface()

    def test_z_shift_sanity(self, ring):
        assert str(ring.element("a2*b1 + 1/2 - 1/2")) == "a2*b1"


def test_no_whole_polynomial_re_adding(ring, derivations, monkeypatch):
    # each of these accumulates its terms into one map and builds one
    # polynomial at the end, instead of re-adding a growing result per term
    f = ring.element("a1^2*b1 - 3*a2*b1^2 + 1/2*b2 + 5")
    gens = ("u", "v", "z")
    relation = parse_poly("u*v - z^2 + 1/4", gens)
    flip = {name: -MultiPoly.generator(gens, name) for name in gens}

    def forbidden(self, other):
        raise AssertionError("MultiPoly.__add__ called")

    monkeypatch.setattr(MultiPoly, "__add__", forbidden)
    for d in derivations:
        assert not apply_derivation(ring, d, f).is_zero()
    assert len(parse_poly("a1^2*b1 - 3*a2*b1^2 + 1/2*b2 + 5", ring.gens).terms) == 4
    assert len(relation.substitute(flip).terms) == 3
