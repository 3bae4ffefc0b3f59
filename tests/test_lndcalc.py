import hashlib
import random
from fractions import Fraction
from itertools import product

import pytest

from orbitkit import lndcalc
from orbitkit.echelon import rank
from orbitkit.lndcalc import sl2
from orbitkit.lndcalc import (
    Derivation,
    KernelMembershipError,
    MultiPoly,
    NotNilpotentError,
    QuotientRing,
    RelationError,
    WitnessReport,
    apply_derivation,
    degrees_compatible,
    delta_degree,
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
from orbitkit.rootsys import LieType, group_dimension
from perfbench import oracles


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


def random_raw(ring, rng, rational, max_degree=12, max_terms=8):
    """An unreduced polynomial with monomials of degree at most max_degree
    and nonzero integral coefficients, or rational ones when rational."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = [0] * len(ring.gens)
        for _ in range(rng.randint(0, max_degree)):
            mono[rng.randrange(len(mono))] += 1
        c = rng.choice((-1, 1)) * rng.randint(1, 9)
        terms[tuple(mono)] = Fraction(c, rng.randint(1, 6)) if rational else c
    return MultiPoly(ring.gens, terms)


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

    @pytest.mark.parametrize("rational", [False, True], ids=["int", "Fraction"])
    def test_normal_form_matches_closed_form(self, ring, rational):
        # the oracle reduces with (a1*b2)^m = (a2*b1 + 1)^m and shares no
        # code with the rewriting
        rng = random.Random(2500 + rational)
        for _ in range(60):
            f = random_raw(ring, rng, rational)
            assert ring.normal_form(f).terms == oracles.normal_form(f.terms)

    def test_normal_form_has_no_rule_head(self, ring):
        rng = random.Random(7)
        assert ring.lead == (1, 0, 0, 1)
        for _ in range(50):
            nf = random_reduced(ring, rng, max_exp=3)
            for mono in nf.terms:
                assert not all(a >= b for a, b in zip(mono, ring.lead))

    def test_ring_that_is_not_one_pass(self):
        # the replacement x*y + 1 uses x, a generator of the lead x^2, so a
        # rewrite of x^3 gives x^2*y, which holds the lead again
        gens = ("x", "y")
        other = QuotientRing(gens, parse_poly("x^2 - x*y - 1", gens))
        assert str(other.element("x^3")) == "x*y^2 + x + y"
        assert str(other.element("x^4")) == "x*y^3 + 2*x*y + y^2 + 1"
        assert not other._one_pass

    def test_one_pass_rings(self, ring):
        # no monomial of the replacement uses a generator of the lead
        assert ring._one_pass
        for gens, relation, *_ in WITNESS_CASES_OTHER:
            assert QuotientRing(gens, parse_poly(relation, gens))._one_pass

    def test_relation_that_is_not_a_polynomial_rejected(self):
        # raised "'str' object has no attribute 'gens'"
        with pytest.raises(TypeError, match="relation 'x' is not a MultiPoly"):
            QuotientRing(("x",), "x")

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

    def test_duplicate_generator_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate generator names"):
            QuotientRing(("x", "y", "x"))

    def test_repr_shows_generators_and_relation(self, ring):
        assert repr(ring) == ("QuotientRing(gens=('a1', 'a2', 'b1', 'b2'), relation="
                              "MultiPoly(('a1', 'a2', 'b1', 'b2'), 'a1*b2 - a2*b1 - 1'))")

    def test_gen_mismatch(self, ring):
        with pytest.raises(ValueError):
            ring.normal_form(MultiPoly.generator(("x",), "x"))


def sl2_dimension(k):
    """dim C[SL2]_{<=k}, the standard monomials (no a1*b2) of degree <= k."""
    return (k + 1) * (k + 2) * (2 * k + 3) // 6


def integral(p):
    """p's terms as ints, after checking that every coefficient is integral."""
    assert all(c.denominator == 1 for c in p.terms.values()), p
    return {m: int(c) for m, c in p.terms.items()}


class TestClosedForms:
    """Counts on C[SL2] with closed forms, oracles for normal_form and
    echelon.rank that share no code with them."""

    @staticmethod
    def monomials(ring, k, standard=False):
        """x^m of degree <= k; only those that a1*b2 does not divide when standard."""
        return [MultiPoly(ring.gens, {m: 1}) for m in product(range(k + 1), repeat=4)
                if sum(m) <= k and not (standard and m[0] and m[3])]

    def test_filtration_dimensions(self, ring):
        dims = [rank(integral(ring.normal_form(x)) for x in self.monomials(ring, k))
                for k in range(8)]
        assert dims == [sl2_dimension(k) for k in range(8)] == [1, 5, 14, 30, 55, 91, 140, 204]

    def test_tangent_field_counts(self, ring):
        # (f_i) of degree <= d is tangent when sum f_i * dF/dx_i = 0: the
        # kernel of a map into C[SL2]_{<=d+1}, which is onto for these d
        partials = [ring.element(p) for p in ("b2", "-b1", "-a2", "a1")]
        counts = []
        for d in range(1, 8):
            standard = self.monomials(ring, d, standard=True)
            assert len(standard) == sl2_dimension(d)
            images = rank(integral(ring.normal_form(s * p)) for s in standard for p in partials)
            counts.append(4 * sl2_dimension(d) - images)
        assert counts == [4 * sl2_dimension(d) - sl2_dimension(d + 1)
                          for d in range(1, 8)] == [6, 26, 65, 129, 224, 356, 531]
        # the linear fields are the Lie algebra of SL2 x SL2 acting by left
        # and right multiplication: dim VF<=1 = dim G, counted by rootsys
        assert counts[0] == 2 * group_dimension(LieType("A", 1))


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
        init, of = MultiPoly.__init__, MultiPoly._of.__func__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        def counting_of(cls, *args):
            built.append(args)
            return of(cls, *args)

        # count both the checked and the trusted constructor
        monkeypatch.setattr(MultiPoly, "__init__", counting_init)
        monkeypatch.setattr(MultiPoly, "_of", classmethod(counting_of))
        result = apply_derivation(ring, d1, f)
        assert len(built) == 1  # the result; the Leibniz sum is a plain term map
        monkeypatch.undo()
        assert str(result) == "2*a1^2*b1 + 2*a2^2*b1 + 3*a2*b2^2 + a2"

    @pytest.mark.parametrize("rational", [False, True], ids=["int", "Fraction"])
    def test_derivations_match_closed_form(self, ring, derivations, rational):
        # the oracle differentiates d1 = a1 d/db1 + a2 d/db2 and
        # d2 = b1 d/da1 + b2 d/da2 by hand, then reduces in closed form
        rng = random.Random(2510 + rational)
        for _ in range(60):
            f = random_raw(ring, rng, rational)
            for which, d in enumerate(derivations, 1):
                assert apply_derivation(ring, d, f).terms == oracles.derive(f.terms, which)

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

    @pytest.mark.parametrize("image", [1.5, None, b"a1", ["a1"], True, False])
    def test_image_of_other_type_rejected(self, ring, image):
        with pytest.raises(TypeError, match="not a MultiPoly, str, int or Fraction"):
            make_derivation(ring, a1=image)

    def test_polynomial_over_fewer_generators_rejected(self, ring, derivations):
        d1, _ = derivations
        with pytest.raises(ValueError, match=r"polynomial over \('b1',\), ring over"):
            is_in_kernel(ring, d1, MultiPoly(("b1",), {(1,): 1}))

    def test_polynomial_over_more_generators_rejected(self, ring, derivations):
        d1, _ = derivations
        with pytest.raises(ValueError, match="polynomial over .*'c1'.*, ring over"):
            apply_derivation(ring, d1, MultiPoly.generator(ring.gens + ("c1",), "c1"))

    def test_direct_construction_checks_images(self):
        gens = ("x", "y")
        x, y = (MultiPoly.generator(gens, g) for g in gens)
        with pytest.raises(ValueError, match=r"no image for generators \['y'\]"):
            Derivation(gens, {"x": y})
        with pytest.raises(ValueError, match="image given for unknown generator 'z'"):
            Derivation(gens, {"x": y, "y": x, "z": x})
        with pytest.raises(ValueError, match="image of 'y' is over different generators"):
            Derivation(gens, {"x": y, "y": MultiPoly.generator(("y",), "y")})

    @pytest.mark.parametrize("name", ["images", "ring"])
    def test_generator_may_share_a_parameter_name(self, name):
        free = QuotientRing((name, "y"))
        d = make_derivation(free, **{name: "y"})
        assert {g: str(image) for g, image in d.images.items()} == {name: "y", "y": "0"}

    def test_direct_construction_refuses_images_that_are_not_polynomials(self, ring):
        # a text image raised "'str' object has no attribute 'gens'"
        with pytest.raises(TypeError, match="image 'a1' of 'a1' is not a MultiPoly"):
            Derivation(ring.gens, {g: "a1" for g in ring.gens})

    @pytest.mark.parametrize("entry", ["normal_form", "apply_derivation", "delta_degree",
                                       "witness"])
    def test_elements_that_are_not_polynomials_refused(self, ring, derivations, entry):
        # each raised "'str' object has no attribute 'gens'"
        d1, d2 = derivations
        call = {"normal_form": lambda: ring.normal_form("a1"),
                "apply_derivation": lambda: apply_derivation(ring, d1, "a1"),
                "delta_degree": lambda: delta_degree(ring, d1, "a1"),
                "witness": lambda: verify_semicompatibility_witness(ring, d1, d2, ["a1"], ["b1"])}
        with pytest.raises(TypeError, match="'a1' is not a MultiPoly"):
            call[entry]()

    def test_derivation_of_another_ring_rejected(self, ring):
        free = QuotientRing(("x", "y"))
        d = make_derivation(free, x="y")
        with pytest.raises(ValueError, match=r"derivation over \('x', 'y'\), ring over"):
            apply_derivation(ring, d, ring.generator("a1"))


class TestTrustedConstruction:
    """Results the package computes are built without the checks in
    `MultiPoly.__init__`; they must equal the checked ones exactly, with
    nonzero Fraction coefficients, the type `str()` prints."""

    @staticmethod
    def assert_canonical(p):
        assert p == MultiPoly(p.gens, p.terms)
        for mono, coef in p.terms.items():
            assert type(mono) is tuple and len(mono) == len(p.gens)
            assert all(type(e) is int and e >= 0 for e in mono)
            assert type(coef) is Fraction and coef != 0

    def test_results_equal_checked(self, ring, derivations):
        rng = random.Random(16016)
        for _ in range(60):
            c = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
            f = random_reduced(ring, rng) * c
            g = random_reduced(ring, rng)
            results = [f + g, f - g, -f, f + (-f), f * g, f ** rng.randint(0, 4),
                       f ** 7, (f * c) ** 5, f + c, c - f, f * c, f * 2, 2 - f,
                       f.substitute({"a1": g, "b2": -g}),
                       ring.normal_form(f * g), ring.normal_form(g ** 3)]
            results += [apply_derivation(ring, d, h) for d in derivations for h in (f, f * g)]
            for p in results:
                self.assert_canonical(p)


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

    @pytest.mark.parametrize("cap", [-1, -5, True, False, 2.0, "4", None], ids=repr)
    def test_bad_cap_refused(self, ring, derivations, cap):
        # cap=-1 raised NotNilpotentError without applying d once, and
        # cap=True was read as 1
        d1, _ = derivations
        with pytest.raises(ValueError, match="cap must be a nonnegative int"):
            delta_degree(ring, d1, ring.generator("a1"), cap=cap)
        with pytest.raises(ValueError, match="cap must be a nonnegative int"):
            verify_compatibility_condition2(ring, d1, d1, ring.generator("a1"), cap=cap)

    def test_cap_zero_certifies_the_kernel(self, ring, derivations):
        d1, _ = derivations
        assert delta_degree(ring, d1, ring.generator("a1"), cap=0) == 0
        with pytest.raises(NotNilpotentError, match="within 1 applications"):
            delta_degree(ring, d1, ring.generator("b1"), cap=0)

    def test_zero_input_rejected(self, ring, derivations):
        d1, _ = derivations
        with pytest.raises(ValueError):
            delta_degree(ring, d1, ring.parse("a1*b2 - a2*b1 - 1"))

    def test_images_are_read_once_per_derivation(self, ring, derivations, monkeypatch):
        # each Leibniz step used to rebuild the derivation's image table,
        # one `_ints` call per generator image
        d1, _ = derivations
        f = ring.element("b1^4")
        calls = 0
        ints = lndcalc.derivations._ints

        def counting(terms):
            nonlocal calls
            calls += 1
            return ints(terms)

        monkeypatch.setattr(lndcalc.derivations, "_ints", counting)
        assert delta_degree(ring, d1, f) == 4
        assert calls == 0

    def test_no_polynomial_is_built(self, ring, derivations, monkeypatch):
        # the chain reduces f's integer numerators directly, so it builds
        # no polynomial, not even f's normal form
        built = []
        of = MultiPoly._of.__func__

        def spy(cls, *args):
            built.append(args)
            return of(cls, *args)

        f = ring.parse("a1^2*b1*b2 - 1/3*a1*b1^2 + 1/2*a2")
        monkeypatch.setattr(MultiPoly, "_of", classmethod(spy))
        assert [delta_degree(ring, d, f) for d in derivations] == [2, 2]
        assert built == []

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


# Kernel sets whose witness reports are pinned by WITNESS_DIGEST: found
# and not-found searches at caps 2 to 5, with integer and rational kernel
# elements, on C[SL2] and (under the zero derivation) on rings whose
# relation is not monic or not integral
WITNESS_CASES_SL2 = [
    (["a1", "a2"], ["b1", "b2"], 2),
    (["2*a1 + a2", "a1 - 3*a2"], ["b1 - b2", "2*b2"], 3),
    (["1/2*a1", "a2"], ["b1", "2/3*b2"], 4),
    (["a1", "1/2*a2"], ["b1^2", "2/5*b2"], 5),
    (["a1^2", "a2"], ["b1", "b2^2 - b1"], 4),
    (["a1"], ["b1", "b2"], 5),
    (["2/3*a1 - a2"], ["1/2*b1", "b1 + b2"], 4),
    (["a1^2 + 1/2*a2^2"], ["b1", "3*b2"], 3),
    (["a1", "a2"], ["b1^2"], 2),
]
WITNESS_CASES_OTHER = [
    (("x", "y"), "2*x*y - 1", ["x"], ["y"], 2),
    (("x", "y"), "2*x*y - 1", ["x^2", "3*x"], ["1/2*y"], 3),
    (("x", "y"), "2*x*y - 1", ["x^2"], ["y"], 3),
    (("x", "y", "z"), "3*x*z^2 - 2*y + 1", ["x", "y"], ["z^2", "1/2*y"], 3),
    (("x", "y", "z"), "2/3*x^2*y - 1/2*z - 1", ["x", "z"], ["1/2*y", "x"], 3),
    (("x", "y", "z"), "3*y^2*z - x", ["x + 1/2*y"], ["z"], 3),
]
# written by the search when its span still eliminated over Fraction
WITNESS_DIGEST = "dbadbe8730bf8c172a5edb13892295ffd0f8ec3b7407245804aef61e20ef35bd"


def report_text(report):
    """Every field of a witness report, with the coefficient types."""
    lines = [f"{report.degree_cap} {report.found_degree} {report.equation()}"]
    for t in report.combination:
        lines.append(" ".join([repr(t.coefficient), t.left_label, t.right_label, str(t.degree),
                               repr(sorted(t.left.terms.items())),
                               repr(sorted(t.right.terms.items()))]))
    return "\n".join(lines)


class TestWitnessSearch:
    def test_sl2_witness(self, ring, derivations):
        d1, d2 = derivations
        k1 = [ring.generator("a1"), ring.generator("a2")]
        k2 = [ring.generator("b1"), ring.generator("b2")]
        report = verify_semicompatibility_witness(ring, d1, d2, k1, k2)
        assert report.found
        assert report.equation() == "1 = a1*b2 - a2*b1"
        assert report.found_degree == 2

    @pytest.mark.parametrize("kernel1, kernel2, equation, found_degree", [
        (["2*a1", "3*a2"], ["b1", "b2"], "1 = 1/2*2*a1*b2 - 1/3*3*a2*b1", 2),
        (["a2", "a1"], ["2*b2", "b1"], "1 = -a2*b1 + 1/2*a1*2*b2", 2),
        (["2*a1 + a2", "a1 - a2"], ["b1", "3*b2"],
         "1 = -1/3*(2*a1 + a2)*b1 + 1/9*(2*a1 + a2)*3*b2"
         " + 2/3*(a1 - a2)*b1 + 1/9*(a1 - a2)*3*b2", 2),
        (["a1", "a2"], ["b1^2", "b2"], "1 = 2*a1*b2 + a2*a2*b1^2 - a1*a1*b2*b2", 4),
        (["1/2*a1", "a2"], ["b1", "2/3*b2"], "1 = 3*1/2*a1*2/3*b2 - a2*b1", 2),
        (["a1", "1/2*a2"], ["b1^2", "2/5*b2"],
         "1 = 5*a1*2/5*b2 + 4*1/2*a2*1/2*a2*b1^2 - 25/4*a1*a1*2/5*b2*2/5*b2", 4),
    ], ids=["scaled", "reordered", "mixed", "degree-4", "rational", "rational-degree-4"])
    def test_equation_with_non_unit_coefficients(self, ring, derivations,
                                                 kernel1, kernel2, equation, found_degree):
        d1, d2 = derivations
        report = verify_semicompatibility_witness(
            ring, d1, d2, [ring.element(t) for t in kernel1],
            [ring.element(t) for t in kernel2])
        assert report.equation() == equation
        assert report.found_degree == found_degree

    @pytest.mark.parametrize("kernel1, kernel2, equation", [
        (["-a1", "a2"], ["b1", "b2"], "1 = -(-a1)*b2 - a2*b1"),
        (["-2*a1", "a2"], ["b1", "-b2"], "1 = 1/2*(-2*a1)*(-b2) - a2*b1"),
        (["a1", "-a2"], ["b1", "b2"], "1 = a1*b2 + (-a2)*b1"),
        (["a1", "-a2"], ["-b1", "b2"], "1 = a1*b2 - (-a2)*(-b1)"),
        (["a1", "a2"], ["-b1^2", "b2"], "1 = 2*a1*b2 - a2*a2*(-b1^2) - a1*a1*b2*b2"),
    ], ids=["negated", "scaled", "plus-negated", "both-negated", "degree-4"])
    def test_negative_kernel_elements_read_as_factors(self, ring, derivations,
                                                      kernel1, kernel2, equation):
        report = verify_semicompatibility_witness(
            ring, *derivations, [ring.element(t) for t in kernel1],
            [ring.element(t) for t in kernel2])
        assert report.equation() == equation
        assert not any(bad in equation for bad in ("--", "+ -", "*-"))

    @staticmethod
    def integral_kernels(ring):
        """Kernels built the way perfbench's worker builds them: integer
        values held as Fractions."""
        k1 = [MultiPoly(ring.gens, {(1, 0, 0, 0): Fraction(2), (0, 1, 0, 0): Fraction(-3)})]
        k2 = [MultiPoly(ring.gens, {(0, 0, 1, 0): Fraction(1), (0, 0, 0, 1): Fraction(2)}),
              MultiPoly(ring.gens, {(0, 0, 1, 0): Fraction(-3), (0, 0, 0, 1): Fraction(1)})]
        return k1, k2

    def test_integral_kernels_multiply_ints(self, ring, derivations, monkeypatch):
        # the search multiplies int coefficients
        k1, k2 = self.integral_kernels(ring)
        types = set()
        product = QuotientRing._product

        def spy(self, t1, t2):
            reduced = product(self, t1, t2)
            types.update(type(c) for t in (t1, t2, reduced) for c in t.values())
            return reduced

        monkeypatch.setattr(QuotientRing, "_product", spy)
        report = verify_semicompatibility_witness(ring, *derivations, k1, k2, 4)
        assert not report.found
        assert types == {int}

    def test_search_builds_fraction_polynomials_only(self, ring, derivations, monkeypatch):
        # levels and products stay term maps, so the trusted constructor
        # never receives the search's int values
        k1, k2 = self.integral_kernels(ring)
        types = set()
        of = MultiPoly._of.__func__

        def spy(cls, gens, terms):
            types.update(map(type, terms.values()))
            return of(cls, gens, terms)

        monkeypatch.setattr(MultiPoly, "_of", classmethod(spy))
        report = verify_semicompatibility_witness(ring, *derivations, k1, k2, 4)
        assert not report.found
        assert types == {Fraction}

    def test_integral_inputs_reduce_and_differentiate_to_fractions(self, ring, derivations):
        # results hold Fractions whatever the input's values: an int-valued
        # map (no constructor makes one), integral Fractions or rational ones
        terms = {(2, 0, 1, 2): 3, (1, 1, 0, 1): -2, (0, 0, 0, 0): 5}
        ints = MultiPoly._of(ring.gens, dict(terms))
        cases = [ints, MultiPoly(ring.gens, terms),
                 MultiPoly(ring.gens, {m: Fraction(2) for m in terms}),
                 MultiPoly(ring.gens, {m: Fraction(c, 3) for m, c in terms.items()})]
        for f in cases:
            results = [ring.normal_form(f)] + [apply_derivation(ring, d, f) for d in derivations]
            for p in results:
                assert p.terms and {type(c) for c in p.terms.values()} == {Fraction}
        assert ring.normal_form(ints) == ring.normal_form(cases[1])
        assert all(apply_derivation(ring, d, ints) == apply_derivation(ring, d, cases[1])
                   for d in derivations)

    def test_report_digest(self, ring, derivations):
        reports = [verify_semicompatibility_witness(
            ring, *derivations, [ring.element(t) for t in k1], [ring.element(t) for t in k2], cap)
            for k1, k2, cap in WITNESS_CASES_SL2]
        for gens, relation, k1, k2, cap in WITNESS_CASES_OTHER:
            other = QuotientRing(gens, parse_poly(relation, gens))
            zero = make_derivation(other)
            reports.append(verify_semicompatibility_witness(
                other, zero, zero, [other.element(t) for t in k1],
                [other.element(t) for t in k2], cap))
        text = "\n\n".join(map(report_text, reports))
        assert hashlib.sha256(text.encode()).hexdigest() == WITNESS_DIGEST

    def test_search_builds_products_lazily(self, ring, derivations, monkeypatch):
        # a degree-2 witness at degree bound 8: products with more factors
        # are never built, so a few dozen reduced products are made, not a
        # thousand
        d1, d2 = derivations
        k1 = [ring.element(t) for t in ("a1", "a2", "a1 + a2", "a1 - a2")]
        k2 = [ring.element(t) for t in ("b1", "b2", "b1 + b2", "b1 - b2")]
        calls = 0
        original = QuotientRing._product

        def counting(self, t1, t2):
            nonlocal calls
            calls += 1
            return original(self, t1, t2)

        monkeypatch.setattr(QuotientRing, "_product", counting)
        report = verify_semicompatibility_witness(ring, d1, d2, k1, k2, degree=8)
        assert report.equation() == "1 = a1*b2 - a2*b1"
        assert report.found_degree == 2
        assert calls < 50

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

    @pytest.mark.parametrize("degree", [True, False, -2, 2.5, "3", None])
    def test_bad_degree_refused(self, ring, derivations, degree):
        # degree=True ran as 1 and reported degree_cap=True, and degree=-2
        # reported "1 not found at degree -2"
        with pytest.raises(ValueError, match="degree must be a nonnegative int"):
            verify_semicompatibility_witness(ring, *derivations, [ring.generator("a1")],
                                             [ring.generator("b2")], degree)

    def test_degree_zero_searches_nothing(self, ring, derivations):
        report = verify_semicompatibility_witness(
            ring, *derivations, [ring.generator("a1")], [ring.generator("b2")], 0)
        assert report.equation() == "1 not found at degree 0"

    def test_found_follows_found_degree(self):
        assert not WitnessReport(3).found
        assert WitnessReport(3, found_degree=2).found

    def test_trivial_ring(self):
        free = QuotientRing(("x",))
        zero = make_derivation(free)
        report = verify_semicompatibility_witness(free, zero, zero,
                                                  [free.one()], [free.one()])
        assert report.found and report.equation() == "1 = 1*1"

    def test_ring_without_generators_refused(self):
        # its only monomial, (), sorts below the product tags (-1, i), so
        # the search would read "1 not found" where 1 = 1/6*2*3
        bare = QuotientRing(())
        zero = make_derivation(bare)
        with pytest.raises(ValueError, match="at least one generator"):
            verify_semicompatibility_witness(bare, zero, zero,
                                             [bare.constant(2)], [bare.constant(3)])

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


# right multiplication by diag(1/t, t) scales the first column of SL2 by
# 1/t and the second by t
TORUS_WEIGHTS = {"a1": -1, "a2": 1, "b1": -1, "b2": 1}


def torus_weight(f):
    """The common torus weight of f's monomials, or None when they differ."""
    weights = [TORUS_WEIGHTS[g] for g in f.gens]
    seen = {sum(e * w for e, w in zip(mono, weights)) for mono in f.terms}
    return seen.pop() if len(seen) == 1 else None


class TestTorusAction:
    def test_invariant_generators_have_weight_zero(self, ring):
        u, v, z = sl2_invariant_generators()
        assert torus_weight(u) == 0
        assert torus_weight(v) == 0
        assert torus_weight(z) == 0

    def test_weights_add_under_product(self, ring):
        # the determinant relation has weight 0, so reduction preserves
        # weights and they add on products of homogeneous elements
        rng = random.Random(99)
        monos = [MultiPoly(ring.gens, {tuple(rng.randint(0, 2) for _ in ring.gens): 1})
                 for _ in range(60)]
        checked = 0
        for f, g in zip(monos[::2], monos[1::2]):
            wf, wg = torus_weight(f), torus_weight(g)
            prod = ring.normal_form(f * g)
            if prod.is_zero():
                continue
            w = torus_weight(prod)
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


def test_sl2_checks_reuse_the_relation_check(monkeypatch):
    # a cold suite checks each derivation against the relation once, when
    # it is built; the suite's record reports that check
    calls = []

    def counting(ring, d):
        calls.append(d)
        return preserves_relations(ring, d)

    monkeypatch.setattr(sl2, "preserves_relations", counting)
    sl2_standard_derivations.cache_clear()
    try:
        records = lndcalc.sl2_checks(4)
    finally:
        monkeypatch.undo()
        sl2_standard_derivations.cache_clear()
    assert len(calls) == 2
    assert records[0][2:] == ({"d1": True, "d2": True}, True)


def test_sl2_checks_apply_each_derivation_once_per_degree_step(monkeypatch):
    # a cold suite: 2 relation checks, 12 steps for the generator degrees
    # (1 per kernel generator, 2 per other generator), 4 for a1*b2 and 4
    # kernel checks by the witness search, one per kernel generator; each
    # step of delta_degree, and each apply_derivation, is one Leibniz pass
    calls = 0
    original = lndcalc.derivations._derive

    def counting(ring, d, terms):
        nonlocal calls
        calls += 1
        return original(ring, d, terms)

    monkeypatch.setattr(lndcalc.derivations, "_derive", counting)
    sl2_standard_derivations.cache_clear()
    try:
        records = lndcalc.sl2_checks(4)
    finally:
        monkeypatch.undo()
        sl2_standard_derivations.cache_clear()
    assert calls == 22
    assert records[3][2:] == ({"equation": "1 = a1*b2 - a2*b1", "found_degree": 2}, True)


def test_export_list():
    assert sorted(lndcalc.__all__) == [
        "DEFAULT_DEGREE_CAP", "Derivation", "KernelMembershipError",
        "MultiPoly", "NotNilpotentError", "PolyParseError", "QuotientRing", "RelationError",
        "SL2_GENERATORS", "WitnessReport", "WitnessTerm", "apply_derivation",
        "degrees_compatible", "delta_degree",
        "hypersurface_identity_holds", "is_in_kernel", "make_derivation", "parse_poly",
        "poly_to_text", "preserves_relations", "sign_flip_fixes_hypersurface", "sl2_checks",
        "sl2_coordinate_ring", "sl2_invariant_generators", "sl2_standard_derivations",
        "verify_compatibility_condition2", "verify_invariant_hypersurface",
        "verify_semicompatibility_witness",
    ]
    assert all(hasattr(lndcalc, name) for name in lndcalc.__all__)
