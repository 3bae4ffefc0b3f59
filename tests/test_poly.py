import random
import re
from fractions import Fraction

import pytest

from orbitkit.lndcalc import poly
from orbitkit.lndcalc.poly import MultiPoly, PolyParseError, parse_poly, poly_to_text
from orbitkit.lndcalc.sl2 import sign_flip_fixes_hypersurface
from perfbench import oracles

GENS = ("a1", "a2", "b1", "b2")


def gen(name):
    return MultiPoly.generator(GENS, name)


def random_poly(rng, max_terms=4, max_exp=3, coef_range=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in GENS)
        terms[mono] = rng.randint(-coef_range, coef_range)
    return MultiPoly(GENS, terms)


class TestArithmetic:
    def test_add_cancels(self):
        a1 = gen("a1")
        assert (a1 - a1).is_zero()
        assert (a1 + (-1) * a1).is_zero()

    def test_product_expands(self):
        a1, b2 = gen("a1"), gen("b2")
        square = (a1 + b2) * (a1 + b2)
        assert square == a1 * a1 + 2 * a1 * b2 + b2 * b2

    def test_power(self):
        p = gen("a1") + 1
        assert p ** 0 == MultiPoly.constant(GENS, 1)
        assert p ** 3 == p * p * p
        with pytest.raises(ValueError):
            p ** -1

    @pytest.fixture
    def products(self, monkeypatch):
        """The list of term-map products (`poly._mul`, behind `*` and `**`)
        made since it was last cleared."""
        calls = []
        original = poly._mul

        def counting_mul(t1, t2):
            calls.append(1)
            return original(t1, t2)

        monkeypatch.setattr(poly, "_mul", counting_mul)
        return calls

    def test_power_squares_only_while_bits_remain(self, products):
        # p**8: three squarings and nothing else; the first set bit takes
        # the base as it is, and squaring after the last bit would be waste
        p = gen("a1") + gen("b2") + 1
        expected = p * p * p * p * p * p * p * p
        products.clear()
        assert p ** 8 == expected
        assert len(products) == 3

    def test_power_one_is_the_base(self, products):
        p = gen("a1") + gen("b2") + 1
        counts = []
        for n in (1, 2, 4):
            products.clear()
            p ** n
            counts.append(len(products))
        assert p ** 1 == p
        assert counts == [0, 1, 2]

    def test_scalar_and_fraction_coefficients(self):
        p = Fraction(1, 2) * gen("b1") + Fraction(1, 3)
        q = p * 6
        assert q == 3 * gen("b1") + 2

    def test_zero_never_stored(self):
        p = MultiPoly(GENS, {(1, 0, 0, 0): 0, (0, 1, 0, 0): 2})
        assert len(p.terms) == 1

    def test_total_degree(self):
        assert MultiPoly.zero(GENS).total_degree() == -1
        assert MultiPoly.constant(GENS, 5).total_degree() == 0
        assert (gen("a1") * gen("b1") ** 2).total_degree() == 3

    def test_unknown_generator_name(self):
        with pytest.raises(ValueError, match="'c1' is not one of the generators"):
            MultiPoly.generator(GENS, "c1")

    def test_generator_mismatch(self):
        other = MultiPoly.generator(("x", "y"), "x")
        with pytest.raises(ValueError):
            gen("a1") + other

    def test_structural_equality(self):
        p = parse_poly("a1*b2 - a2*b1", GENS)
        q = parse_poly("-a2*b1 + a1*b2", GENS)
        assert p == q and hash(p) == hash(q)

    def test_substitute_sign_flip(self):
        gens = ("u", "v", "z")
        p = parse_poly("u*v - z^2 + 1/4", gens)
        flip = {n: -MultiPoly.generator(gens, n) for n in gens}
        assert p.substitute(flip) == p
        odd = parse_poly("u + v*z^2", gens)
        assert odd.substitute(flip) == -odd

    def test_substitute_scales_each_term_last(self, products):
        # u*v and z^2 cost one product each; the coefficient scales the
        # product of the images instead of starting a throwaway product
        gens = ("u", "v", "z")
        p = parse_poly("u*v - z^2 + 1/4", gens)
        flip = {n: -MultiPoly.generator(gens, n) for n in gens}
        products.clear()
        assert p.substitute(flip) == p
        assert len(products) == 2

    def test_substitute_into_another_context(self):
        # every generator named, so the result is over the images' generators
        p = parse_poly("3*u*v^2 - 1/2", ("u", "v"))
        images = {"u": gen("a1") + gen("b2"), "v": gen("a2")}
        assert p.substitute(images) == 3 * (gen("a1") + gen("b2")) * gen("a2") ** 2 - Fraction(1, 2)
        assert parse_poly("7", ("u", "v")).substitute(images) == MultiPoly.constant(GENS, 7)

    def test_substitute_refuses_mixed_contexts(self):
        # v is not named, so it would map to itself over ("u", "v")
        p = parse_poly("u + v", ("u", "v"))
        with pytest.raises(ValueError, match="images over generators other than"):
            p.substitute({"u": gen("a1")})

    def test_substitute_refuses_unknown_generators(self):
        # an image for a name that is not a generator was silently ignored
        gens = ("u", "v")
        p = parse_poly("u*v + 1", gens)
        u = MultiPoly.generator(gens, "u")
        with pytest.raises(ValueError, match=r"unknown generators \['w'\]"):
            p.substitute({"w": u})
        with pytest.raises(ValueError, match=r"unknown generators \['w', 'x'\]"):
            p.substitute({"u": u, "w": u, "x": u})

    @pytest.mark.parametrize("image", [2, Fraction(1, 2), "a1", None], ids=repr)
    def test_substitute_refuses_images_that_are_not_polynomials(self, image):
        # these raised "... object has no attribute 'gens'"
        with pytest.raises(TypeError, match=f"image {re.escape(repr(image))} is not a MultiPoly"):
            gen("a2").substitute({"a1": image})

    def test_repr_names_generators_and_text(self):
        assert repr(gen("a1") - 2) == "MultiPoly(('a1', 'a2', 'b1', 'b2'), 'a1 - 2')"

    def test_substitute_builds_only_missing_generators(self, monkeypatch):
        # sign_flip_fixes_hypersurface builds its three images; substitute
        # must not build a default generator for names it was given
        calls = []
        original = MultiPoly.generator.__func__

        def counting_generator(cls, gens, name):
            calls.append(name)
            return original(cls, gens, name)

        monkeypatch.setattr(MultiPoly, "generator", classmethod(counting_generator))
        assert sign_flip_fixes_hypersurface()
        assert calls == ["u", "v", "z"]

    def test_invalid_exponents(self):
        with pytest.raises(ValueError):
            MultiPoly(GENS, {(1, 0): 1})
        with pytest.raises(ValueError):
            MultiPoly(GENS, {(-1, 0, 0, 0): 1})

    @pytest.mark.parametrize("exponent", ["1", None, 1.5])
    def test_non_integer_exponent_is_a_bad_vector(self, exponent):
        # the type is tested before the sign, so "1" < 0 never runs
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly(("x",), {(exponent,): 1})

    def test_bool_exponent_refused(self):
        # True == 1, but a stored exponent is always an int
        with pytest.raises(ValueError, match="bad exponent vector"):
            MultiPoly(("x", "y"), {(True, 0): 1})
        p = MultiPoly(("x", "y"), {(1, 0): 1})
        for exponent in (True, False, 1.0):
            with pytest.raises(ValueError, match="only nonnegative integer powers"):
                p ** exponent

    @pytest.mark.parametrize("coef", [0.1, 1.0, "1/4", None, True, False], ids=repr)
    def test_inexact_coefficient_refused(self, coef):
        # a float would become a binary fraction: 0.1 -> 3602879701896397/2**55;
        # True == 1, but a stored coefficient is never a bool
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            MultiPoly(("x",), {(1,): coef})

    def test_float_scalar_refused(self):
        p = MultiPoly(("x",), {(1,): 3})
        zero = MultiPoly(("x",))
        for scalar in (0.5, True, False):
            for op in (lambda: p + scalar, lambda: p - scalar, lambda: scalar - p,
                       lambda: p * scalar, lambda: zero * scalar):
                with pytest.raises(TypeError, match="not an int or a Fraction"):
                    op()
        assert p * Fraction(1, 2) - 1 == MultiPoly(("x",), {(1,): Fraction(3, 2), (0,): -1})


def random_operand(rng, kind, max_terms=4, max_exp=3):
    """A nonzero polynomial with integral Fraction coefficients ("int"), or
    with Fraction coefficients that all have a denominator ("fraction")."""
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in GENS)
        c = rng.choice((-1, 1)) * rng.randint(1, 5)
        terms[mono] = c if kind == "int" else Fraction(2 * c + 1, 2 * rng.randint(1, 3))
    return MultiPoly(GENS, terms)


def coefficient_types(p):
    return {type(c) for c in p.terms.values()}


class TestOracleProducts:
    """`*` and `**` against perfbench's oracles, which share no code with
    them, and the coefficient-type rule: results hold Fractions, integral
    ones included."""

    @pytest.mark.parametrize("kinds", [("int", "int"), ("int", "fraction"),
                                       ("fraction", "int"), ("fraction", "fraction")],
                             ids="*".join)
    def test_product(self, kinds):
        rng = random.Random(2801)
        for _ in range(40):
            f, g = (random_operand(rng, kind) for kind in kinds)
            product = f * g
            assert product.terms == oracles.poly_mul(f.terms, g.terms)
            assert coefficient_types(product) == {Fraction}

    @pytest.mark.parametrize("kind", ["int", "fraction"])
    def test_power(self, kind):
        rng = random.Random(2802)
        for _ in range(8):
            f = random_operand(rng, kind, max_terms=3, max_exp=2)
            for e in range(9):
                power = f ** e
                assert power.terms == oracles.poly_pow(f.terms, e)
                assert coefficient_types(power) == {Fraction}

    def test_zero_operands(self):
        rng = random.Random(2803)
        zero = MultiPoly.zero(GENS)
        for f in (zero, random_operand(rng, "int"), random_operand(rng, "fraction")):
            assert (f * zero).is_zero() and (zero * f).is_zero()
        assert zero ** 0 == MultiPoly.constant(GENS, 1)
        assert all((zero ** e).is_zero() for e in range(1, 9))

    @pytest.mark.parametrize("scalar", [3, -1, Fraction(2, 3), Fraction(-7, 2), 0], ids=str)
    def test_scalar_operands(self, scalar):
        # a scalar is a checked constant, so it is a Fraction operand
        rng = random.Random(2804)
        constant = {(0,) * len(GENS): Fraction(scalar)} if scalar else {}
        for kind in ("int", "fraction"):
            f = random_operand(rng, kind)
            for product in (f * scalar, scalar * f):
                assert product.terms == oracles.poly_mul(f.terms, constant)
                assert coefficient_types(product) == ({Fraction} if scalar else set())


def test_numerators_of_int_maps_are_over_one():
    # an all-int map, such as a witness-search product, is copied with
    # denominator 1, so `_over` always divides
    terms = {(1, 0, 0, 0): 3, (0, 0, 0, 0): -2}
    numerators, d = poly._numerators(terms)
    assert (numerators, d) == (terms, 1) and numerators is not terms
    assert poly._numerators({}) == ({}, 1)
    assert poly._over(numerators, d) == {m: Fraction(c) for m, c in terms.items()}


class TestTextFormat:
    @pytest.mark.parametrize("text,expected", [
        ("a1*b2 - a2*b1 - 1", "a1*b2 - a2*b1 - 1"),
        ("  a1 * b2\t-a2*b1 - 1 ", "a1*b2 - a2*b1 - 1"),
        ("a2^1*b1^1", "a2*b1"),
        ("2*a2*b1 + 1", "2*a2*b1 + 1"),
        ("1/4", "1/4"),
        ("-3/2*b1^2", "-3/2*b1^2"),
        ("0", "0"),
        ("a1 - a1", "0"),
        ("5 - 1/2", "9/2"),
        ("a1*a1*a1", "a1^3"),
    ])
    def test_parse_and_print(self, text, expected):
        assert poly_to_text(parse_poly(text, GENS)) == expected

    def test_canonical_term_order(self):
        p = parse_poly("1 + 2*a2*b1 + a2^2*b1^2", GENS)
        assert poly_to_text(p) == "a2^2*b1^2 + 2*a2*b1 + 1"

    def test_round_trip_random(self):
        rng = random.Random(1105)
        for _ in range(120):
            p = random_poly(rng)
            assert parse_poly(poly_to_text(p), GENS) == p

    @pytest.mark.parametrize("bad", [
        "", "x9", "a1 +", "* a1", "a1 ** 2", "a1^", "a1^b2", "a1^1/2", "a1 a2",
        "(a1 + a2)", "2.5*a1", "1/0", "a1*", "a1* + b1", "2*",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(PolyParseError):
            parse_poly(bad, GENS)

    @pytest.mark.parametrize("bad, named", [
        ("a1 + 2.5*b1", "'2.5'"), ("a1*b2 - x9", "'x9'"), ("3/0*a1", "'3/0'"),
        ("a1^ - b1", "'a1^'"),
    ])
    def test_parse_error_names_the_text(self, bad, named):
        with pytest.raises(PolyParseError, match=re.escape(named)):
            parse_poly(bad, GENS)

    def test_repeated_generator_multiplies(self):
        assert parse_poly("a1^2*a1", GENS) == gen("a1") ** 3
