import random
from fractions import Fraction

import pytest

from orbitkit.lndcalc.poly import MultiPoly, PolyParseError, parse_poly, poly_to_text

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

    def test_power_squares_only_while_bits_remain(self, monkeypatch):
        # p**8: three squarings and one multiply into the unit; squaring
        # again after the last bit would be a wasted fifth product
        p = gen("a1") + gen("b2") + 1
        expected = p * p * p * p * p * p * p * p
        calls = []
        original = MultiPoly.__mul__

        def counting_mul(self, other):
            calls.append(1)
            return original(self, other)

        monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
        assert p ** 8 == expected
        assert len(calls) == 4

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

    @pytest.mark.parametrize("coef", [0.1, 1.0, "1/4", None], ids=repr)
    def test_inexact_coefficient_refused(self, coef):
        # a float would become a binary fraction: 0.1 -> 3602879701896397/2**55
        with pytest.raises(TypeError, match="not an int or a Fraction"):
            MultiPoly(("x",), {(1,): coef})

    def test_float_scalar_refused(self):
        p = MultiPoly(("x",), {(1,): 3})
        zero = MultiPoly(("x",))
        for op in (lambda: p + 0.5, lambda: p - 0.5, lambda: 0.5 - p, lambda: p * 0.5,
                   lambda: zero * 0.5):
            with pytest.raises(TypeError):
                op()
        assert p * Fraction(1, 2) - 1 == MultiPoly(("x",), {(1,): Fraction(3, 2), (0,): -1})


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
        "(a1 + a2)", "2.5*a1",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(PolyParseError):
            parse_poly(bad, GENS)

    def test_repeated_generator_multiplies(self):
        assert parse_poly("a1^2*a1", GENS) == gen("a1") ** 3
