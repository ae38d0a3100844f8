import random
from fractions import Fraction

import pytest

from cfree.errors import DomainError, LimitError, ParseError
from cfree.ncpoly import (
    MAX_WORD,
    NCPolynomial,
    block_factorize,
    format_poly,
    parse_poly,
)
from cfree.scalars import GQ_I, GQ_ONE

from reference import gq

X = NCPolynomial.letter("x")
Y = NCPolynomial.letter("y")
ONE = NCPolynomial.one()


def rand_poly(rng, max_deg=4, max_terms=5):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        w = "".join(rng.choice("xy") for _ in range(rng.randint(0, max_deg)))
        terms[w] = gq(rng.randint(-5, 5), rng.randint(-2, 2))
    return NCPolynomial(terms)


# -- algebra --------------------------------------------------------------


def test_ring_basics():
    p = (X + Y) ** 2
    assert p == X * X + X * Y + Y * X + Y * Y
    assert p.degree() == 2
    assert (X * Y - Y * X).coeff("xy") == GQ_ONE
    assert (X - X).is_zero()
    assert NCPolynomial.zero().degree() == -1
    assert (X * Y).letters_used() == {"x", "y"}
    assert ONE.is_constant()


def test_noncommutativity():
    assert X * Y != Y * X
    comm = X * Y - Y * X
    assert comm.coeff("yx") == -GQ_ONE
    assert (comm * comm).coeff("xyxy") == GQ_ONE
    assert (comm * comm).coeff("xyyx") == -GQ_ONE


def test_scalar_action():
    p = 2 * X + X * Y
    assert p.coeff("x") == gq(2)
    assert (p * Fraction(1, 2)).coeff("xy") == gq(Fraction(1, 2))


def test_every_exact_scalar_adds_subtracts_and_compares():
    half = Fraction(1, 2)
    x = parse_poly("x")
    for scalar in (half, gq(half), 3, GQ_I):
        c = NCPolynomial.scalar(scalar)
        assert x + scalar == scalar + x == x + c
        assert x - scalar == x - c
        assert scalar - x == c - x
        assert c == scalar and scalar == c
    assert parse_poly("1/2") == half
    assert parse_poly("x") != half
    # anything else is left to Python: no sum, and unequal
    with pytest.raises(TypeError):
        x + 0.5
    with pytest.raises(TypeError):
        "x" - x
    assert parse_poly("1/2") != 0.5


def test_every_exact_scalar_is_a_coefficient_and_nothing_else():
    assert NCPolynomial({"x": 1}) == X
    assert NCPolynomial({"x": Fraction(1, 2)}).coeff("x") == gq(Fraction(1, 2))
    assert NCPolynomial([("x", 2), ("", True), ("x", -2)]) == ONE
    for bad in ("1", 0.5, 1j, None):
        with pytest.raises(DomainError, match="bad coefficient"):
            NCPolynomial({"x": bad})
        with pytest.raises(DomainError, match="bad coefficient"):
            NCPolynomial([("y", 1), ("x", bad)])


def test_equal_values_hash_equal():
    for value in (0, 3, -1, Fraction(-7, 4), gq(1, 2), GQ_I, gq(0, Fraction(1, 3))):
        c = NCPolynomial.scalar(value)
        assert c == value and hash(c) == hash(value)
        assert value in {c: 0} and c in {value: 0}
    assert 3 in {NCPolynomial.scalar(3): 0}
    assert hash(NCPolynomial.zero()) == hash(0) == hash(X - X)
    rng = random.Random(5)
    c = gq(Fraction(1, 6), Fraction(-2, 9))
    for _ in range(50):
        p, q = rand_poly(rng) * c, rand_poly(rng)
        for a, b in (
            ((p + q) - q, p),
            (p * (q + ONE) - p * q, p),
            ((p * c) * c.inverse(), p),
            ((q - q) + p, p),
        ):
            assert a == b and hash(a) == hash(b)


def test_pow():
    assert X ** 0 == ONE
    assert X ** 3 == NCPolynomial.word("xxx")
    assert ((X + Y) ** 3).coeff("xyx") == GQ_ONE
    with pytest.raises(DomainError):
        X ** -1


def test_pow_refuses_words_past_the_ceiling_before_building_them(monkeypatch):
    assert (X ** MAX_WORD).degree() == MAX_WORD
    assert ((X * Y) ** (MAX_WORD // 2)).degree() == MAX_WORD
    for base, exponent in ((X, MAX_WORD + 1), (X * Y + Y, MAX_WORD // 2 + 1),
                           (X, 99999999999), (NCPolynomial.scalar(2), 99999999999)):
        with pytest.raises(LimitError):
            base ** exponent
    # zero stays zero at any power
    assert NCPolynomial.zero() ** 99999999999 == NCPolynomial.zero()
    with pytest.raises(LimitError):
        parse_poly("x^99999999999")
    # no intermediate square passes the power itself: x^500 builds no x^512
    built = []
    multiply = NCPolynomial.__mul__

    def recording(self, other):
        product = multiply(self, other)
        built.append(product.degree())
        return product

    monkeypatch.setattr(NCPolynomial, "__mul__", recording)
    assert (X ** MAX_WORD).degree() == MAX_WORD
    assert max(built) == MAX_WORD
    with pytest.raises(ParseError):
        parse_poly("x^" + "9" * 5000)


def test_products_past_the_pair_ceiling_are_refused_before_they_are_built():
    p = (X + Y) ** 10  # 1024 words
    assert len(p.terms) == 1024
    assert len(parse_poly("(x+y)^12").terms) == 4096
    with pytest.raises(LimitError, match="term pairs"):
        p * (p + ONE)  # 1024 * 1025 pairs: 1024 past the ceiling of 2^20
    with pytest.raises(LimitError, match="term pairs"):
        parse_poly("(x+y)^40")


def test_constant_inverse():
    assert NCPolynomial.scalar(gq(2)).inverse() == NCPolynomial.scalar(
        gq(Fraction(1, 2))
    )
    with pytest.raises(DomainError):
        X.inverse()
    with pytest.raises(DomainError):
        NCPolynomial.zero().inverse()


def test_block_factorize():
    assert block_factorize("xxxyyx") == [("x", 3), ("y", 2), ("x", 1)]
    assert block_factorize("x") == [("x", 1)]
    assert block_factorize("") == []


# -- parsing and printing -------------------------------------------------


def test_parse_examples():
    assert parse_poly("(x+y)^2") == (X + Y) ** 2
    assert parse_poly("x*y - y*x") == X * Y - Y * X
    assert parse_poly("i*(x*y - y*x)").coeff("xy") == GQ_I
    assert parse_poly("1/2*x + 3*y^2") == NCPolynomial(
        {"x": gq(Fraction(1, 2)), "yy": gq(3)}
    )
    assert parse_poly("-x") == -X
    assert parse_poly("2 - x*y") == NCPolynomial({"": gq(2), "xy": gq(-1)})
    assert parse_poly("x^2*y") == NCPolynomial.word("xxy")


def test_parse_errors_carry_offsets():
    with pytest.raises(ParseError, match="byte"):
        parse_poly("x + * y")
    with pytest.raises(ParseError):
        parse_poly("(x + y")
    with pytest.raises(ParseError):
        parse_poly("x y")
    with pytest.raises(ParseError):
        parse_poly("z + 1")
    with pytest.raises(ParseError):
        parse_poly("")
    with pytest.raises(ParseError):
        parse_poly("x^")


def test_format_round_trip():
    rng = random.Random(31)
    for _ in range(60):
        p = rand_poly(rng)
        assert parse_poly(format_poly(p)) == p
    assert format_poly(NCPolynomial.zero()) == "0"
    assert format_poly(X * X * X * Y * Y) == "x^3*y^2"
