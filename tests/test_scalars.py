import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from cfree.errors import DomainError, ParseError
from cfree.scalars import (
    GQ_I,
    GQ_ONE,
    GQ_ZERO,
    GaussianRational,
    format_gaussian,
    parse_gaussian,
    parse_rational,
)

from reference import gq


def test_field_arithmetic():
    a = gq(1, 1)
    b = gq(1, -1)
    assert a * b == gq(2)
    assert a + b == gq(2)
    assert a - b == gq(0, 2)
    assert -a == gq(-1, -1)
    assert GQ_I * GQ_I == gq(-1)
    assert (gq(1, 2) / gq(3, -1)) == gq(Fraction(1, 10), Fraction(7, 10))
    assert gq(3, 4).inverse() == gq(Fraction(3, 25), Fraction(-4, 25))
    assert GQ_I.inverse() == -GQ_I


def test_pow():
    assert GQ_I ** 4 == GQ_ONE
    assert GQ_I ** 3 == -GQ_I
    assert gq(2) ** -2 == gq(Fraction(1, 4))
    assert gq(1, 1) ** 2 == gq(0, 2)
    assert gq(5, -7) ** 0 == GQ_ONE


def test_mixed_coercion():
    assert 2 + gq(1, 1) == gq(3, 1)
    assert gq(1, 1) + 2 == gq(3, 1)
    assert Fraction(1, 2) * gq(4) == gq(2)
    assert 1 - gq(0, 1) == gq(1, -1)
    assert 6 / gq(1, 1) == gq(3, -3)
    with pytest.raises(TypeError):
        gq(1) + 0.5


def test_zero_division():
    with pytest.raises(DomainError):
        GQ_ZERO.inverse()
    with pytest.raises(DomainError):
        gq(1) / GQ_ZERO


def test_conjugate_and_norm():
    rng = random.Random(11)
    for _ in range(50):
        v = gq(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
        n = v * gq(v.re, -v.im)
        assert not n.im
        assert n.re >= 0
        if not v.is_zero():
            assert v * v.inverse() == GQ_ONE


def test_equality_and_hash():
    assert gq(3) == 3
    assert gq(3) == Fraction(3)
    assert gq(3, 1) != 3
    assert hash(gq(Fraction(1, 2))) == hash(Fraction(1, 2))
    d = {gq(1, 2): "a"}
    assert d[GaussianRational(1, 2)] == "a"


def test_format_gaussian_canonical():
    cases = [
        (gq(0), "0"),
        (gq(Fraction(3, 4)), "3/4"),
        (gq(-2), "-2"),
        (GQ_I, "i"),
        (-GQ_I, "-i"),
        (gq(0, 2), "2*i"),
        (gq(0, Fraction(-1, 3)), "-1/3*i"),
        (gq(Fraction(1, 2), Fraction(3, 4)), "1/2+3/4*i"),
        (gq(1, -1), "1-i"),
        (gq(-1, Fraction(5, 2)), "-1+5/2*i"),
    ]
    for value, text in cases:
        assert format_gaussian(value) == text
        assert parse_gaussian(text) == value


def test_parse_gaussian_forms():
    assert parse_gaussian("2i") == gq(0, 2)
    assert parse_gaussian("-3/2 i") == gq(0, Fraction(-3, 2))
    assert parse_gaussian(" 1 + i ") == gq(1, 1)
    assert parse_gaussian("i+1") == gq(1, 1)
    assert parse_gaussian("-i-2") == gq(-2, -1)


def test_parse_gaussian_rejects():
    for text in ["", "1+1", "i+i", "1.5", "2+3", "i*i", "1+2+3*i", "x", "3+i/2"]:
        with pytest.raises(ParseError):
            parse_gaussian(text)


def test_readme_spec_scalars_parse():
    # README names the exact spellings a spec accepts; an imaginary part is
    # written b*i (or bi), never i/b
    readme_path = Path(__file__).resolve().parents[1] / "README.md"
    readme = readme_path.read_text(encoding="utf-8")
    paragraph = readme[readme.index("Numbers must be exact") :]
    paragraph = paragraph[: paragraph.index("\n\n")]
    literals = re.findall(r'`"([^"`]*)"`', paragraph)
    assert literals == ["1/2", "3+1/2*i"]
    assert [parse_gaussian(s) for s in literals] == [
        gq(Fraction(1, 2)),
        gq(3, Fraction(1, 2)),
    ]


def test_parse_rational_strict():
    assert parse_rational("-4/6") == Fraction(-2, 3)
    for text in ["", "1.5", "1e3", "1/0", "--1", "1/-2"]:
        with pytest.raises(ParseError):
            parse_rational(text)


def test_round_trip_random():
    rng = random.Random(7)
    for _ in range(200):
        v = gq(Fraction(rng.randint(-50, 50), rng.randint(1, 12)),
               Fraction(rng.randint(-50, 50), rng.randint(1, 12)))
        assert parse_gaussian(format_gaussian(v)) == v
