"""Every value type shares one immutability policy (errors.Frozen) and one
rule for what counts as an exact scalar (scalars.as_gaussian)."""

import importlib
import pkgutil
from decimal import Decimal
from fractions import Fraction

import pytest

import cfree
from cfree.condexp import efree_rec
from cfree.cumulants import CumulantSeq, MomentSeq
from cfree.denoise import l2_project, weighted_state
from cfree.engine import solve_fixed_point
from cfree.errors import DomainError, Frozen
from cfree.linearize import linearize
from cfree.multiplicative import subordination_pair
from cfree.ncpoly import NCPolynomial, parse_poly
from cfree.partitions import SetPartition, enumerate_nc
from cfree.scalars import GQ_ONE, GaussianRational, as_gaussian
from cfree.series import SquareMatrix, TruncSeries
from cfree.twostate import TwoStateSpec, semicircle_moments

from reference import gq


def _spec():
    sc = semicircle_moments(1, 6)
    return TwoStateSpec(6, sc, sc, semicircle_moments(2, 6, "phi"), None)


def _values():
    spec = _spec()
    x_psi = semicircle_moments(1, 8)
    pencil = linearize(parse_poly("x*y + y*x"))
    return [
        gq(Fraction(1, 2), -3),
        parse_poly("x*y - 2*i*y^2 + 1"),
        TruncSeries((GQ_ONE, gq(0, 1), gq(2))),
        SquareMatrix.identity(2),
        enumerate_nc(4)[5],
        SetPartition(3, [(2, 3), (1,)]),
        spec.marginal("x", "phi"),
        spec.free_cumulants("y"),
        efree_rec(spec, "xyx"),
        weighted_state(x_psi, x_psi, "x^2", 6),
        l2_project(spec, "x^2", "x + y", 1),
        solve_fixed_point(spec, pencil.a_coeffs, pencil.b_coeffs, 3),
        pencil,
        subordination_pair(spec, 3),
        spec,
    ]


VALUES = _values()


def _twin(value):
    """A second object holding the same slot values."""
    copy = object.__new__(type(value))
    Frozen.__init__(copy, *value._values())
    return copy


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_library_value_type_is_covered():
    for info in pkgutil.iter_modules(cfree.__path__):
        importlib.import_module("cfree." + info.name)
    # _TaggedSeq, the shared base of the sequences, lists no slots
    concrete = {cls for cls in _subclasses(Frozen) if vars(cls).get("__slots__")}
    assert {type(v) for v in VALUES} == concrete


@pytest.mark.parametrize("value", VALUES, ids=lambda v: type(v).__name__)
def test_values_are_frozen_slotted_and_hash_by_equality(value):
    name = type(value).__name__
    with pytest.raises(AttributeError, match=name):
        setattr(value, value.__slots__[0], None)
    with pytest.raises(AttributeError, match=name):
        value.extra = 1
    assert not hasattr(value, "__dict__")
    twin = _twin(value)
    if isinstance(value, TwoStateSpec):
        # its memos are dicts: a spec equals only itself
        assert value == value and value != twin
        assert hash(value) == hash(value)
    else:
        assert value == twin and hash(value) == hash(twin)


def test_gaussian_rationals_hash_like_their_fractions():
    for v in (0, 3, Fraction(-7, 4)):
        assert hash(GaussianRational(v)) == hash(Fraction(v)) == hash(v)
        assert GaussianRational(v) == v


EXACT = [gq(1, -2), 0, -5, True, Fraction(3, 7)]
INEXACT = [0.5, 1j, "1", None, Decimal("0.5")]


@pytest.mark.parametrize("value", EXACT, ids=repr)
def test_exact_scalars_coerce_everywhere(value):
    g = as_gaussian(value)
    assert isinstance(g, GaussianRational) and g == value
    assert MomentSeq([value, 1]).values == (g, GQ_ONE)
    assert CumulantSeq([value], "cfree").values == (g,)
    assert NCPolynomial.scalar(value).constant_coefficient() == g
    assert GQ_ONE * value == g and value + GQ_ONE == g + 1


@pytest.mark.parametrize("value", INEXACT, ids=repr)
def test_inexact_scalars_are_refused_everywhere(value):
    assert as_gaussian(value) is None
    with pytest.raises(DomainError, match="sequence entries"):
        MomentSeq([1, value])
    with pytest.raises(DomainError, match="sequence entries"):
        CumulantSeq([value], "free-psi")
    with pytest.raises(DomainError, match="bad scalar"):
        NCPolynomial.scalar(value)
    with pytest.raises(TypeError):
        GQ_ONE * value
    with pytest.raises(TypeError):
        value - GQ_ONE
