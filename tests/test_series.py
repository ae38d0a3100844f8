import random
from fractions import Fraction

import pytest

from cfree.errors import DomainError
from cfree.ncpoly import NCPolynomial
from cfree.scalars import GQ_I, GQ_ONE, GQ_ZERO
from cfree.series import SquareMatrix, TruncSeries

from reference import gq, variable


def series(*ints):
    return TruncSeries(tuple(gq(c) for c in ints))


def rand_series(rng, order, lead_zero=False, unit_linear=False):
    coeffs = [gq(Fraction(rng.randint(-6, 6), rng.randint(1, 3)))
              for _ in range(order + 1)]
    if lead_zero:
        coeffs[0] = GQ_ZERO
    if unit_linear:
        coeffs[1] = GQ_ONE
    return TruncSeries(tuple(coeffs))


# -- basics ---------------------------------------------------------------


def test_constructors():
    z = variable(3)
    assert z.coeffs == (GQ_ZERO, GQ_ONE, GQ_ZERO, GQ_ZERO)
    c = TruncSeries.constant(gq(5), 2)
    assert c.coeffs == (gq(5), GQ_ZERO, GQ_ZERO)
    with pytest.raises(DomainError):
        TruncSeries(())
    with pytest.raises(DomainError):
        variable(0)


def test_order_truncation_on_binary_ops():
    a = series(1, 1, 1, 1, 1)
    b = series(1, -1)
    assert (a + b).order == 1
    assert (a * b).coeffs == (gq(1), GQ_ZERO)
    assert a.truncated(2).coeffs == (gq(1), gq(1), gq(1))
    with pytest.raises(DomainError):
        b.truncated(5)


def test_mul_and_shift():
    a = series(1, 2, 3)
    b = series(0, 1, 0)
    assert (a * b).coeffs == (GQ_ZERO, gq(1), gq(2))
    assert a.shift(1).coeffs == (GQ_ZERO, gq(1), gq(2))
    assert a.shift(2).coeffs == (GQ_ZERO, GQ_ZERO, gq(1))
    for k in (3, 4, 5):
        assert a.shift(k).coeffs == (GQ_ZERO,) * 3
    assert a.shift(0) == a
    with pytest.raises(DomainError):
        a.shift(-1)


def test_is_zero_and_agreement():
    assert not series(0, 0, 3, 1).is_zero()
    assert series(0, 0, 0).is_zero()
    assert series(1, 2, 3).truncated(1) == series(1, 2, 4).truncated(1)
    assert not series(1, 2, 3) == series(1, 2, 4)


# -- inverse --------------------------------------------------------------


def test_inverse_frozen():
    # (1 - z^2 - z^4 - 2 z^6)^{-1} = 1 + z^2 + 2 z^4 + 5 z^6 + O(z^7)
    s = series(1, 0, -1, 0, -1, 0, -2)
    assert s.inverse().coeffs == tuple(gq(c) for c in (1, 0, 1, 0, 2, 0, 5))


def test_inverse_round_trip():
    rng = random.Random(3)
    for _ in range(25):
        s = rand_series(rng, 8)
        if s.coeff(0).is_zero():
            continue
        inv = s.inverse()
        assert (s * inv).coeffs[0] == GQ_ONE
        assert all(c.is_zero() for c in (s * inv).coeffs[1:])
        assert inv.inverse() == s


def test_inverse_needs_unit():
    with pytest.raises(DomainError):
        series(0, 1).inverse()


def test_inverse_matrix_coefficients():
    # (I - zN)^{-1} = I + zN + z^2 N^2 for nilpotent N
    n2 = SquareMatrix(((GQ_ZERO, GQ_ONE), (GQ_ZERO, GQ_ZERO)))
    ident = SquareMatrix.identity(2)
    s = TruncSeries((ident, -n2, ident.zero_like()))
    inv = s.inverse()
    assert inv.coeff(0) == ident
    assert inv.coeff(1) == n2
    assert inv.coeff(2) == n2 * n2
    assert inv.coeff(2).is_zero()


# -- composition ----------------------------------------------------------


def test_compose_frozen():
    outer = series(0, 0, 1)
    inner = series(0, 1, 1, 0, 0)
    assert outer.compose(inner).coeffs == tuple(
        gq(c) for c in (0, 0, 1, 2, 1)
    )


def test_compose_requires_zero_constant():
    with pytest.raises(DomainError):
        series(0, 1).compose(series(1, 1))


def test_compose_shifted_frozen_matrix():
    # stored z + z^3 + 2 z^5 against inner zI: sum_k c_k (zI)^{k-1}
    outer = series(0, 1, 0, 1, 0, 2)
    ident = SquareMatrix.identity(2)
    inner = TruncSeries.constant(ident, 5).shift(1)
    got = outer.compose_shifted(inner)
    for k, c in enumerate((1, 0, 1, 0, 2, 0)):
        assert got.coeff(k) == ident.scale(gq(c))


def test_compose_shifted_recovers_shifted_transform():
    # coefficients b_k at z^k composed shifted with plain z give
    # sum_k b_k z^{k-1}, the series with b_{k+1} at z^k.
    outer = series(0, 0, 1, 0, 1, 0, 2)
    z = variable(6)
    assert outer.compose_shifted(z).coeffs == tuple(
        gq(c) for c in (0, 1, 0, 1, 0, 2, 0)
    )


def test_compose_shifted_degenerate():
    outer = TruncSeries((gq(7),))
    inner = variable(4)
    assert outer.compose_shifted(inner).is_zero()
    with pytest.raises(DomainError):
        series(0, 1).compose_shifted(series(1, 0))


# -- reversion ------------------------------------------------------------


def test_revert_frozen():
    s = series(0, 1, 1, 0, 0, 0)
    assert s.revert().coeffs == tuple(gq(c) for c in (0, 1, -1, 2, -5, 14))


def test_revert_geometric():
    # z/(1-z) reverts to z/(1+z)
    s = series(0, 1, 1, 1, 1, 1, 1)
    assert s.revert().coeffs == tuple(gq(c) for c in (0, 1, -1, 1, -1, 1, -1))


def test_revert_round_trip():
    rng = random.Random(5)
    z = variable(7)
    for _ in range(25):
        s = rand_series(rng, 7, lead_zero=True, unit_linear=True)
        g = s.revert()
        assert s.compose(g) == z
        assert g.compose(s) == z


def test_revert_gaussian_non_unit_linear():
    # Lagrange inversion divides by n and by the linear term: exercise both
    # on complex coefficients at order 20
    rng = random.Random(9)
    z = variable(20)
    coeffs = [GQ_ZERO, gq(Fraction(2, 3), -1)] + [
        gq(Fraction(rng.randint(-4, 4), rng.randint(1, 3)), rng.randint(-2, 2))
        for _ in range(19)
    ]
    s = TruncSeries(coeffs)
    assert s.compose(s.revert()) == z


def test_revert_requires_linear_unit():
    with pytest.raises(DomainError):
        series(1, 1).revert()
    with pytest.raises(DomainError):
        series(0, 0, 1).revert()


# -- matrices -------------------------------------------------------------


def test_matrix_basics():
    m = SquareMatrix(((gq(1), gq(1)), (gq(0), gq(1))))
    assert m.n == 2
    assert m.entry(0, 1) == GQ_ONE
    assert (m - m).is_zero()
    assert m.one_like() == SquareMatrix.identity(2)
    with pytest.raises(DomainError):
        SquareMatrix(((gq(1), gq(2)),))


def test_matrix_inverse_frozen():
    m = SquareMatrix(((gq(1), gq(1)), (gq(0), gq(1))))
    assert m.inverse() == SquareMatrix(((gq(1), gq(-1)), (gq(0), gq(1))))
    s = SquareMatrix(((GQ_I,),))
    assert s.inverse() == SquareMatrix(((-GQ_I,),))


def test_matrix_inverse_random():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 4)
        m = SquareMatrix(
            tuple(
                tuple(gq(rng.randint(-4, 4), rng.randint(-1, 1)) for _ in range(n))
                for _ in range(n)
            )
        )
        try:
            inv = m.inverse()
        except DomainError:
            continue
        assert m * inv == SquareMatrix.identity(n)
        assert inv * m == SquareMatrix.identity(n)


def test_matrix_singular():
    m = SquareMatrix(((gq(1), gq(2)), (gq(2), gq(4))))
    with pytest.raises(DomainError, match="singular"):
        m.inverse()


def test_matrix_pivoting():
    # zero leading pivot forces a row swap
    m = SquareMatrix(((gq(0), gq(1)), (gq(1), gq(0))))
    assert m.inverse() == m


def test_apply_bilinear():
    m = SquareMatrix(((gq(1), gq(2)), (gq(3), gq(4))))
    u = (GQ_ONE, GQ_ZERO)
    v = (GQ_ZERO, GQ_ONE)
    assert m.apply_bilinear(u, v) == gq(2)
    assert m.apply_bilinear(v, u) == gq(3)


def test_scalar_mul_both_sides():
    m = SquareMatrix(((gq(1), gq(2)), (gq(3), gq(4))))
    assert gq(2) * m == m * gq(2)
    assert (gq(2) * m).entry(1, 0) == gq(6)


def test_polynomial_times_scalar_matrix_keeps_polynomial_zeros():
    m = SquareMatrix(((gq(2), GQ_ZERO), (GQ_ZERO, GQ_I)))
    x = NCPolynomial.letter("x")
    zero = NCPolynomial.zero()
    for got in (x * m, m.scale(x)):
        assert got == SquareMatrix(((x * gq(2), zero), (zero, x * GQ_I)))
        assert all(isinstance(e, NCPolynomial) for row in got.rows for e in row)
    # a scalar times a polynomial matrix stays polynomial too
    got = gq(3) * SquareMatrix.identity(2, NCPolynomial.one())
    assert all(isinstance(e, NCPolynomial) for row in got.rows for e in row)
    assert got.entry(0, 1) == zero and got.entry(1, 1) == NCPolynomial.scalar(3)


def cofactor_det(rows):
    """Laplace expansion along the first row."""
    if len(rows) == 1:
        return rows[0][0]
    total = GQ_ZERO
    for j, a in enumerate(rows[0]):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = a * cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def test_det_equals_the_cofactor_expansion():
    rng = random.Random(23)
    for _ in range(40):
        rows = [
            [gq(rng.randint(-3, 3), rng.choice((0, 0, 1, -1))) for _ in range(3)]
            for _ in range(3)
        ]
        assert SquareMatrix(rows).det() == cofactor_det(rows)
        # a third row in the span of the first two makes it singular
        a, b = gq(rng.randint(-2, 2)), gq(rng.randint(-2, 2), rng.randint(-1, 1))
        rows[2] = [a * p + b * q for p, q in zip(rows[0], rows[1])]
        singular = SquareMatrix(rows)
        assert cofactor_det(rows) == GQ_ZERO
        assert singular.det() == GQ_ZERO
        with pytest.raises(DomainError, match="singular"):
            singular.inverse()
    # a zero leading pivot forces a swap, which flips the sign
    assert SquareMatrix(((gq(0), gq(1)), (gq(1), gq(0)))).det() == gq(-1)
