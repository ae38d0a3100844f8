"""Weighted states and L2 recovery of the signal from a noisy observable.

The worked case throughout: X standard semicircle, Y symmetric
Bernoulli, observable P = i(XY - YX).  The projections of X^2 and X^4
onto powers of P have exact rational coefficients, frozen below, and
the tilted state phi(c) = psi(X^2 c) really is conditionally free with
the reference state, checked word by word.
"""

import itertools
from fractions import Fraction

import pytest

from cfree import engine
from cfree.denoise import (
    ProjectionResult,
    WeightedState,
    condexp_verify,
    distributions_of_poly,
    l2_project,
    weighted_state,
)
from cfree.engine import poly_distribution
from cfree.errors import DomainError
from cfree.ncpoly import NCPolynomial, parse_poly
from cfree.scalars import GQ_ONE, GQ_ZERO, GaussianRational
from cfree.twostate import (
    TwoStateSpec,
    multilinear_boolean,
    point_mass_moments,
    semicircle_moments,
    vnrp_boolean_phi,
)

from reference import bernoulli_moments, gq, gq_list, std_spec

COMMUTATOR = parse_poly("i*(x*y - y*x)")


@pytest.fixture(scope="module")
def spec20():
    return std_spec(20)


def test_projection_of_signal_square(spec20):
    result = l2_project(spec20, "x^2", COMMUTATOR, 2)
    assert list(result.coefficients) == gq_list(
        [Fraction(1, 2), 0, Fraction(1, 4)]
    )
    assert result.rank == 3
    assert all(r.is_zero() for r in result.residuals)
    assert len(result.residuals) == 3


def test_projection_of_signal_fourth_power(spec20):
    result = l2_project(spec20, "x^4", COMMUTATOR, 4)
    assert list(result.coefficients) == gq_list(
        [Fraction(3, 4), 0, Fraction(3, 8), 0, Fraction(1, 16)]
    )
    assert result.rank == 5
    assert all(r.is_zero() for r in result.residuals)


def test_orthogonality_certificates(spec20):
    square = l2_project(spec20, "x^2", COMMUTATOR, 2)
    fourth = l2_project(spec20, "x^4", COMMUTATOR, 4)
    assert condexp_verify(spec20, "x^2", COMMUTATOR, square, 8)
    assert condexp_verify(spec20, "x^4", COMMUTATOR, fourth, 6)
    # by construction up to the projection degree
    assert condexp_verify(spec20, "x^2", COMMUTATOR, square.coefficients, 2)
    # a corrupted constant term fails immediately
    assert not condexp_verify(
        spec20, "x^2", COMMUTATOR, (GQ_ONE, GQ_ZERO, GaussianRational(Fraction(1, 4))), 2
    )
    # plain ints and Fractions coerce
    assert not condexp_verify(spec20, "x^2", COMMUTATOR, (1, 0, 1), 2)


def test_theta_rotation_gives_same_projection():
    spec = std_spec(10)
    expected = gq_list([Fraction(1, 2), 0, Fraction(1, 4)])
    for theta in (GQ_ONE, gq(0, 1), gq(Fraction(3, 5), Fraction(4, 5))):
        twisted = NCPolynomial.word("xy", theta) + NCPolynomial.word(
            "yx", gq(theta.re, -theta.im)
        )
        result = l2_project(spec, "x^2", twisted, 2)
        assert list(result.coefficients) == expected
        assert result.rank == 3


def test_weighted_marginals_are_moment_shifts():
    ws = weighted_state(
        semicircle_moments(1, 10), bernoulli_moments(10), "x^2", 8
    )
    assert ws.normalization == GQ_ONE
    # phi(x^n) = psi(x^{n+2}): the Catalan sequence shifted by two
    assert list(ws.spec.marginal("x", "phi").values) == gq_list(
        [0, 2, 0, 5, 0, 14, 0, 42]
    )
    assert (
        ws.spec.marginal("x", "psi").values
        == semicircle_moments(1, 8).values
    )
    assert (
        ws.spec.marginal("y", "phi").values
        == bernoulli_moments(8).values
    )
    assert ws.weight == parse_poly("x^2")


def test_trivial_weight_collapses_the_states():
    sc = semicircle_moments(1, 8)
    ws = weighted_state(sc, bernoulli_moments(8), "1", 6)
    assert ws.spec.marginal("x", "phi").values == sc.values[:6]
    phi_m, psi_m = distributions_of_poly(ws, "x + y", 3)
    assert phi_m.values == psi_m.values


def test_polynomial_surrogate_weight():
    # truncated geometric series in place of an analytic density
    s = Fraction(1, 4)
    f = NCPolynomial.zero()
    for k in range(5):
        f = f + NCPolynomial.word("x" * k, GaussianRational(s**k))
    sc = semicircle_moments(1, 12)
    ws = weighted_state(sc, bernoulli_moments(12), f, 6)
    num = GQ_ZERO
    for k in range(5):
        num = num + GaussianRational(s**k) * sc.moment(k + 1)
    assert ws.spec.moment("phi", "x") == num / ws.normalization


def test_commutator_distributions_under_the_weight():
    ws = weighted_state(
        semicircle_moments(1, 16), bernoulli_moments(16), "x^2", 14
    )
    phi_m, psi_m = distributions_of_poly(ws, COMMUTATOR, 6)
    assert list(psi_m.values) == gq_list([0, 2, 0, 8, 0, 40])
    assert list(phi_m.values) == gq_list([0, 3, 0, 14, 0, 76])


def test_distributions_of_poly_solves_once(monkeypatch):
    ws = weighted_state(
        semicircle_moments(1, 12), bernoulli_moments(12), "1 + x^2", 10
    )
    p = parse_poly("x*y + y*x - x^2")
    separate = tuple(
        poly_distribution(ws.spec, p, state, 5) for state in ("phi", "psi")
    )
    solves = []
    original = engine.solve_fixed_point

    def counted(*args):
        solves.append(args[-1])
        return original(*args)

    monkeypatch.setattr(engine, "solve_fixed_point", counted)
    both = distributions_of_poly(ws, p, 5)
    assert solves == [10]
    assert both == separate
    assert [m.state for m in both] == ["phi", "psi"]


def test_moment_level_radon_nikodym(spec20):
    # phi(P^n) = psi(h(P) P^n) once h is orthogonal deep enough
    ws = weighted_state(
        semicircle_moments(1, 16), bernoulli_moments(16), "x^2", 14
    )
    phi_m, _ = distributions_of_poly(ws, COMMUTATOR, 6)
    h = l2_project(spec20, "x^2", COMMUTATOR, 2)
    h_poly = (
        NCPolynomial.scalar(h.coefficients[0])
        + NCPolynomial.scalar(h.coefficients[2]) * COMMUTATOR * COMMUTATOR
    )
    power = NCPolynomial.one()
    for n in range(1, 7):
        power = power * COMMUTATOR
        assert phi_m.moment(n) == spec20.poly_moment(
            "psi", h_poly * power, guard=16
        )


def test_projection_onto_own_algebra():
    result = l2_project(std_spec(10), "x^3 + 2*x", parse_poly("x"), 3)
    assert list(result.coefficients) == gq_list([0, 2, 0, 1])
    assert result.rank == 4


def test_singular_gram_reduces_to_leading_block():
    # point mass at 1: every power of P = X has psi-moment 1
    spec = TwoStateSpec(8, point_mass_moments(1, 8), bernoulli_moments(8))
    result = l2_project(spec, "x^2 + x", parse_poly("x"), 3)
    assert list(result.coefficients) == gq_list([2])
    assert result.rank == 1
    assert len(result.residuals) == 4
    assert all(r.is_zero() for r in result.residuals)


def test_weighted_state_is_conditionally_free():
    # the c-free recursion on the induced marginals must reproduce
    # phi(w) = psi(x^2 w) / psi(x^2) on every mixed word
    base = std_spec(10)
    ws = weighted_state(
        semicircle_moments(1, 10), bernoulli_moments(10), "x^2", 8
    )
    norm = base.moment("psi", "xx")
    for n in range(1, 7):
        for letters in itertools.product("xy", repeat=n):
            w = "".join(letters)
            assert ws.spec.moment("phi", w) == base.moment("psi", "xx" + w) / norm


def test_weighted_boolean_phi_matches_partition_sum():
    ws = weighted_state(
        semicircle_moments(1, 10), bernoulli_moments(10), "x^2", 8
    )
    for n in range(1, 7):
        for start in ("x", "y"):
            word = "".join(
                start if i % 2 == 0 else ("y" if start == "x" else "x")
                for i in range(n)
            )
            args = tuple(word)
            assert vnrp_boolean_phi(
                ws.spec, args, tuple(word)
            ) == multilinear_boolean(ws.spec, "phi", args)


def test_domain_errors():
    sc = semicircle_moments(1, 10)
    be = bernoulli_moments(10)
    with pytest.raises(DomainError):
        weighted_state(sc, be, "x", 6)  # odd weight has zero mean
    with pytest.raises(DomainError):
        weighted_state(sc, be, "y", 6)
    with pytest.raises(DomainError):
        weighted_state(sc, be, "x^2", 9)  # needs the x marginal to 11
    with pytest.raises(DomainError):
        weighted_state(sc, be, "x^2", 0)
    spec = std_spec(10)
    with pytest.raises(DomainError):
        l2_project(spec, "x^2", parse_poly("1"), 2)
    with pytest.raises(DomainError):
        l2_project(spec, "x^2", parse_poly("x"), -1)


def test_results_are_immutable():
    ws = weighted_state(
        semicircle_moments(1, 8), bernoulli_moments(8), "x^2", 6
    )
    with pytest.raises(AttributeError):
        ws.normalization = GQ_ZERO
    result = l2_project(std_spec(10), "x^2", COMMUTATOR, 2)
    with pytest.raises(AttributeError):
        result.rank = 0
    assert isinstance(ws, WeightedState)
    assert isinstance(result, ProjectionResult)
    assert "rank=3" in repr(result)
