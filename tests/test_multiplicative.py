"""Product subordination and the multiplicative symbol, vs the oracle.

Oracle values are always psi((xy)^n) / phi((xy)^n) computed by direct
word-moment evaluation; the generating-function side must reproduce
them exactly.  sigma_transform, mgf_product_phi and the certificate
sweep compute only the coefficients they return; their full-order
forms in tests/reference.py must agree with them exactly.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfree.condexp import efree_rec, rqce
from cfree.cumulants import (
    MomentSeq,
    boolean_from_moments,
    eta_series,
)
from cfree.errors import DomainError, InternalError
from cfree.multiplicative import (
    SubordinationPair,
    _advance,
    mgf_product_phi,
    sigma_symbols,
    sigma_transform,
    subordination_pair,
)
from cfree.ncpoly import NCPolynomial
from cfree.scalars import GQ_ONE, GQ_ZERO, GaussianRational
from cfree.selfcheck import nonzero_mean_spec
from cfree.series import TruncSeries, settle
from cfree.twostate import (
    TwoStateSpec,
    point_mass_moments,
    random_spec,
    semicircle_moments,
)

from reference import (
    advance_full,
    gq,
    mgf_product_phi_full,
    sigma_transform_full,
    variable,
)


def product_moments(spec, state, count, guard=None):
    return MomentSeq(
        tuple(
            spec.moment(state, "xy" * n, guard=guard)
            for n in range(1, count + 1)
        ),
        state,
    )


def test_point_mass_is_a_unit():
    pm = point_mass_moments(1, 6)
    spec = TwoStateSpec(6, pm, pm)
    pair = subordination_pair(spec, 6)
    z = variable(6)
    assert pair.omega_x == z and pair.omega_y == z
    geometric = (TruncSeries.constant(GQ_ONE, 6) - z).inverse()
    assert mgf_product_phi(spec, 6) == geometric


def test_unit_against_semicircle():
    """X a point mass at 1 leaves Y's distribution untouched."""
    pm = point_mass_moments(1, 8)
    sc = semicircle_moments(1, 8)
    spec = TwoStateSpec(8, pm, sc)
    pair = subordination_pair(spec, 8)
    assert pair.omega_y == variable(8)
    mp = mgf_product_phi(spec, 8)
    assert mp == TruncSeries((GQ_ONE,) + spec.marginal("y", "phi").values)


def test_residual_identities_hold():
    spec = nonzero_mean_spec(random.Random(3), 8)
    pair = subordination_pair(spec, 8)
    adv_x = spec.eta("y", "psi").compose_shifted(pair.omega_y)
    adv_y = spec.eta("x", "psi").compose_shifted(pair.omega_x)
    assert pair.omega_x == TruncSeries(
        (GQ_ZERO,) + adv_x.truncated(7).coeffs
    )
    assert pair.omega_y == TruncSeries(
        (GQ_ZERO,) + adv_y.truncated(7).coeffs
    )
    assert pair.omega_x.coeff(0).is_zero()
    assert pair == SubordinationPair(pair.omega_x, pair.omega_y)


def test_psi_mgf_composition_vs_oracle():
    for seed in (3, 11):
        spec = nonzero_mean_spec(random.Random(seed), 12)
        pair = subordination_pair(spec, 6)
        m_x = TruncSeries((GQ_ONE,) + spec.marginal("x", "psi").values)
        lhs = m_x.compose(pair.omega_x)
        for n in range(7):
            assert lhs.coeff(n) == spec.moment("psi", "xy" * n)


def test_phi_mgf_vs_oracle():
    for seed in (5, 13):
        spec = nonzero_mean_spec(random.Random(seed), 12)
        mp = mgf_product_phi(spec, 6)
        for n in range(7):
            assert mp.coeff(n) == spec.moment("phi", "xy" * n)


def test_eta_identities_order_eight():
    """Boolean transform of XY: both compositions, both factorizations."""
    spec = nonzero_mean_spec(random.Random(7), 16)
    pair = subordination_pair(spec, 8)
    psi_m = product_moments(spec, "psi", 8, guard=16)
    eta_xy = eta_series(boolean_from_moments(psi_m)).truncated(8)
    assert eta_xy == spec.eta("x", "psi").compose(pair.omega_x).truncated(8)
    assert eta_xy == spec.eta("y", "psi").compose(pair.omega_y).truncated(8)
    for state in ("psi", "phi"):
        m = product_moments(spec, state, 8, guard=16)
        etat_xy = TruncSeries(boolean_from_moments(m).values)
        tx = spec.eta("x", state).compose_shifted(pair.omega_x).truncated(7)
        ty = spec.eta("y", state).compose_shifted(pair.omega_y).truncated(7)
        assert etat_xy == tx * ty


def test_sigma_is_multiplicative():
    for seed in (3, 19, 23):
        spec = nonzero_mean_spec(random.Random(seed), 14)
        sx = sigma_transform(
            (spec.marginal("x", "phi"), spec.marginal("x", "psi")), 7
        )
        sy = sigma_transform(
            (spec.marginal("y", "phi"), spec.marginal("y", "psi")), 7
        )
        sxy = sigma_transform(
            (product_moments(spec, "phi", 7), product_moments(spec, "psi", 7)),
            7,
        )
        assert sxy == (sx * sy).truncated(6)


def prime_power_spec(rng, order):
    """Gaussian-rational marginals over prime-power denominators, whose
    psi-means have a nonzero imaginary part."""

    def part(low=-20):
        prime_power = rng.choice((2, 3, 5, 7)) ** rng.randint(0, 3)
        return Fraction(rng.randint(low, 20), prime_power)

    def seq(state):
        values = [GaussianRational(part(), part()) for _ in range(order)]
        values[0] = GaussianRational(part(), part(1))
        return MomentSeq(values, state)

    return TwoStateSpec(order, seq("psi"), seq("psi"), seq("phi"), seq("phi"))


def test_sigma_symbols_equal_the_symbol_of_the_oracle_moments():
    # sigma_XY from the solved pair against sigma_transform on phi((xy)^n)
    # and psi((xy)^n) read from the word oracle, at spec order 2n
    rng = random.Random(41)
    for order, _, make in itertools.product(
        range(1, 8), range(3), (nonzero_mean_spec, prime_power_spec)
    ):
        spec = make(rng, 2 * order)
        oracle = tuple(
            product_moments(spec, state, order, guard=2 * order)
            for state in ("phi", "psi")
        )
        assert sigma_symbols(spec, order)[2] == sigma_transform(oracle, order)


def test_sigma_unit_and_errors():
    pm_psi = point_mass_moments(1, 6)
    pm_phi = point_mass_moments(1, 6, "phi")
    assert sigma_transform((pm_phi, pm_psi), 6) == TruncSeries.constant(
        GQ_ONE, 5
    )
    sc = semicircle_moments(1, 6)  # mean zero
    with pytest.raises(DomainError):
        sigma_transform((pm_phi, sc), 6)
    with pytest.raises(DomainError):
        sigma_transform((pm_phi, pm_psi), 0)
    with pytest.raises(DomainError):
        sigma_transform((pm_phi, pm_psi), 7)
    assert sigma_transform((pm_phi, pm_psi), 4).order == 3
    # order 1: the constant symbol, the phi-mean; and the same errors
    assert sigma_transform((pm_phi, pm_psi), 1) == TruncSeries.constant(GQ_ONE, 0)
    with pytest.raises(DomainError):
        sigma_transform((pm_phi, sc), 1)
    empty = (MomentSeq((), "phi"), MomentSeq((), "psi"))
    with pytest.raises(DomainError):
        sigma_transform(empty, 1)
    with pytest.raises(DomainError):
        sigma_transform((pm_phi, empty[1]), 1)


def test_sigma_reads_the_marginals_only_to_the_order():
    spec = nonzero_mean_spec(random.Random(29), 12)
    for ch in "xy":
        full = (spec.marginal(ch, "phi"), spec.marginal(ch, "psi"))
        for order in range(1, 13):
            cut = tuple(MomentSeq(m.values[:order], m.state) for m in full)
            assert sigma_transform(cut, order) == sigma_transform(full, order)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32), order=st.integers(0, 8))
@example(seed=0, order=0)
@example(seed=0, order=1)
def test_cut_routines_equal_their_full_order_references(seed, order):
    rng = random.Random(seed)
    spec = nonzero_mean_spec(rng, 8)
    assert mgf_product_phi(spec, order) == mgf_product_phi_full(spec, order)
    # the sweep on the solved pair and on an arbitrary inner series
    pair = subordination_pair(spec, order)
    anything = TruncSeries(
        [GQ_ZERO] + [gq(rng.randint(-3, 3), rng.randint(-1, 1)) for _ in range(order)]
    )
    for ch, omega in (("x", pair.omega_x), ("y", pair.omega_y), ("x", anything)):
        eta = spec.eta(ch, "psi", max(order, 1))
        assert _advance(eta, omega) == advance_full(eta, omega)
    for marginal in (
        (spec.marginal("x", "phi"), spec.marginal("x", "psi")),
        (spec.marginal("y", "phi"), spec.marginal("y", "psi")),
    ):
        if order == 0:
            for sigma in (sigma_transform, sigma_transform_full):
                with pytest.raises(DomainError):
                    sigma(marginal, order)
        else:
            assert sigma_transform(marginal, order) == sigma_transform_full(
                marginal, order
            )


def test_sweep_certifies_the_top_coefficient_of_each_series():
    # The cut sweep reads each series below z^N only, but it returns
    # every coefficient to z^N: a wrong top coefficient of either block
    # must still fail the certificate.
    spec = nonzero_mean_spec(random.Random(3), 8)
    order = 6
    pair = subordination_pair(spec, order)
    eta_x, eta_y = (spec.eta(ch, "psi", order) for ch in "xy")

    def sweep(grown, t):
        return _advance(eta_y, grown[1]), _advance(eta_x, grown[0])

    def replay(wrong):
        def step(blocks, t):
            c = (pair.omega_x.coeff(t), pair.omega_y.coeff(t))
            if t == order and wrong is not None:
                return tuple(v + GQ_ONE if k == wrong else v for k, v in enumerate(c))
            return c

        return step

    assert settle(replay(None), sweep, 2, order) == (pair.omega_x, pair.omega_y)
    for wrong in (0, 1):
        with pytest.raises(InternalError):
            settle(replay(wrong), sweep, 2, order)


def test_product_resolvent_conditional_expectation():
    """E applied to (1 - zXY)^{-1} is the geometric series in omega_X x."""
    spec = random_spec(random.Random(9), 10)
    K = 5
    pair = subordination_pair(spec, K)
    x = NCPolynomial.letter("x")
    ident = TruncSeries.constant(NCPolynomial.one(), K)
    geom = (ident - pair.omega_x.map(lambda c: c * x)).inverse()
    for n in range(K + 1):
        assert efree_rec(spec, "xy" * n).poly == geom.coeff(n)


def test_product_resolvent_quasi_expectation():
    """rqce of (1 - zXY)^{-1}: scalar prefactor times the geometric series.

    The prefactor is (1 - etat^phi_X(om_X) om_X) over the phi symbol
    denominator (1 - z etat^phi_X(om_X) etat^phi_Y(om_Y))."""
    spec = random_spec(random.Random(9), 10)
    K = 5
    pair = subordination_pair(spec, K)
    x = NCPolynomial.letter("x")
    ident = TruncSeries.constant(NCPolynomial.one(), K)
    geom = (ident - pair.omega_x.map(lambda c: c * x)).inverse()
    tx = spec.eta("x", "phi").compose_shifted(pair.omega_x)
    ty = spec.eta("y", "phi").compose_shifted(pair.omega_y)
    num = TruncSeries.constant(GQ_ONE, K) - tx * pair.omega_x
    den = TruncSeries.constant(GQ_ONE, K) - TruncSeries(
        (GQ_ZERO,) + (tx * ty).truncated(K - 1).coeffs
    )
    s = num * den.inverse()
    for n in range(K + 1):
        expected = NCPolynomial.zero()
        for j in range(n + 1):
            expected = expected + s.coeff(j) * geom.coeff(n - j)
        assert rqce(spec, "xy" * n).poly == expected


def test_order_and_spec_bounds():
    spec = nonzero_mean_spec(random.Random(3), 6)
    with pytest.raises(DomainError):
        subordination_pair(spec, 7)
    pair0 = subordination_pair(spec, 0)
    assert pair0.omega_x.is_zero() and pair0.order == 0
    assert mgf_product_phi(spec, 0) == TruncSeries.constant(GQ_ONE, 0)
