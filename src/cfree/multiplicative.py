"""Multiplicative convolution: subordination for products X Y.

The two subordination series are coupled through the shifted Boolean
transforms of the opposite letters,

    omega_X(z) = z etat^psi_Y(omega_Y(z)),
    omega_Y(z) = z etat^psi_X(omega_X(z)),

and carry the whole product theory: M^psi of XY is M^psi_X composed
with omega_X, the Boolean transform of XY in either state factors as
eta^st_X(omega_X) * eta^st_Y(omega_Y) pointwise in the shifted picture,
and the phi-transform of the product is the geometric series in that
factored symbol.  The fixed point is triangular order by order: the
series layer's driver, settle, solves it online, one coefficient of each
series per step with the powers of omega_X and omega_Y extended as they
grow, and certifies it by one sweep at the full order.

sigma_transform computes the multiplicative symbol of a single pair of
marginals: the shifted phi-Boolean transform reparametrized by the
compositional inverse of the psi-Boolean transform.  Its defining
property, checked in the tests, is multiplicativity over the product.
sigma_symbols builds the product's symbol from the factorization above,
so it reads no word moment and needs spec order n for symbols of order n.
"""

from __future__ import annotations

from .cumulants import MomentSeq, boolean_from_moments, eta_series
from .errors import DomainError, Frozen
from .scalars import GQ_ONE, GQ_ZERO
from .series import Powers, TruncSeries, geometric, settle

__all__ = [
    "SubordinationPair",
    "subordination_pair",
    "mgf_product_phi",
    "sigma_transform",
    "sigma_symbols",
]


class SubordinationPair(Frozen):
    """The two solved subordination series, both with zero constant term."""

    __slots__ = ("omega_x", "omega_y")

    @property
    def order(self):
        return self.omega_x.order


def _advance(eta, omega_other):
    """z * etat(omega_other) at omega_other's order N, from scratch; the
    shift by z leaves it reading omega_other below z^N only."""
    n = omega_other.order
    low = eta.compose_shifted(omega_other.truncated(max(n - 1, 0)))
    return TruncSeries(((GQ_ZERO,) + low.coeffs)[: n + 1])


def _check_order(spec, order):
    if order < 0:
        raise DomainError("order must be >= 0")
    if spec.order < order:
        raise DomainError(
            "subordination order %d exceeds spec order %d" % (order, spec.order)
        )


def subordination_pair(spec, order):
    """Solve the coupled subordination fixed point at the given order.

    Needs spec.order >= order, and reads each letter's psi-Boolean
    cumulants b_1..b_order.  Grows the pair one coefficient at a time;
    a last sweep at the full order must leave it unchanged.
    """
    _check_order(spec, order)
    # omega's z^t coefficient reads b_k for k <= t: eta to the order
    eta_x, eta_y = (spec.eta(ch, "psi", max(order, 1)) for ch in "xy")
    b_x, b_y = eta_x.coeffs[1:], eta_y.coeffs[1:]
    p_x, p_y = Powers(GQ_ONE), Powers(GQ_ONE)

    def step(pair, t):
        if t == 0:
            return GQ_ZERO, GQ_ZERO
        p_x.extend(pair[0][t - 1])
        p_y.extend(pair[1][t - 1])
        return p_y.combine(b_y, t - 1), p_x.combine(b_x, t - 1)

    omega_x, omega_y = settle(
        step,
        lambda pair, t: (_advance(eta_y, pair[1]), _advance(eta_x, pair[0])),
        2,
        order,
    )
    return SubordinationPair(omega_x, omega_y)


def mgf_product_phi(spec, order):
    """Moment series of the product XY in the state phi.

    The geometric series in z * etat^phi_X(omega_X) * etat^phi_Y(omega_Y);
    its coefficients are exactly phi((XY)^n).  The z^order coefficient
    reads that symbol only below z^order: so the pair is solved one order
    lower, and each letter's phi-Boolean cumulants b_1..b_order are read.
    """
    _check_order(spec, order)
    pair = subordination_pair(spec, max(order - 1, 0))
    return geometric(_phi_symbol(spec, pair, order), order)


def _phi_symbol(spec, pair, order):
    """etat^phi_X(omega_X) etat^phi_Y(omega_Y) at the pair's order, the
    shifted phi-Boolean transform of XY: exact below z^order."""
    tx = spec.eta("x", "phi", order).compose_shifted(pair.omega_x)
    ty = spec.eta("y", "phi", order).compose_shifted(pair.omega_y)
    return tx * ty


def sigma_transform(marginal, order):
    """The multiplicative symbol of a (phi, psi) pair of marginals.

    marginal is a pair (phi_moments, psi_moments).  The result is the
    shifted phi-Boolean transform composed with the compositional
    inverse of the psi-Boolean transform, a series of order one less
    than requested: it reads phi-moments m_1..m_order and psi-moments
    m_1..m_max(1, order-1) only.  The psi-mean must be nonzero for the
    inverse to exist.
    """
    phi_m, psi_m = marginal
    if order < 1:
        raise DomainError("sigma transform needs order >= 1")
    if phi_m.order < order or psi_m.order < order:
        raise DomainError(
            "sigma transform at order %d needs marginals of that order" % order
        )
    if psi_m.moment(1).is_zero():
        raise DomainError("sigma transform needs a nonzero psi-mean")
    eta_phi, eta_psi = (
        eta_series(boolean_from_moments(MomentSeq(m.values[:k], m.state)))
        for m, k in ((phi_m, order), (psi_m, max(order - 1, 1)))
    )
    return eta_phi.compose_shifted(eta_psi.revert().truncated(order - 1))


def sigma_symbols(spec, order):
    """The symbols (sigma_X, sigma_Y, sigma_XY); sigma_XY = sigma_X sigma_Y.

    sigma_XY reparametrizes _phi_symbol by the inverse of eta^psi_X(omega_X),
    the pair solved at order - 1 (at least 1, for the reversion)."""
    s_x, s_y = (
        sigma_transform((spec.marginal(ch, "phi"), spec.marginal(ch, "psi")), order)
        for ch in "xy"
    )
    pair = subordination_pair(spec, max(order - 1, 1))
    eta_psi = spec.eta("x", "psi", pair.order).compose(pair.omega_x)
    inverse = eta_psi.revert().truncated(order - 1)
    return s_x, s_y, _phi_symbol(spec, pair, order).compose(inverse)
