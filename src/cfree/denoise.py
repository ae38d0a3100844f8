"""Denoising: weighted states, observable distributions, L2 projection.

The setting: a signal X and a noise Y, free under a reference state
psi.  Prior information about the signal enters through a weight f(X),
giving the tilted state phi(c) = psi(f(X) c) / psi(f(X)).  The pair
(phi, psi) makes X and Y conditionally free, so the whole two-state
machinery applies to any polynomial observable P(X, Y).

The estimation step is classical: the best L2(psi) approximation of a
target g(X) by polynomials in the observable P is a Hankel system in
the psi-moments of P, and the quotient of the phi- and psi-distributions
of P recovers the same object on the spectral side.  Everything here is
exact rational arithmetic; the only failure modes are explicit
DomainErrors (zero-mean weight, moments out of range, singular data).
"""

from __future__ import annotations

from .engine import _poly_moments
from .errors import DomainError, Frozen, InternalError
from .cumulants import MomentSeq
from .ncpoly import NCPolynomial, parse_poly
from .scalars import GQ_ZERO, as_gaussian
from .series import SquareMatrix
from .twostate import TwoStateSpec

__all__ = [
    "WeightedState",
    "ProjectionResult",
    "weighted_state",
    "distributions_of_poly",
    "l2_project",
    "condexp_verify",
]


def _as_poly(p):
    return parse_poly(p) if isinstance(p, str) else p


class WeightedState(Frozen):
    """A two-state spec induced by a polynomial weight in the signal."""

    __slots__ = ("weight", "normalization", "spec")


def weighted_state(x_psi, y_psi, f, order):
    """Build the (phi, psi) spec for the weight f(X).

    phi on powers of X is psi(f X^n)/psi(f); on powers of Y it agrees
    with psi, because the weight is free from Y.  Needs the X marginal
    to reach order + deg f, and psi(f) nonzero.
    """
    f = _as_poly(f)
    if not f.letters_used() <= {"x"}:
        raise DomainError("the weight must be a polynomial in x alone")
    deg_f = f.degree()
    if order < 1:
        raise DomainError("order must be >= 1")
    if x_psi.order < order + deg_f:
        raise DomainError(
            "weight of degree %d at order %d needs the x marginal to order %d"
            % (deg_f, order, order + deg_f)
        )
    if y_psi.order < order:
        raise DomainError("y marginal is shorter than the requested order")

    terms = f.terms

    def weighted_power(n):
        total = GQ_ZERO
        for word, coeff in terms.items():
            total = total + coeff * x_psi.moment(len(word) + n)
        return total

    norm = weighted_power(0)
    if norm.is_zero():
        raise DomainError("the weight has zero mean under psi")
    x_phi = MomentSeq(
        tuple(weighted_power(n) / norm for n in range(1, order + 1)), "phi"
    )
    y_phi = MomentSeq(tuple(y_psi.values[:order]), "phi")
    spec = TwoStateSpec(
        order,
        MomentSeq(tuple(x_psi.values[:order])),
        MomentSeq(tuple(y_psi.values[:order])),
        x_phi,
        y_phi,
    )
    return WeightedState(f, norm, spec)


def distributions_of_poly(state, p, order):
    """(phi, psi) moment sequences of an observable P(X, Y).

    Both come out of one fixed-point solve on the weighted spec; the
    spec must be deep enough for deg(P) * order.
    """
    return _poly_moments(state.spec, _as_poly(p), order, ("phi", "psi"))


class ProjectionResult(Frozen):
    """Best L2(psi) approximation of the target by powers of P.

    coefficients has length rank: the Hankel system is reduced to its
    largest nonsingular leading principal block when degenerate.
    residuals[k] = psi((g - h(P)) P^k) for k = 0..d; the first rank of
    them vanish by construction.
    """

    __slots__ = ("coefficients", "rank", "residuals")

    def __init__(self, coefficients, rank, residuals):
        super().__init__(tuple(coefficients), rank, tuple(residuals))


def l2_project(spec, g, p, d):
    """Project g onto span(1, P, ..., P^d) in L2 of the spec's psi."""
    g = _as_poly(g)
    p = _as_poly(p)
    if d < 0:
        raise DomainError("projection degree must be >= 0")
    if p.degree() < 1:
        raise DomainError("the observable must be non-constant")
    reach = max(2 * d * p.degree(), g.degree() + d * p.degree())
    powers = [NCPolynomial.one()]
    for _ in range(2 * d):
        powers.append(powers[-1] * p)
    s = [spec.poly_moment("psi", powers[j], guard=reach) for j in range(2 * d + 1)]
    rhs = [
        spec.poly_moment("psi", g * powers[k], guard=reach) for k in range(d + 1)
    ]
    rank = 0
    inverse = None
    for r in range(d + 1, 0, -1):
        gram = SquareMatrix(
            tuple(tuple(s[j + k] for k in range(r)) for j in range(r))
        )
        try:
            inverse = gram.inverse()
        except DomainError:
            continue
        rank = r
        break
    if rank == 0:
        raise DomainError("the Gram matrix of P-powers is zero")
    coeffs = [
        sum((inverse.entry(i, j) * rhs[j] for j in range(rank)), GQ_ZERO)
        for i in range(rank)
    ]
    residuals = []
    for k in range(d + 1):
        r_k = rhs[k]
        for i in range(rank):
            r_k = r_k - coeffs[i] * s[i + k]
        residuals.append(r_k)
    if any(not residuals[k].is_zero() for k in range(rank)):
        raise InternalError("projection residuals do not vanish to the rank")
    return ProjectionResult(coeffs, rank, residuals)


def condexp_verify(spec, g, p, h, count):
    """Check psi((g - h(P)) P^k) = 0 for k = 0..count.

    h is the coefficient sequence h_0..h_m of a polynomial in P, or a
    ProjectionResult.  True exactly when g - h(P) is orthogonal to the
    first count+1 powers.
    """
    g = _as_poly(g)
    p = _as_poly(p)
    if isinstance(h, ProjectionResult):
        h = h.coefficients
    h_of_p = NCPolynomial.zero()
    power = NCPolynomial.one()
    for c in h:
        coeff = as_gaussian(c)
        if coeff is None:
            raise TypeError("rational part must be int or Fraction, got %r" % (c,))
        h_of_p = h_of_p + coeff * power
        power = power * p
    diff = g - h_of_p
    reach = diff.degree() + count * p.degree()
    tail = NCPolynomial.one()
    for k in range(count + 1):
        if not spec.poly_moment("psi", diff * tail, guard=reach).is_zero():
            return False
        tail = tail * p
    return True
