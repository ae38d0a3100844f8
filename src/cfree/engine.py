"""Matrix fixed-point engine for sums A(z) X + B(z) Y.

Given a two-state spec and the z-coefficients of square matrices A, B
(the pencil of a linearization), the engine solves the coupled
subordination system

    H_X = (I - z A F_X)^{-1}        F_X  = etat^psi_X(z H_Y A)
    H_Y = (I - z B F_Y)^{-1}        F_Y  = etat^psi_Y(z H_X B)
                                    F^phi_X = etat^phi_X(z H_Y A)
                                    F^phi_Y = etat^phi_Y(z H_X B)

where etat is the shifted Boolean cumulant transform of the appropriate
marginal, applied to a matrix argument.  The moment transforms of the sum
are matrix geometric series in the solved blocks, built only when read
(EngineState.mgf):

    M^phi(z) = (I - z A F^phi_X - z B F^phi_Y)^{-1}
    M^psi(z) = (I - z A F_X    - z B F_Y   )^{-1}

Everything is exact: the system is triangular order by order, so it is
solved online (van der Hoeven's relaxed scheme): at step t each psi block
gains its z^t coefficient, computed from the coefficients below t, and
the powers of each argument W = z H_Y A, z H_X B gain one coefficient
too instead of being rebuilt.  One sweep at the full order, recomputing
everything from scratch, certifies the fixed point.  The phi blocks do
not feed back; they are scalar combinations of the stored powers.

Order bookkeeping: with target order N, the six subordination blocks are
carried at order N-1 (their z^N coefficients would need cumulants of order
N+1, which a spec of order N does not hold) and the moment transforms at
order N.  A spec of order >= N is exactly enough.  The z^k coefficient of
A or B first enters at z^(k+1), so those with k >= N are dropped.
"""

from __future__ import annotations

from .errors import DomainError, Frozen, InternalError
from .linearize import linearize
from .ncpoly import parse_poly
from .scalars import GQ_ONE
from .series import Powers, SquareMatrix, TruncSeries, cauchy, geometric, settle
from .cumulants import MomentSeq

__all__ = [
    "EngineState",
    "solve_fixed_point",
    "poly_distribution",
]


def _as_matrix_series(coeffs, order):
    """A's z-coefficient stack as a matrix series at the given order.

    coeffs lists SquareMatrix z-coefficients of one size, z^k at position
    k, as Linearization.a_coeffs does; those past the order are dropped.
    Returns the series and the matrix size.
    """
    stack = () if isinstance(coeffs, SquareMatrix) else tuple(coeffs)
    if not stack or not all(isinstance(mat, SquareMatrix) for mat in stack):
        raise DomainError("A and B are nonempty stacks of SquareMatrix coefficients")
    n = stack[0].n
    if any(mat.n != n for mat in stack):
        raise DomainError("matrix coefficients must be square and same size")
    zero = SquareMatrix.zeros(n)
    padded = stack[: order + 1] + (zero,) * (order + 1 - len(stack))
    return TruncSeries(padded), n


class EngineState(Frozen):
    """Solved fixed point: the pencil and the six subordination blocks.

    The blocks h_x, h_y, f_x, f_y, f_x_phi, f_y_phi share one truncation
    order (N-1 for a target order N); mgf builds a moment transform at
    order N from them on each call.  Instances are immutable once built.
    """

    __slots__ = (
        "order",
        "n",
        "a",
        "b",
        "h_x",
        "h_y",
        "f_x",
        "f_y",
        "f_x_phi",
        "f_y_phi",
    )

    def mgf(self, which):
        """M(z) = (I - z A F_X - z B F_Y)^{-1} for state which."""
        if which == "phi":
            f_x, f_y = self.f_x_phi, self.f_y_phi
        elif which == "psi":
            f_x, f_y = self.f_x, self.f_y
        else:
            raise DomainError("which must be 'phi' or 'psi'")
        return geometric(self.a * f_x + self.b * f_y, self.order)


def _sweep(spec, a_s, b_s, ident, blocks, t):
    """The four psi blocks at order t, recomputed from scratch (H by the
    series inverse: the certificate must not trust the online kernels)."""
    h_x, h_y, f_x, f_y = blocks
    return (
        (ident - (a_s * f_x).shift(1)).inverse(),
        (ident - (b_s * f_y).shift(1)).inverse(),
        spec.eta("x", "psi", t + 1).compose_shifted((h_y * a_s).shift(1)),
        spec.eta("y", "psi", t + 1).compose_shifted((h_x * b_s).shift(1)),
    )


def solve_fixed_point(spec, a, b, order):
    """Solve the subordination system for A X + B Y at the given order.

    A and B are stacks of SquareMatrix z-coefficients of one size, as
    Linearization.a_coeffs and b_coeffs.  Needs spec.order >= order.
    Grows the psi blocks one coefficient at a time; a last sweep at the
    full order must return them unchanged, or InternalError is raised.
    Builds no moment transform: EngineState.mgf does, when read.
    """
    if order < 0:
        raise DomainError("order must be >= 0")
    if spec.order < order:
        raise DomainError(
            "engine order %d exceeds spec order %d" % (order, spec.order)
        )
    sub = max(order - 1, 0)
    a_s, n = _as_matrix_series(a, sub)
    b_s, nb = _as_matrix_series(b, sub)
    if nb != n:
        raise DomainError("A and B must have the same size")

    one = SquareMatrix.identity(n)
    zero = SquareMatrix.zeros(n)
    a_c, b_c = a_s.coeffs, b_s.coeffs
    # [z^t] sum_k b_k W^{k-1} reads b_k for k <= t + 1, and the blocks
    # stop at t = sub: the Boolean cumulants to order sub + 1 suffice
    eta_x, eta_y = (spec.eta(ch, "psi", sub + 1).coeffs[1:] for ch in "xy")
    w_x, w_y = Powers(one), Powers(one)  # W_X = z H_Y A, W_Y = z H_X B
    af, bf = [], []  # A F_X and B F_Y

    def step(blocks, t):
        h_x, h_y, f_x, f_y = blocks
        if t == 0:
            w_x.extend(zero)
            w_y.extend(zero)
            return one, one, w_x.combine(eta_x, 0), w_y.combine(eta_y, 0)
        af.append(cauchy(a_c, f_x, t - 1, zero))
        bf.append(cauchy(b_c, f_y, t - 1, zero))
        w_x.extend(cauchy(h_y, a_c, t - 1, zero))
        w_y.extend(cauchy(h_x, b_c, t - 1, zero))
        return (
            cauchy(af, h_x, t - 1, zero),  # H = I + z A F H
            cauchy(bf, h_y, t - 1, zero),
            w_x.combine(eta_x, t),
            w_y.combine(eta_y, t),
        )

    ident = TruncSeries.constant(one, sub)
    h_x, h_y, f_x, f_y = settle(
        step,
        lambda blocks, t: _sweep(spec, a_s, b_s, ident, blocks, t),
        4,
        sub,
    )
    phi_x, phi_y = (spec.eta(ch, "phi", sub + 1).coeffs[1:] for ch in "xy")
    f_x_phi = TruncSeries(w_x.combine(phi_x, t) for t in range(sub + 1))
    f_y_phi = TruncSeries(w_y.combine(phi_y, t) for t in range(sub + 1))

    return EngineState(order, n, a_s, b_s, h_x, h_y, f_x, f_y, f_x_phi, f_y_phi)


def poly_distribution(spec, p, state, order):
    """Moments of a polynomial P(X, Y) in the requested state, exactly.

    Linearizes P to a matrix pencil, solves the fixed point at order
    deg(P) * order, and reads the moments off the corner of the moment
    transform.  P must have zero constant term (a constant only shifts
    the distribution; remove it and add it back).  Needs spec.order >=
    deg(P) * order.
    """
    if isinstance(p, str):
        p = parse_poly(p)
    if state not in ("phi", "psi"):
        raise DomainError("state must be 'phi' or 'psi'")
    return _poly_moments(spec, p, order, (state,))[0]


def _poly_moments(spec, p, order, states):
    """poly_distribution for each of the states, from one engine solve."""
    if order < 0:
        raise DomainError("order must be >= 0")
    lin = linearize(p)
    eng_order = lin.m * order
    if spec.order < eng_order:
        raise DomainError(
            "degree-%d polynomial at order %d needs spec order >= %d, have %d"
            % (lin.m, order, eng_order, spec.order)
        )
    st = solve_fixed_point(spec, lin.a_coeffs, lin.b_coeffs, eng_order)
    out = []
    for state in states:
        corner = lin.corner(st.mgf(state))
        if not corner.coeff(0) == GQ_ONE:
            raise InternalError("corner series does not start at 1")
        for k in range(1, eng_order + 1):
            if k % lin.m and not corner.coeff(k).is_zero():
                raise InternalError(
                    "corner series has weight at z^%d, not a multiple of %d"
                    % (k, lin.m)
                )
        values = tuple(corner.coeff(lin.m * k) for k in range(1, order + 1))
        out.append(MomentSeq(values, state))
    return tuple(out)
