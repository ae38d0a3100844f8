"""Matrix fixed-point engine for sums A(z) X + B(z) Y.

Given a two-state spec and square matrix coefficients A, B (constant or
polynomial in z), the engine solves the coupled subordination system

    H_X = (I - z A F_X)^{-1}        F_X  = etat^psi_X(z H_Y A)
    H_Y = (I - z B F_Y)^{-1}        F_Y  = etat^psi_Y(z H_X B)
                                    F^phi_X = etat^phi_X(z H_Y A)
                                    F^phi_Y = etat^phi_Y(z H_X B)

where etat is the shifted Boolean cumulant transform of the appropriate
marginal, applied to a matrix argument.  The moment transforms of the sum
come out as matrix geometric series in the solved blocks:

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
N+1, which a spec of order N does not hold) and the two moment transforms
at order N.  A spec of order >= N is exactly enough.
"""

from __future__ import annotations

from .errors import DomainError, InternalError
from .linearize import linearize, word_resolvent
from .ncpoly import parse_poly
from .scalars import GQ_ONE, GaussianRational
from .series import Powers, SquareMatrix, TruncSeries, cauchy, geometric, settle
from .cumulants import MomentSeq

__all__ = [
    "EngineState",
    "resolvent_series",
    "solve_fixed_point",
    "poly_distribution",
]


def _coerce_matrix(mat):
    if isinstance(mat, SquareMatrix):
        return mat
    rows = tuple(
        tuple(
            e if isinstance(e, GaussianRational) else GaussianRational(e)
            for e in row
        )
        for row in mat
    )
    return SquareMatrix(rows)


def _as_matrix_series(coeffs, order):
    """Normalize A to a TruncSeries of SquareMatrix at the given order.

    Accepts a single matrix (constant in z, SquareMatrix or rows of
    scalars), a sequence of matrices (coefficient of z^k at position k),
    or a ready-made series.  Top coefficients beyond the order are
    dropped only if they are zero.
    """
    if isinstance(coeffs, SquareMatrix):
        return TruncSeries.constant(coeffs, order), coeffs.n
    if isinstance(coeffs, TruncSeries):
        stack = coeffs.coeffs
    else:
        stack = tuple(coeffs)
        if stack and not isinstance(stack[0], SquareMatrix):
            first = tuple(stack[0])
            if first and isinstance(first[0], (list, tuple)):
                stack = tuple(_coerce_matrix(m) for m in stack)
            else:
                mat = _coerce_matrix(stack)
                return TruncSeries.constant(mat, order), mat.n
    if not stack:
        raise DomainError("matrix coefficient stack is empty")
    n = stack[0].n
    for mat in stack:
        if not isinstance(mat, SquareMatrix) or mat.n != n:
            raise DomainError("matrix coefficients must be square and same size")
    for mat in stack[order + 1 :]:
        if not mat.is_zero():
            raise DomainError("matrix coefficients exceed the requested order")
    zero = SquareMatrix.zeros(n)
    padded = stack[: order + 1] + (zero,) * (order + 1 - len(stack))
    return TruncSeries(padded), n


def resolvent_series(a, b, order):
    """(I - z (A(z) X + B(z) Y))^{-1} as a matrix series over C<X,Y>.

    A and B take any form solve_fixed_point accepts.
    """
    a_s, n = _as_matrix_series(a, order)
    b_s, nb = _as_matrix_series(b, order)
    if nb != n:
        raise DomainError("A and B must have the same size")
    return word_resolvent(a_s.coeffs, b_s.coeffs, n, order)


class EngineState:
    """Solved fixed point: the six subordination blocks plus both MGFs.

    The blocks h_x, h_y, f_x, f_y, f_x_phi, f_y_phi share one truncation
    order (N-1 for a target order N); m_phi and m_psi sit at order N.
    Instances are immutable once built.
    """

    __slots__ = (
        "spec",
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
        "m_phi",
        "m_psi",
    )

    def __init__(self, **fields):
        for name in self.__slots__:
            object.__setattr__(self, name, fields[name])

    def __setattr__(self, name, value):
        raise AttributeError("EngineState is immutable")

    def mgf(self, which="phi"):
        if which == "phi":
            return self.m_phi
        if which == "psi":
            return self.m_psi
        raise DomainError("which must be 'phi' or 'psi'")

    def corner(self, u, v, which="phi"):
        """Scalar series u^t M(z) v for coefficient vectors u, v."""
        u = tuple(
            e if isinstance(e, GaussianRational) else GaussianRational(e)
            for e in u
        )
        v = tuple(
            e if isinstance(e, GaussianRational) else GaussianRational(e)
            for e in v
        )
        return self.mgf(which).map(lambda mat: mat.apply_bilinear(u, v))


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

    A and B may be constant matrices, stacks of z-coefficients, or matrix
    series; they must be square and of equal size.  Needs spec.order >=
    order.  Grows the psi blocks one coefficient at a time; a last sweep
    at the full order must return them unchanged, or InternalError is
    raised.
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

    return EngineState(
        spec=spec,
        order=order,
        n=n,
        a=a_s,
        b=b_s,
        h_x=h_x,
        h_y=h_y,
        f_x=f_x,
        f_y=f_y,
        f_x_phi=f_x_phi,
        f_y_phi=f_y_phi,
        m_phi=geometric(a_s * f_x_phi + b_s * f_y_phi, order),
        m_psi=geometric(a_s * f_x + b_s * f_y, order),
    )


def poly_distribution(spec, p, state="psi", order=None):
    """Moments of a polynomial P(X, Y) in the requested state, exactly.

    Linearizes P to a matrix pencil, solves the fixed point at order
    deg(P) * order, and reads the moments off the corner of the moment
    transform.  P must have zero constant term (a constant only shifts
    the distribution; remove it and add it back).  Needs spec.order >=
    deg(P) * order.
    """
    if isinstance(p, str):
        p = parse_poly(p)
    if order is None:
        raise DomainError("poly_distribution needs an explicit order")
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
        corner = st.corner(lin.u, lin.v, state)
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
