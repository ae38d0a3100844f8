"""Linearizations: realize (1 - z^m P)^{-1} as a corner of a matrix resolvent.

The automaton states are the proper prefixes of the monomials of P (the
root is the empty word).  Reading a monomial walks up the trie through
unit edges and returns to the root by a completion edge carrying the
monomial's coefficient times z^{m-k}, so that every root-to-root segment
of length k contributes its monomial with total z-weight exactly z^m.
Summing over closed paths then gives

    u^t (I - z(A(z)X + B(z)Y))^{-1} v  =  sum_j z^{mj} P^j,

with A collecting the x-labeled edge weights at (source, target) and B
the y-labeled ones, and u = v = the root coordinate vector.
"""

from __future__ import annotations

from .errors import DomainError, Frozen, LimitError
from .ncpoly import NCPolynomial, _poly
from .scalars import GQ_ONE, GQ_ZERO
from .series import SquareMatrix, TruncSeries

MAX_PENCIL = 64  # states; the engine costs ~n^3 and n = 63 takes over a minute


class Linearization(Frozen):
    """Matrices A(z), B(z) as z-coefficient lists, plus the corner vectors."""

    __slots__ = ("n", "m", "a_coeffs", "b_coeffs", "u", "v")

    def __init__(self, n, m, a_coeffs, b_coeffs, u, v):
        a_coeffs = tuple(a_coeffs)
        b_coeffs = tuple(b_coeffs)
        for mat in a_coeffs + b_coeffs:
            if mat.n != n:
                raise DomainError("matrix size differs from state count")
        if len(u) != n or len(v) != n:
            raise DomainError("corner vectors must have one entry per state")
        super().__init__(n, m, a_coeffs, b_coeffs, tuple(u), tuple(v))

    def corner(self, series):
        """u^t S(z) v for a series S of matrices with scalar or polynomial
        entries: the engine's moment transforms and condexp's resolvents."""
        return series.map(lambda mat: mat.apply_bilinear(self.u, self.v))

    def resolvent_corner(self, order):
        """u^t (I - zL)^{-1} v as a polynomial-coefficient series.

        Reads the rows r_t = u^t [z^t] (I - zL)^{-1} by r_0 = u^t and
        r_t = sum_{j+k=t-1} r_j L_k, with L_k = A_k X + B_k Y: n^2
        polynomial products a step, where the whole matrix series needs
        n^3.  Each row is kept with x and with y appended to its entries.
        """
        pencil = (("x", self.a_coeffs), ("y", self.b_coeffs))
        lifted = []
        out = []
        for t in range(order + 1):
            if t == 0:
                row = [NCPolynomial.scalar(c) for c in self.u]
            else:
                row = [NCPolynomial.zero()] * self.n
            for k in range(t):
                for (_, coeffs), step in zip(pencil, lifted[t - 1 - k]):
                    if k < len(coeffs):
                        for r, weights in zip(step, coeffs[k].rows):
                            for j, c in enumerate(weights):
                                row[j] = _add_scaled(row[j], c, r)
            lifted.append(
                tuple([_append(r, letter) for r in row] for letter, _ in pencil)
            )
            acc = NCPolynomial.zero()
            for r, c in zip(row, self.v):
                acc = _add_scaled(acc, c, r)
            out.append(acc)
        return TruncSeries(out)


def _append(poly, letter):
    """poly * letter, without multiplying any coefficient by one."""
    return _poly({w + letter: pair for w, pair in poly._pairs.items()}, poly._den)


def _add_scaled(acc, c, r):
    """acc + c r for a scalar c, multiplying only when c is not 0 or 1."""
    if c.is_zero() or r.is_zero():
        return acc
    return acc + (r if c == GQ_ONE else c * r)


def linearize(p):
    """Prefix-trie linearization of a polynomial with zero constant term."""
    if not isinstance(p, NCPolynomial) or p.is_zero():
        raise DomainError("cannot linearize the zero polynomial")
    if not p.constant_coefficient().is_zero():
        raise DomainError(
            "constant terms only translate the distribution; shift them off"
        )
    m = p.degree()
    words = p.words()
    states = {"": 0}
    for word in words:
        for k in range(1, len(word)):
            states.setdefault(word[:k], len(states))
    n = len(states)
    if n > MAX_PENCIL:
        raise LimitError(
            "the pencil of this polynomial has %d states, past the ceiling %d"
            % (n, MAX_PENCIL)
        )

    # (power, src, dst) -> weight per letter.  No key repeats: a state has
    # one parent, and a monomial one longest proper prefix.
    tables = {"x": {}, "y": {}}
    for state, dst in states.items():
        if state:
            tables[state[-1]][0, states[state[:-1]], dst] = GQ_ONE
    terms = p.terms
    for word in words:
        tables[word[-1]][m - len(word), states[word[:-1]], 0] = terms[word]

    powers = m - len(words[0]) + 1  # words run shortest first

    def build(table):
        stack = [[[GQ_ZERO] * n for _ in range(n)] for _ in range(powers)]
        for (power, src, dst), weight in table.items():
            stack[power][src][dst] = weight
        return [SquareMatrix(rows) for rows in stack]

    unit = [GQ_ONE] + [GQ_ZERO] * (n - 1)
    return Linearization(n, m, build(tables["x"]), build(tables["y"]), unit, unit)


def geometric_corner(p, m, order):
    """sum_j z^{mj} P^j truncated: the target of every linearization.

    A pencil lin realizes P to the order exactly when
    lin.resolvent_corner(order) == geometric_corner(P, lin.m, order).
    """
    zero = NCPolynomial.zero()
    coeffs = [zero] * (order + 1)
    power = NCPolynomial.one()
    j = 0
    while j * m <= order:
        coeffs[j * m] = power
        power = power * p
        j += 1
    return TruncSeries(coeffs)
