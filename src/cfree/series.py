"""Truncated formal power series and exact square matrices.

A TruncSeries is a list of coefficients c_0..c_N in one formal variable z,
carried to an explicit truncation order N.  Coefficients may live in any
of the package's rings: Gaussian rationals, square matrices over them, or
noncommutative polynomials.  Binary operations between series of
different orders truncate to the smaller order.

Three kernels do the work: cauchy (one coefficient of a product),
geometric ((1 - z s)^{-1}) and Powers (the powers of a series, grown one
coefficient at a time); settle drives every triangular fixed point.
What each operation needs of the coefficient ring:

- cauchy, and TruncSeries.__mul__ (cauchy at each index): +, * and
  is_zero(), with zero_like() for an empty sum;
- geometric (m_t from cauchy of s with m_0..m_{t-1}): the same plus
  one_like(), and no - or inverse(), so noncommutative entries serve;
- TruncSeries.inverse (d_n from cauchy of the tail with d_0..d_{n-1}):
  the same plus unary - and inverse() of the constant term;
- Powers, and compose and compose_shifted (one table of the inner
  series' powers, read by combine): +, *, is_zero(), zero_like(),
  one_like(), and a scalar times an element (SquareMatrix.__rmul__);
- revert: scalar coefficients only.

A SquareMatrix has one left-scalar path, scale (also __rmul__), and one
elimination, a Gauss-Jordan pass that gives both inverse() and det();
its entries need inverse() for the pivots.
"""

from __future__ import annotations

from .errors import DomainError, Frozen, InternalError
from .scalars import GQ_ONE, GQ_ZERO


class TruncSeries(Frozen):
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(coeffs)
        if not coeffs:
            raise DomainError("a truncated series needs at least order 0")
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order):
        """The series value + 0*z + ... + 0*z^order."""
        zero = value.zero_like()
        return cls((value,) + (zero,) * order)

    def coeff(self, k):
        return self.coeffs[k]

    def truncated(self, order):
        if order > self.order:
            raise DomainError("cannot extend a truncated series")
        return TruncSeries(self.coeffs[: order + 1])

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    # -- arithmetic -----------------------------------------------------

    def _common_order(self, other):
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common_order(other)
        return TruncSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(n + 1))
        )

    def __sub__(self, other):
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common_order(other)
        return TruncSeries(
            tuple(self.coeffs[k] - other.coeffs[k] for k in range(n + 1))
        )

    def __neg__(self):
        return TruncSeries(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        """Cauchy product, truncated to the smaller order."""
        if not isinstance(other, TruncSeries):
            return NotImplemented
        p, q = self.coeffs, other.coeffs
        zero = p[0].zero_like() * q[0].zero_like()
        return TruncSeries(
            cauchy(p, q, k, zero) for k in range(self._common_order(other) + 1)
        )

    def shift(self, k=1):
        """Multiply by z^k, dropping whatever overflows the order."""
        if k < 0:
            raise DomainError("negative shift")
        n = len(self.coeffs)
        k = min(k, n)
        return TruncSeries((self.coeffs[0].zero_like(),) * k + self.coeffs[: n - k])

    def map(self, fn):
        return TruncSeries(tuple(fn(c) for c in self.coeffs))

    # -- the three structural operations ---------------------------------

    def inverse(self):
        """Multiplicative inverse; needs an invertible constant term.

        Solved coefficient by coefficient: d_0 = c_0^{-1} and
        d_n = -c_0^{-1} * sum_{k>=1} c_k d_{n-k}.  For matrix coefficients
        this produces the two-sided inverse because c_0 is.
        """
        c0, tail = self.coeffs[0], self.coeffs[1:]
        try:
            c0_inv = c0.inverse()
        except DomainError:
            raise DomainError("series inverse needs invertible constant term")
        zero = c0.zero_like()
        out = [c0_inv]
        for n in range(1, self.order + 1):
            acc = cauchy(tail, out, n - 1, zero)
            out.append(zero if acc.is_zero() else -(c0_inv * acc))
        return TruncSeries(out)

    def compose(self, inner):
        """sum_k c_k * inner^k for an inner series with zero constant term.

        The outer series must have scalar (GaussianRational) coefficients;
        the inner may be scalar- or matrix-valued.  The result has the
        inner series' order.
        """
        if not inner.coeffs[0].is_zero():
            raise DomainError("composition needs inner constant term zero")
        powers = Powers(inner.coeffs[0].one_like())
        out = []
        for t, c in enumerate(inner.coeffs):
            powers.extend(c)
            out.append(powers.combine(self.coeffs, t))
        return TruncSeries(out)

    def compose_shifted(self, inner):
        """sum_{k>=1} c_k * inner^{k-1} (inner constant term must be zero).

        This is the application of a shifted transform: when the stored
        coefficients are Boolean cumulants b_k at z^k, the result is
        sum_k b_k W^{k-1} for a matrix argument W.
        """
        if not inner.coeffs[0].is_zero():
            raise DomainError("shifted composition needs inner constant term zero")
        if self.order < 1:
            return TruncSeries.constant(inner.coeffs[0], inner.order)
        return TruncSeries(self.coeffs[1:]).compose(inner)

    def revert(self):
        """Compositional inverse g with self(g(z)) = z + O(z^{N+1}).

        Requires c_0 = 0 and c_1 invertible, scalar coefficients only.
        Lagrange inversion: g_n = (1/n) [z^{n-1}] q^n with q = z / self(z),
        the inverse of c_1 + c_2 z + ... + c_N z^{N-1}.
        """
        if not self.coeffs[0].is_zero():
            raise DomainError("reversion needs zero constant term")
        n = self.order
        if n < 1 or self.coeffs[1].is_zero():
            raise DomainError("reversion needs an invertible linear term")
        q = TruncSeries(self.coeffs[1:]).inverse()
        power = q
        g = [self.coeffs[0], q.coeffs[0]]
        for k in range(2, n + 1):
            power = power * q
            g.append(power.coeffs[k - 1] / k)
        return TruncSeries(tuple(g))


def cauchy(p, q, k, zero):
    """[z^k] of the product of coefficient lists p and q (p on the left)."""
    acc = None
    for j in range(k + 1):
        a = p[j]
        b = q[k - j]
        if a.is_zero() or b.is_zero():
            continue
        term = a * b
        acc = term if acc is None else acc + term
    return zero if acc is None else acc


def geometric(s, order):
    """(1 - z s)^{-1} to the order: m_0 = 1, m_t = sum_j s_j m_{t-1-j}.

    s holds at least order coefficients and multiplies from the left.
    """
    s = s.coeffs
    one = s[0].one_like()
    zero = one.zero_like()
    out = [one]
    for t in range(1, order + 1):
        out.append(cauchy(s, out, t - 1, zero))
    return TruncSeries(out)


def settle(step, sweep, width, order):
    """Solve a triangular fixed point online, then certify it.

    step(blocks, t) returns the z^t coefficient of each of the width
    blocks, computed only from the coefficients below t that blocks (the
    lists grown so far) hold.  After the steps t = 0 ... order, one sweep
    at the full order, sweep(series, order), recomputes every block from
    scratch; it must return the grown series unchanged, or InternalError
    is raised.
    """
    blocks = tuple([] for _ in range(width))
    for t in range(order + 1):
        for block, c in zip(blocks, step(blocks, t)):
            block.append(c)
    grown = tuple(TruncSeries(block) for block in blocks)
    if sweep(grown, order) != grown:
        raise InternalError(
            "subordination fixed point failed to stabilize after %d sweeps"
            % (order + 2)
        )
    return grown


class Powers:
    """The powers W^0, W^1, ... of a series W that grows one coefficient
    at a time (W has zero constant term, so [z^t] W^m = 0 for m > t).

    extend(c) appends W's next coefficient c and every power's coefficient
    at that index, from the stored lower ones: nothing is rebuilt, and the
    table to index N costs O(N^3) ring products in all.  combine(b, t)
    reads [z^t] sum_m b[m] W^m as a scalar combination.
    """

    __slots__ = ("one", "zero", "powers")

    def __init__(self, one):
        self.one = one
        self.zero = one.zero_like()
        self.powers = [[], []]  # powers[m][j] = [z^j] W^m

    def __len__(self):
        """How many coefficients of W the table holds."""
        return len(self.powers[1])

    def extend(self, c):
        powers = self.powers
        t = len(powers[0])
        powers[0].append(self.one if t == 0 else self.zero)
        w = powers[1]
        w.append(c)
        if t >= 2:
            powers.append([self.zero] * t)
        for m in range(2, len(powers)):
            powers[m].append(cauchy(powers[m - 1], w, t, self.zero))

    def combine(self, b, t):
        acc = None
        powers = self.powers
        for m in range(min(t, len(b) - 1) + 1):
            power = powers[m][t]
            if b[m].is_zero() or power.is_zero():
                continue
            term = b[m] * power
            acc = term if acc is None else acc + term
        return self.zero if acc is None else acc


class SquareMatrix(Frozen):
    """A dense square matrix over any of the package's exact rings."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise DomainError("matrix must be square")
        if n == 0:
            raise DomainError("empty matrix")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self):
        return len(self.rows)

    @classmethod
    def identity(cls, n, one=GQ_ONE):
        zero = one.zero_like()
        return cls(
            tuple(
                tuple(one if i == j else zero for j in range(n))
                for i in range(n)
            )
        )

    @classmethod
    def zeros(cls, n, zero=GQ_ZERO):
        return cls(((zero,) * n,) * n)

    def entry(self, i, j):
        return self.rows[i][j]

    def is_zero(self):
        return all(e.is_zero() for row in self.rows for e in row)

    def zero_like(self):
        z = self.rows[0][0].zero_like()
        return SquareMatrix.zeros(self.n, z)

    def one_like(self):
        return SquareMatrix.identity(self.n, self.rows[0][0].one_like())

    def map(self, fn):
        return SquareMatrix(tuple(tuple(fn(e) for e in row) for row in self.rows))

    def __add__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return SquareMatrix(
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __sub__(self, other):
        if not isinstance(other, SquareMatrix):
            return NotImplemented
        return SquareMatrix(
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            )
        )

    def __neg__(self):
        return self.map(lambda e: -e)

    def __mul__(self, other):
        if isinstance(other, SquareMatrix):
            n = self.n
            if other.n != n:
                raise DomainError("matrix size mismatch")
            cols = tuple(
                tuple((k, b) for k, b in enumerate(col) if not b.is_zero())
                for col in zip(*other.rows)
            )
            zero = self.rows[0][0].zero_like() * other.rows[0][0].zero_like()
            out = []
            for row in self.rows:
                live = [not a.is_zero() for a in row]
                out_row = []
                for col in cols:
                    acc = None
                    for k, b in col:
                        if not live[k]:
                            continue
                        term = row[k] * b
                        acc = term if acc is None else acc + term
                    out_row.append(zero if acc is None else acc)
                out.append(tuple(out_row))
            return SquareMatrix(tuple(out))
        # scalar from the right
        return self.map(lambda e: e * other)

    def scale(self, scalar):
        """scalar * self; a zero entry becomes the product ring's zero."""
        zero = scalar * self.rows[0][0].zero_like()
        return SquareMatrix(
            tuple(
                tuple(zero if e.is_zero() else scalar * e for e in row)
                for row in self.rows
            )
        )

    __rmul__ = scale  # a scalar from the left

    def _eliminate(self):
        """One Gauss-Jordan pass, first nonzero pivot: (det, inverse).

        Entries must support inverse(); the inverse is None (and the
        determinant zero) when the matrix is singular.
        """
        n = self.n
        zero = self.rows[0][0].zero_like()
        one = self.rows[0][0].one_like()
        work = [list(row) for row in self.rows]
        aug = [
            [one if i == j else zero for j in range(n)] for i in range(n)
        ]
        det = one
        for col in range(n):
            pivot_row = next(
                (r for r in range(col, n) if not work[r][col].is_zero()), None
            )
            if pivot_row is None:
                return zero, None
            if pivot_row != col:
                work[col], work[pivot_row] = work[pivot_row], work[col]
                aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
                det = -det
            det = det * work[col][col]
            pivot_inv = work[col][col].inverse()
            work[col] = [pivot_inv * e for e in work[col]]
            aug[col] = [pivot_inv * e for e in aug[col]]
            for r in range(n):
                if r == col:
                    continue
                factor = work[r][col]
                if factor.is_zero():
                    continue
                work[r] = [
                    e - factor * p for e, p in zip(work[r], work[col])
                ]
                aug[r] = [e - factor * p for e, p in zip(aug[r], aug[col])]
        return det, SquareMatrix(aug)

    def det(self):
        """The determinant: the product of the pivots, signed by the swaps."""
        return self._eliminate()[0]

    def inverse(self):
        """Exact inverse; raises DomainError when the matrix is singular."""
        inverse = self._eliminate()[1]
        if inverse is None:
            raise DomainError("matrix is singular")
        return inverse

    def apply_bilinear(self, left, right):
        """left^T * self * right for plain sequences of entries."""
        acc = None
        for i, row in enumerate(self.rows):
            li = left[i]
            if li.is_zero():
                continue
            for j, e in enumerate(row):
                rj = right[j]
                if rj.is_zero() or e.is_zero():
                    continue
                term = li * e * rj
                acc = term if acc is None else acc + term
        if acc is None:
            acc = self.rows[0][0].zero_like()
        return acc
