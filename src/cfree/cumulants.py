"""Moment and cumulant sequences of a single variable, and conversions.

Boolean cumulants come from the deconcatenation recursion, which is the
series identity eta = 1 - 1/M.  Free and c-free cumulants come from one
change of variable.  With M = M_psi, R(w) = sum r_n w^n and
Rc(w) = sum rc_n w^{n-1}, the series g(z) = z M(z) has the compositional
inverse h(w) = w / (1 + R(w)), and

    R = (M - 1) o h,   read off by Lagrange-Buermann as
                       r_n = (1/n) [z^{n-1}] M'(z) M(z)^{-n},
    Rc = (eta_phi o h) / h,   with eta_phi = 1 - 1/M_phi.

The inverse maps revert h: M = g / z and M_phi = 1 / (1 - z Rc(g)).
Every map is exact over Q(i) and costs at most O(N^3) at order N.  The
partition sums below (partition_weight, partitioned_functional) are the
definitions; the tests sum them over noncrossing partitions as the slow,
independent cross-check of these identities.
"""

from __future__ import annotations

from .errors import DomainError
from .partitions import enumerate_interval, outer_inner
from .scalars import GQ_ONE, GQ_ZERO, GaussianRational
from .series import TruncSeries

MOMENT_STATES = ("psi", "phi")
CUMULANT_KINDS = ("boolean-psi", "boolean-phi", "free-psi", "cfree")


def _coerce_values(values):
    out = []
    for v in values:
        if isinstance(v, int):
            v = GaussianRational(v)
        if not isinstance(v, GaussianRational):
            raise DomainError("sequence entries must be rational scalars")
        out.append(v)
    return tuple(out)


class MomentSeq:
    """Moments m_1..m_N of one variable under a named state."""

    __slots__ = ("state", "values")

    def __init__(self, values, state="psi"):
        if state not in MOMENT_STATES:
            raise DomainError("unknown state tag %r" % (state,))
        object.__setattr__(self, "state", state)
        object.__setattr__(self, "values", _coerce_values(values))

    def __setattr__(self, name, value):
        raise AttributeError("MomentSeq is immutable")

    @property
    def order(self):
        return len(self.values)

    def moment(self, k):
        """m_k, with m_0 = 1."""
        if k == 0:
            return GQ_ONE
        if not 1 <= k <= self.order:
            raise DomainError("moment index %d outside declared order" % k)
        return self.values[k - 1]

    def series(self):
        """The moment generating function 1 + m_1 z + ... + m_N z^N."""
        return TruncSeries((GQ_ONE,) + self.values)

    def __eq__(self, other):
        if not isinstance(other, MomentSeq):
            return NotImplemented
        return self.state == other.state and self.values == other.values

    def __hash__(self):
        return hash((self.state, self.values))

    def __repr__(self):
        return "MomentSeq(%r, state=%r)" % (list(self.values), self.state)


class CumulantSeq:
    """Cumulants c_1..c_N with a kind tag fixing their meaning."""

    __slots__ = ("kind", "values")

    def __init__(self, values, kind):
        if kind not in CUMULANT_KINDS:
            raise DomainError("unknown cumulant kind %r" % (kind,))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", _coerce_values(values))

    def __setattr__(self, name, value):
        raise AttributeError("CumulantSeq is immutable")

    @property
    def order(self):
        return len(self.values)

    def value(self, k):
        if not 1 <= k <= self.order:
            raise DomainError("cumulant index %d outside declared order" % k)
        return self.values[k - 1]

    def __eq__(self, other):
        if not isinstance(other, CumulantSeq):
            return NotImplemented
        return self.kind == other.kind and self.values == other.values

    def __hash__(self):
        return hash((self.kind, self.values))

    def __repr__(self):
        return "CumulantSeq(%r, kind=%r)" % (list(self.values), self.kind)


def eta_series(boolean, order=None):
    """eta(z) = sum beta_k z^k as a series with zero constant term."""
    order = boolean.order if order is None else order
    if order > boolean.order:
        raise DomainError("eta requested beyond available cumulants")
    return TruncSeries([GQ_ZERO] + [boolean.value(k) for k in range(1, order + 1)])


def _boolean_kind(state):
    return "boolean-psi" if state == "psi" else "boolean-phi"


def boolean_from_moments(m):
    """Deconcatenation recursion: m_n = sum_j beta_j m_{n-j}."""
    beta = []
    for n in range(1, m.order + 1):
        value = m.moment(n)
        for j in range(1, n):
            value = value - beta[j - 1] * m.moment(n - j)
        beta.append(value)
    return CumulantSeq(beta, _boolean_kind(m.state))


def moments_from_boolean(beta, state=None):
    if state is None:
        state = "phi" if beta.kind == "boolean-phi" else "psi"
    moments = []
    for n in range(1, beta.order + 1):
        value = beta.value(n)
        for j in range(1, n):
            prev = moments[n - j - 1] if n - j >= 1 else GQ_ONE
            value = value + beta.value(j) * prev
        moments.append(value)
    return MomentSeq(moments, state)


def _psi_reversion(r):
    """g = z M_psi(z), the compositional inverse of h(w) = w / (1 + R(w)).

    h is known to order N + 1 from N free cumulants, so g is too.
    """
    h = TruncSeries((GQ_ZERO,) + TruncSeries((GQ_ONE,) + r.values).inverse().coeffs)
    return h.revert()


def moments_from_free(r, state="psi"):
    """M = g / z with g the reversion of w / (1 + R(w))."""
    return MomentSeq(_psi_reversion(r).coeffs[2:], state)


def free_from_moments(m):
    """Lagrange-Buermann: r_n = (1/n) [z^{n-1}] M'(z) M(z)^{-n}."""
    slope = [k * v for k, v in enumerate(m.values, start=1)]
    inverse = m.series().inverse()
    power = inverse
    r = []
    for n in range(1, m.order + 1):
        value = GQ_ZERO
        for j in range(n):
            value = value + slope[j] * power.coeffs[n - 1 - j]
        r.append(value / n)
        power = power * inverse
    return CumulantSeq(r, "free-psi")


def phi_moments_from_cfree(cfree, r_psi):
    """M_phi = 1 / (1 - z Rc(g(z))) with Rc(w) = sum rc_k w^{k-1}, g = z M_psi.

    Outer blocks carry the c-free cumulants and everything nested inside
    them the psi data, which enters through g.
    """
    if cfree.order != r_psi.order:
        raise DomainError("cumulant orders differ")
    n = cfree.order
    g = _psi_reversion(r_psi).truncated(n)
    eta = TruncSeries((GQ_ZERO,) + cfree.values).compose_shifted(g).shift(1)
    m_phi = (TruncSeries.constant(GQ_ONE, n) - eta).inverse()
    return MomentSeq(m_phi.coeffs[1:], "phi")


def cfree_from_two_moments(m_phi, r_psi):
    """Rc(w) = eta_phi(h(w)) / h(w) with h(w) = w / (1 + R(w)).

    eta_phi = 1 - 1/M_phi is the phi-Boolean transform, and h / w is
    1 / (1 + R), so rc_k = [w^k] eta_phi(h) (1 + R).
    """
    if m_phi.order != r_psi.order:
        raise DomainError("orders differ")
    one_plus_r = TruncSeries((GQ_ONE,) + r_psi.values)
    h = one_plus_r.inverse().shift(1)
    eta = TruncSeries.constant(GQ_ONE, m_phi.order) - m_phi.series().inverse()
    return CumulantSeq((eta.compose(h) * one_plus_r).coeffs[1:], "cfree")


def partition_weight(p, seq):
    """prod over blocks V of seq_{|V|} for a single cumulant sequence."""
    value = GQ_ONE
    for block in p.blocks:
        value = value * seq.value(len(block))
    return value


def partition_weight_outer_inner(p, outer_seq, inner_seq):
    """Outer blocks weighted by one sequence, inner blocks by the other."""
    outer, inner = outer_inner(p)
    value = GQ_ONE
    for block in outer:
        value = value * outer_seq.value(len(block))
    for block in inner:
        value = value * inner_seq.value(len(block))
    return value


def partitioned_functional(fn, p, args):
    """prod over blocks of a multilinear functional on restricted args."""
    if len(args) != p.n:
        raise DomainError("argument count differs from ground set")
    value = GQ_ONE
    for block in p.blocks:
        value = value * fn(tuple(args[i - 1] for i in block))
    return value


def _cut_set(p):
    """Positions k with a block boundary between k and k+1 (intervals only)."""
    if not p.is_interval():
        raise DomainError("expected an interval partition")
    return {b[-1] for b in p.blocks} - {p.n}


def boolean_products_join(beta, rho, args):
    """Products-as-entries via the interval-lattice join condition.

    beta_m(prod_1, ..., prod_m) = sum of beta_pi over interval partitions
    pi of the letters whose cuts avoid every cut of rho.
    """
    forbidden = _cut_set(rho)
    if len(args) != rho.n:
        raise DomainError("argument count differs from ground set")
    total = GQ_ZERO
    for p in enumerate_interval(rho.n):
        if _cut_set(p) & forbidden:
            continue
        total = total + partitioned_functional(beta, p, args)
    return total


def boolean_products_recursive(beta, rho, args):
    """Products-as-entries by splitting off the leftmost cumulant block."""
    _cut_set(rho)
    if len(args) != rho.n:
        raise DomainError("argument count differs from ground set")
    ends = [b[-1] for b in rho.blocks]

    def rec(atoms, ends):
        total = beta(tuple(atoms))
        prev = 0
        for k, dk in enumerate(ends):
            for j in range(prev + 1, dk):
                left = beta(tuple(atoms[:j]))
                rest = rec(atoms[j:], [e - j for e in ends[k:]])
                total = total + left * rest
            prev = dk
        return total

    return rec(list(args), ends)


def boolean_products(beta, rho, args, method="recursive"):
    if method == "recursive":
        return boolean_products_recursive(beta, rho, args)
    if method == "join":
        return boolean_products_join(beta, rho, args)
    raise DomainError("unknown method %r" % (method,))
