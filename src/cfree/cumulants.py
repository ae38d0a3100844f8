"""Moment and cumulant sequences of a single variable, and conversions.

Boolean cumulants come from the deconcatenation recursion, which is the
series identity eta = 1 - 1/M.  Free and c-free cumulants are two
triangular solves on one table of the powers of g(z) = z M_psi(z).  With
R(w) = sum r_n w^n and Rc(w) = sum rc_n w^{n-1},

    M_psi = 1 + R(g),      so  r_n = m_n - sum_{s<n} r_s [z^n] g^s,
    eta_phi = z Rc(g),     so  rc_n = beta^phi_n - sum_{k<n} rc_k [z^{n-1}] g^{k-1}

(Nica-Speicher, Lectures on the Combinatorics of Free Probability, Lect.
16), where [z^n] g^n = 1 and eta_phi = 1 - 1/M_phi is the phi-Boolean
transform.  A CumulantTable grows the table one index at a time, and each
sequence only to the order read; the whole table to order N costs
O(N^3).  The inverse maps revert g through h(w) = w / (1 + R(w)), its
compositional inverse: M = g / z and M_phi = 1 / (1 - z Rc(g)).  Every
map is exact over Q(i).  The partition sums that define the cumulants
live with the tests (tests/reference.py), which sum them over
noncrossing partitions as the slow, independent cross-check of these
identities.
"""

from __future__ import annotations

from .errors import DomainError, Frozen
from .scalars import GQ_ONE, GQ_ZERO, as_gaussian
from .series import Powers, TruncSeries, cauchy, geometric

MOMENT_STATES = ("psi", "phi")
CUMULANT_KINDS = ("boolean-psi", "boolean-phi", "free-psi", "cfree")


class _TaggedSeq(Frozen):
    """Exact values m_1..m_N (or c_1..c_N) under a tag from TAGS; a
    subclass lists its slots as (tag, values)."""

    __slots__ = ()

    def __init__(self, values, tag):
        if tag not in self.TAGS:
            raise DomainError(self.BAD_TAG % (tag,))
        out = []
        for v in values:
            v = as_gaussian(v)
            if v is None:
                raise DomainError("sequence entries must be rational scalars")
            out.append(v)
        super().__init__(tag, tuple(out))

    @property
    def order(self):
        return len(self.values)


class MomentSeq(_TaggedSeq):
    """Moments m_1..m_N of one variable under a named state."""

    __slots__ = ("state", "values")
    TAGS = MOMENT_STATES
    BAD_TAG = "unknown state tag %r"

    def __init__(self, values, state="psi"):
        super().__init__(values, state)

    def moment(self, k):
        """m_k, with m_0 = 1."""
        if k == 0:
            return GQ_ONE
        if not 1 <= k <= self.order:
            raise DomainError("moment index %d outside declared order" % k)
        return self.values[k - 1]


class CumulantSeq(_TaggedSeq):
    """Cumulants c_1..c_N with a kind tag fixing their meaning."""

    __slots__ = ("kind", "values")
    TAGS = CUMULANT_KINDS
    BAD_TAG = "unknown cumulant kind %r"

    def __init__(self, values, kind):
        super().__init__(values, kind)

    def value(self, k):
        if not 1 <= k <= self.order:
            raise DomainError("cumulant index %d outside declared order" % k)
        return self.values[k - 1]


def eta_series(boolean):
    """eta(z) = sum beta_k z^k as a series with zero constant term."""
    return TruncSeries((GQ_ZERO,) + boolean.values)


def _boolean_kind(state):
    return "boolean-psi" if state == "psi" else "boolean-phi"


def _extend_boolean(beta, moments, order):
    """Grow beta in place to the order: m_n = sum_j beta_j m_{n-j}."""
    for n in range(len(beta) + 1, order + 1):
        # beta[i] = beta_{i+1}, moments[i] = m_{i+1}: the sum over j < n
        beta.append(moments[n - 1] - cauchy(beta, moments, n - 2, GQ_ZERO))
    return beta


def boolean_from_moments(m):
    """Deconcatenation recursion: m_n = sum_j beta_j m_{n-j}."""
    return CumulantSeq(_extend_boolean([], m.values, m.order), _boolean_kind(m.state))


def moments_from_boolean(beta):
    """M = 1 / (1 - eta), the inverse of the deconcatenation recursion."""
    state = "phi" if beta.kind == "boolean-phi" else "psi"
    # eta = z s with s_k = beta_{k+1}; the padding keeps s nonempty
    m = geometric(TruncSeries(beta.values + (GQ_ZERO,)), beta.order)
    return MomentSeq(m.coeffs[1:], state)


def _psi_reversion(r):
    """g = z M_psi(z), the compositional inverse of h(w) = w / (1 + R(w)).

    h is known to order N + 1 from N free cumulants, so g is too.
    """
    h = TruncSeries((GQ_ZERO,) + TruncSeries((GQ_ONE,) + r.values).inverse().coeffs)
    return h.revert()


def moments_from_free(r):
    """psi-moments: M = g / z with g the reversion of w / (1 + R(w))."""
    return MomentSeq(_psi_reversion(r).coeffs[2:], "psi")


class CumulantTable:
    """Boolean, free and c-free cumulants of one variable, grown on demand.

    psi and phi are the moment values m_1..m_N under each state.  Each
    read grows its sequence, and the table of the powers of g = z M_psi
    that the free and c-free solves share, only to the order it asks for;
    the lists it returns are the table's own, grown in place later.
    """

    __slots__ = ("moments", "g", "boolean", "free", "cfree", "powers")

    def __init__(self, psi, phi):
        self.moments = {"psi": psi, "phi": phi}
        self.g = (GQ_ZERO, GQ_ONE) + psi  # g = z M_psi
        self.boolean = {"psi": [], "phi": []}
        self.free = []
        self.cfree = []
        self.powers = Powers(GQ_ONE)

    def _grow_powers(self, t):
        """The powers of g to the coefficient of z^t."""
        for j in range(len(self.powers), t + 1):
            self.powers.extend(self.g[j])

    def booleans(self, state, order):
        return _extend_boolean(self.boolean[state], self.moments[state], order)

    def frees(self, order):
        """r_n = m_n - sum_{s<n} r_s [z^n] g^s."""
        r = self.free
        if len(r) < order:
            self._grow_powers(order)
            psi = self.moments["psi"]
            coeffs = [GQ_ZERO] + r  # coeffs[s] multiplies g^s
            for n in range(len(r) + 1, order + 1):
                value = psi[n - 1] - self.powers.combine(coeffs, n)
                r.append(value)
                coeffs.append(value)
        return r

    def cfrees(self, order):
        """rc_n = beta^phi_n - sum_{k<n} rc_k [z^{n-1}] g^{k-1}."""
        rc = self.cfree
        if len(rc) < order:
            beta = self.booleans("phi", order)
            self._grow_powers(order - 1)
            for n in range(len(rc) + 1, order + 1):
                rc.append(beta[n - 1] - self.powers.combine(rc, n - 1))
        return rc


def free_from_moments(m):
    """Free cumulants by the triangular solve r_n = m_n - sum r_s [z^n] g^s."""
    return CumulantSeq(CumulantTable(m.values, None).frees(m.order), "free-psi")


def phi_moments_from_cfree(cfree, r_psi):
    """M_phi = 1 / (1 - z Rc(g(z))) with Rc(w) = sum rc_k w^{k-1}, g = z M_psi.

    Outer blocks carry the c-free cumulants and everything nested inside
    them the psi data, which enters through g.
    """
    if cfree.order != r_psi.order:
        raise DomainError("cumulant orders differ")
    n = cfree.order
    g = _psi_reversion(r_psi).truncated(n)
    rc_of_g = TruncSeries((GQ_ZERO,) + cfree.values).compose_shifted(g)
    return MomentSeq(geometric(rc_of_g, n).coeffs[1:], "phi")


def cfree_from_two_moments(m_phi, m_psi):
    """C-free cumulants of the phi moments over the psi moments.

    The triangular solve rc_n = beta^phi_n - sum rc_k [z^{n-1}] g^{k-1},
    g = z M_psi: everything nested inside an outer block enters through g.
    """
    if m_phi.order != m_psi.order:
        raise DomainError("orders differ")
    table = CumulantTable(m_psi.values, m_phi.values)
    return CumulantSeq(table.cfrees(m_phi.order), "cfree")
