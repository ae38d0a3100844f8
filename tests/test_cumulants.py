import random
from fractions import Fraction

import pytest

from cfree.cumulants import (
    CumulantSeq,
    MomentSeq,
    boolean_from_moments,
    cfree_from_two_moments,
    eta_series,
    free_from_moments,
    moments_from_boolean,
    moments_from_free,
    phi_moments_from_cfree,
)
from cfree.errors import DomainError
from cfree.partitions import (
    SetPartition,
    enumerate_irreducible,
    enumerate_nc,
    is_ll,
)
from cfree.scalars import GQ_ONE, GQ_ZERO
from cfree.series import TruncSeries

from reference import (
    boolean_products_join,
    boolean_products_recursive,
    closure_check,
    discrete,
    gq,
    interval_closure,
    partition_weight,
    partition_weight_outer_inner,
    partitioned_functional,
)


def mseq(*ints, state="psi"):
    return MomentSeq(tuple(gq(c) for c in ints), state)


def cseq(kind, *ints):
    return CumulantSeq(tuple(gq(c) for c in ints), kind)


def rand_moments(rng, order, state="psi"):
    return MomentSeq(
        tuple(
            gq(Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
            for _ in range(order)
        ),
        state,
    )


SEMICIRCLE_M = mseq(0, 1, 0, 2, 0, 5)
BERNOULLI_M = mseq(0, 1, 0, 1, 0, 1)


# -- boolean --------------------------------------------------------------


def test_boolean_frozen():
    assert boolean_from_moments(SEMICIRCLE_M) == cseq(
        "boolean-psi", 0, 1, 0, 1, 0, 2
    )
    assert boolean_from_moments(BERNOULLI_M) == cseq(
        "boolean-psi", 0, 1, 0, 0, 0, 0
    )
    point = mseq(1, 1, 1, 1)
    assert boolean_from_moments(point) == cseq("boolean-psi", 1, 0, 0, 0)


def test_boolean_round_trip():
    rng = random.Random(2)
    for _ in range(25):
        m = rand_moments(rng, 10)
        assert moments_from_boolean(boolean_from_moments(m)) == m
    phi = rand_moments(rng, 6, state="phi")
    beta = boolean_from_moments(phi)
    assert beta.kind == "boolean-phi"
    assert moments_from_boolean(beta).state == "phi"


def test_eta_and_mgf():
    beta = boolean_from_moments(SEMICIRCLE_M)
    eta = eta_series(beta)
    assert eta.coeffs == tuple(gq(c) for c in (0, 0, 1, 0, 1, 0, 2))
    # M(z) = 1 / (1 - eta(z))
    m_series = TruncSeries((GQ_ONE,) + SEMICIRCLE_M.values)
    one = TruncSeries.constant(GQ_ONE, eta.order)
    assert (one - eta).inverse() == m_series
    rng = random.Random(4)
    for _ in range(10):
        m = rand_moments(rng, 10)
        eta = eta_series(boolean_from_moments(m))
        m_series = TruncSeries((GQ_ONE,) + m.values)
        assert (TruncSeries.constant(GQ_ONE, 10) - eta).inverse() == m_series


# -- free -----------------------------------------------------------------


def test_free_frozen():
    assert free_from_moments(SEMICIRCLE_M) == cseq(
        "free-psi", 0, 1, 0, 0, 0, 0
    )
    assert free_from_moments(BERNOULLI_M) == cseq(
        "free-psi", 0, 1, 0, -1, 0, 2
    )
    t = gq(Fraction(3, 2))
    point = MomentSeq(tuple(t ** n for n in range(1, 6)), "psi")
    r = free_from_moments(point)
    assert r.value(1) == t
    assert all(r.value(k).is_zero() for k in range(2, 6))


def test_free_round_trip():
    rng = random.Random(6)
    for _ in range(25):
        m = rand_moments(rng, 10)
        assert moments_from_free(free_from_moments(m)) == m


def rand_gaussian(rng, order):
    return tuple(
        gq(Fraction(rng.randint(-8, 8), rng.randint(1, 4)), rng.randint(-1, 1))
        for _ in range(order)
    )


def nc_sum(n, weight):
    total = GQ_ZERO
    for p in enumerate_nc(n):
        total = total + weight(p)
    return total


def test_free_matches_partition_sum():
    # m_n = sum over NC(n) of the cumulant partition weight, both directions
    rng = random.Random(8)
    m = MomentSeq(rand_gaussian(rng, 8))
    r = free_from_moments(m)
    r_given = CumulantSeq(rand_gaussian(rng, 8), "free-psi")
    m_given = moments_from_free(r_given)
    for n in range(1, 9):
        assert nc_sum(n, lambda p: partition_weight(p, r)) == m.moment(n)
        assert nc_sum(n, lambda p: partition_weight(p, r_given)) == m_given.moment(n)


# -- c-free ---------------------------------------------------------------


def test_cfree_collapse():
    rng = random.Random(10)
    for _ in range(10):
        m = rand_moments(rng, 8)
        r = free_from_moments(m)
        phi = MomentSeq(m.values, "phi")
        assert cfree_from_two_moments(phi, m).values == r.values


def test_cfree_frozen():
    # phi(a^n) = psi(a^{n+2}) for a standard semicircle
    r_psi = cseq("free-psi", 0, 1, 0, 0)
    m_phi = mseq(0, 2, 0, 5, state="phi")
    rc = cfree_from_two_moments(m_phi, moments_from_free(r_psi))
    assert rc.value(1) == GQ_ZERO
    assert rc.value(2) == gq(2)
    assert rc.value(3) == GQ_ZERO
    assert rc.value(4) == gq(-1)
    assert phi_moments_from_cfree(rc, r_psi) == m_phi


def test_cfree_single_block():
    rng = random.Random(12)
    m_phi = rand_moments(rng, 5, state="phi")
    rc = cfree_from_two_moments(m_phi, rand_moments(rng, 5))
    assert rc.value(1) == m_phi.moment(1)
    assert rc.value(2) == m_phi.moment(2) - m_phi.moment(1) ** 2


def test_cfree_round_trip():
    rng = random.Random(14)
    for _ in range(25):
        m_phi = rand_moments(rng, 10, state="phi")
        m_psi = rand_moments(rng, 10)
        r_psi = free_from_moments(m_psi)
        rc = cfree_from_two_moments(m_phi, m_psi)
        assert phi_moments_from_cfree(rc, r_psi) == m_phi


def test_cfree_frozen_forward():
    # rc = (0,2,0,0) over a semicircle gives phi-moments 0,2,0,6
    rc = cseq("cfree", 0, 2, 0, 0)
    r_psi = cseq("free-psi", 0, 1, 0, 0)
    assert phi_moments_from_cfree(rc, r_psi) == mseq(0, 2, 0, 6, state="phi")


def test_cfree_matches_partition_sum():
    # m^phi_n = sum over NC(n) of c-free weights on outer blocks and free
    # weights on inner ones; a bug shared by both directions fails here
    rng = random.Random(15)
    m_phi = MomentSeq(rand_gaussian(rng, 8), "phi")
    m_psi = MomentSeq(rand_gaussian(rng, 8))
    r = free_from_moments(m_psi)
    rc = cfree_from_two_moments(m_phi, m_psi)
    rc_given = CumulantSeq(rand_gaussian(rng, 8), "cfree")
    m_given = phi_moments_from_cfree(rc_given, r)
    for outer, moments in ((rc, m_phi), (rc_given, m_given)):
        for n in range(1, 9):
            total = nc_sum(n, lambda p: partition_weight_outer_inner(p, outer, r))
            assert total == moments.moment(n)


def test_cfree_order_mismatch():
    with pytest.raises(DomainError):
        cfree_from_two_moments(mseq(1, 1, state="phi"), mseq(1))


# -- irreducible sums -------------------------------------------------------


def boolean_from_free_irr(r, cfree=None):
    """beta_n as a sum over irreducible noncrossing partitions.

    With one argument this is the single-state identity beta_n =
    sum_{pi irreducible} r_pi.  With a c-free sequence supplied, the
    unique outer block takes the c-free weight and the result is the
    phi-Boolean sequence.  A slow cross-check of the free and c-free
    transforms against the Boolean one.
    """
    beta = []
    for n in range(1, r.order + 1):
        total = GQ_ZERO
        for p in enumerate_irreducible(n):
            if cfree is None:
                total = total + partition_weight(p, r)
            else:
                total = total + partition_weight_outer_inner(p, cfree, r)
        beta.append(total)
    kind = "boolean-psi" if cfree is None else "boolean-phi"
    return CumulantSeq(beta, kind)


def test_boolean_from_free_irr_frozen():
    r = cseq("free-psi", 0, 1, 0, 0, 0, 0)
    beta = boolean_from_free_irr(r)
    assert beta == cseq("boolean-psi", 0, 1, 0, 1, 0, 2)
    only_first = cseq("free-psi", 5, 0, 0, 0)
    assert boolean_from_free_irr(only_first) == cseq("boolean-psi", 5, 0, 0, 0)


def test_boolean_from_free_irr_round_trip():
    rng = random.Random(16)
    for _ in range(20):
        m = rand_moments(rng, 8)
        r = free_from_moments(m)
        assert boolean_from_free_irr(r) == boolean_from_moments(m)


def test_boolean_phi_from_irr():
    # two-state variant: outer block takes the c-free weight
    rng = random.Random(18)
    for _ in range(10):
        m_psi = rand_moments(rng, 7)
        m_phi = rand_moments(rng, 7, state="phi")
        r = free_from_moments(m_psi)
        rc = cfree_from_two_moments(m_phi, m_psi)
        beta_phi = boolean_from_free_irr(r, cfree=rc)
        assert beta_phi.kind == "boolean-phi"
        assert beta_phi == boolean_from_moments(m_phi)


def test_beta_rho_is_ll_sum():
    # beta_rho = sum over pi ll-below rho of r_pi
    rng = random.Random(20)
    m = rand_moments(rng, 6)
    r = free_from_moments(m)
    beta = boolean_from_moments(m)
    for n in range(1, 7):
        everything = enumerate_nc(n)
        for rho in everything:
            total = GQ_ZERO
            for p in everything:
                if is_ll(p, rho):
                    total = total + partition_weight(p, r)
            assert total == partition_weight(rho, beta)


def test_closure_grouping_with_weights():
    # interval closure regroups the NC cumulant sum into Boolean blocks
    rng = random.Random(22)
    m = rand_moments(rng, 5)
    r = free_from_moments(m)
    beta = boolean_from_moments(m)
    elements = enumerate_nc(5)
    assert closure_check(
        elements,
        lambda a, b: a.leq(b),
        interval_closure,
        lambda p: partition_weight(p, r),
        lambda p: partition_weight(p, beta),
    )


# -- partitioned functionals -------------------------------------------------


def test_partitioned_functional():
    beta = boolean_from_moments(SEMICIRCLE_M)

    def fn(args):
        return beta.value(len(args))

    full = SetPartition(3, [range(1, 4)])
    assert partitioned_functional(fn, full, "aaa") == beta.value(3)
    bottom = discrete(3)
    assert partitioned_functional(fn, bottom, "aaa") == beta.value(1) ** 3
    nested = SetPartition(3, [[1, 3], [2]])
    assert partitioned_functional(fn, nested, "aaa") == GQ_ZERO
    with pytest.raises(DomainError):
        partitioned_functional(fn, full, "aa")


# -- products as entries ------------------------------------------------------


def scalar_beta(beta):
    def fn(args):
        return beta.value(len(args))

    return fn


def test_boolean_products_extremes():
    # entries left alone (discrete rho): the plain cumulant; one big
    # product (full rho): every interval partition contributes, the moment
    beta = boolean_from_moments(SEMICIRCLE_M)
    fn = scalar_beta(beta)
    assert boolean_products_recursive(
        fn, discrete(4), "aaaa"
    ) == beta.value(4)
    assert boolean_products_recursive(
        fn, SetPartition(4, [range(1, 5)]), "aaaa"
    ) == SEMICIRCLE_M.moment(4)


def test_boolean_products_frozen():
    # beta_2(a*a, a) for the semicircle vanishes on parity
    beta = boolean_from_moments(SEMICIRCLE_M)
    rho = SetPartition(3, [[1, 2], [3]])
    assert boolean_products_recursive(scalar_beta(beta), rho, "aaa") == GQ_ZERO
    for products in (boolean_products_recursive, boolean_products_join):
        with pytest.raises(DomainError):
            products(scalar_beta(beta), SetPartition(2, [[1], [2]]), "aaa")


def test_boolean_products_methods_agree():
    rng = random.Random(24)
    from cfree.partitions import enumerate_interval

    for _ in range(8):
        m = rand_moments(rng, 6)
        beta = boolean_from_moments(m)
        fn = scalar_beta(beta)
        for n in range(1, 7):
            for rho in enumerate_interval(n):
                args = "a" * n
                assert boolean_products_join(
                    fn, rho, args
                ) == boolean_products_recursive(fn, rho, args)


def test_boolean_products_deconcatenation():
    # one big product: sum over all interval partitions = the moment
    rng = random.Random(26)
    m = rand_moments(rng, 5)
    beta = boolean_from_moments(m)
    fn = scalar_beta(beta)
    for n in range(1, 6):
        assert boolean_products_recursive(
            fn, SetPartition(n, [range(1, n + 1)]), "a" * n
        ) == m.moment(n)
