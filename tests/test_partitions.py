import functools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cfree.errors import DomainError, LimitError
from cfree.partitions import (
    SetPartition,
    _enumerate,
    enumerate_interval,
    enumerate_irreducible,
    enumerate_nc,
    enumerate_nc_colored,
    is_compatible,
    is_ll,
    is_vnrp,
    nesting_parents,
    outer_inner,
    vnrp_closure,
)
from cfree.selfcheck import ll_maximal

from reference import (
    closure_check,
    discrete,
    interval_closure,
    is_interval,
    is_irreducible,
    is_noncrossing,
)


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def part(n, *blocks):
    return SetPartition(n, blocks)


def all_partitions(n):
    """Every set partition of {1..n} by restricted growth strings."""
    out = []

    def rec(k, strings):
        if k > n:
            m = max(strings)
            blocks = [[] for _ in range(m + 1)]
            for i, s in enumerate(strings, start=1):
                blocks[s].append(i)
            out.append(SetPartition(n, blocks))
            return
        for s in range(max(strings) + 2):
            rec(k + 1, strings + [s])

    rec(2, [0])
    return out


# -- construction ----------------------------------------------------------


def test_validation():
    p = part(4, (1, 4), (2, 3))
    assert len(p.blocks) == 2
    assert p.block_of(3) == (2, 3)
    assert p.same_block(1, 4)
    with pytest.raises(DomainError):
        part(3, (1, 2))
    with pytest.raises(DomainError):
        part(3, (1, 2), (2, 3))
    with pytest.raises(DomainError):
        part(2, (1, 2, 3))


def test_blocks_sorted_by_min():
    p = SetPartition(5, [[4, 5], [2, 3], [1]])
    assert p.blocks == ((1,), (2, 3), (4, 5))
    assert str(p) == "{1}{2,3}{4,5}"


def test_discrete_full():
    assert discrete(3).blocks == ((1,), (2,), (3,))
    assert SetPartition(3, [range(1, 4)]).blocks == ((1, 2, 3),)


def test_predicates():
    assert is_noncrossing(part(4, (1, 4), (2, 3)))
    assert not is_noncrossing(part(4, (1, 3), (2, 4)))
    assert is_interval(part(4, (1, 2), (3, 4)))
    assert not is_interval(part(4, (1, 4), (2, 3)))
    assert is_irreducible(part(4, (1, 4), (2, 3)))
    assert not is_irreducible(part(4, (1, 2), (3, 4)))


def test_leq():
    fine = part(4, (1,), (2, 3), (4,))
    coarse = part(4, (1, 4), (2, 3))
    assert fine.leq(coarse)
    assert not coarse.leq(fine)
    assert coarse.leq(coarse)


# -- enumeration -----------------------------------------------------------


def test_enumeration_counts_frozen():
    assert len(enumerate_nc(1)) == 1
    assert len(enumerate_nc(4)) == 14
    assert len(enumerate_nc(6)) == 132
    assert len(enumerate_interval(1)) == 1
    assert len(enumerate_interval(3)) == 4
    assert len(enumerate_interval(5)) == 16
    assert len(enumerate_irreducible(2)) == 1
    assert len(enumerate_irreducible(3)) == 2
    assert len(enumerate_irreducible(4)) == 5


def test_enumeration_counts_formulas():
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == catalan(n)
    for n in range(1, 9):
        assert len(enumerate_interval(n)) == 2 ** (n - 1)
        assert len(enumerate_irreducible(n)) == catalan(n - 1)


def test_enumeration_against_brute_force():
    for n in range(1, 7):
        brute = [p for p in all_partitions(n) if is_noncrossing(p)]
        assert set(enumerate_nc(n)) == set(brute)
        assert set(enumerate_interval(n)) == {
            p for p in brute if is_interval(p)
        }
        assert set(enumerate_irreducible(n)) == {
            p for p in brute if is_irreducible(p)
        }


@functools.cache
def all_nc(n):
    return enumerate_nc(n)


def test_irreducible_enumeration_is_the_filter_in_order():
    # the filter over every NC partition stays here as the slow route
    for n in range(1, 11):
        assert enumerate_irreducible(n) == [
            p for p in all_nc(n) if is_irreducible(p)
        ]


colorings = st.integers(2, 3).flatmap(
    lambda k: st.text(alphabet="xyz"[:k], min_size=1, max_size=10)
)


@settings(max_examples=60, deadline=None)
@given(colors=colorings)
def test_colored_enumeration_is_the_filter_in_order(colors):
    compatible = [
        p for p in all_nc(len(colors)) if is_compatible(p, colors)
    ]
    assert enumerate_nc_colored(colors) == compatible
    # the irreducible colored list that vnrp_boolean_phi sums over
    assert _enumerate(len(colors), None, colors, closed=True) == [
        p for p in compatible if is_irreducible(p)
    ]


def test_generated_partitions_equal_their_validated_construction():
    # the enumerations skip SetPartition's validation of their blocks
    rng = random.Random(9)
    for n in range(1, 10):
        colorings = ("xy" * n)[:n], "".join(rng.choice("xyz") for _ in range(n))
        listed = enumerate_nc(n) + enumerate_irreducible(n)
        for colors in colorings:
            listed += enumerate_nc_colored(colors)
        for p in listed:
            assert p == SetPartition(n, p.blocks)


def test_enumeration_deterministic():
    assert enumerate_nc(5) == enumerate_nc(5)
    assert [str(p) for p in enumerate_nc(2)] == ["{1}{2}", "{1,2}"]


def test_guard():
    with pytest.raises(LimitError):
        enumerate_nc(15)
    with pytest.raises(LimitError):
        enumerate_nc(0)
    assert len(enumerate_nc(11, guard=11)) == catalan(11)


# -- colorings -------------------------------------------------------------


def test_compatibility():
    p = part(3, (1, 3), (2,))
    assert is_compatible(p, "xyx")
    assert not is_compatible(p, "xyy")
    assert set(enumerate_nc_colored("xyx")) == {
        p
        for p in enumerate_nc(3)
        if is_compatible(p, "xyx")
    }
    assert len(enumerate_nc_colored("xy")) == 1


# -- structure -------------------------------------------------------------


def test_outer_inner_frozen():
    outer, inner = outer_inner(part(4, (1, 4), (2, 3)))
    assert outer == ((1, 4),)
    assert inner == ((2, 3),)
    outer, inner = outer_inner(part(6, (1, 6), (2, 3), (4, 5)))
    assert outer == ((1, 6),)
    assert inner == ((2, 3), (4, 5))
    for p in enumerate_interval(5):
        outer, inner = outer_inner(p)
        assert inner == ()
        assert outer == p.blocks


def test_nesting_parents():
    p = part(6, (1, 6), (2, 3), (4, 5))
    parents = nesting_parents(p)
    assert parents[(1, 6)] is None
    assert parents[(2, 3)] == (1, 6)
    assert parents[(4, 5)] == (1, 6)
    q = part(5, (1, 5), (2, 4), (3,))
    assert nesting_parents(q)[(3,)] == (2, 4)


def test_interval_closure_frozen():
    assert interval_closure(part(3, (1, 3), (2,))) == part(3, (1, 2, 3))
    assert interval_closure(part(2, (1,), (2,))) == part(2, (1,), (2,))
    assert interval_closure(part(5, (1, 4), (2, 3), (5,))) == part(
        5, (1, 2, 3, 4), (5,)
    )


def test_interval_closure_axioms():
    for n in range(1, 7):
        parts = enumerate_nc(n)
        for p in parts:
            c = interval_closure(p)
            assert is_interval(c)
            assert p.leq(c)
            assert interval_closure(c) == c
        for p in parts:
            cp = interval_closure(p)
            for q in parts:
                if p.leq(q):
                    assert cp.leq(interval_closure(q))


# -- the ll order ----------------------------------------------------------


def test_is_ll_frozen():
    assert not is_ll(part(2, (1,), (2,)), part(2, (1, 2)))
    assert is_ll(part(4, (1, 4), (2, 3)), part(4, (1, 2, 3, 4)))
    for n in range(1, 6):
        for p in enumerate_nc(n):
            assert is_ll(p, p)


def test_is_ll_implies_leq():
    for p in enumerate_nc(5):
        for q in enumerate_nc(5):
            if is_ll(p, q):
                assert p.leq(q)


def test_is_ll_transitive():
    parts = enumerate_nc(5)
    rel = {
        (i, j)
        for i, p in enumerate(parts)
        for j, q in enumerate(parts)
        if is_ll(p, q)
    }
    for i, j in rel:
        for k in range(len(parts)):
            if (j, k) in rel:
                assert (i, k) in rel


# -- vnrp ------------------------------------------------------------------


def test_is_vnrp_examples():
    assert is_vnrp(part(3, (1, 3), (2,)), "xyx")
    assert not is_vnrp(part(3, (1, 3), (2,)), "xxx")
    assert is_vnrp(part(3, (1, 2, 3)), "xxx")
    assert is_vnrp(part(2, (1,), (2,)), "xy")
    with pytest.raises(DomainError):
        is_vnrp(part(2, (1, 2)), "xy")


def test_vnrp_closure_examples():
    # {2} sits immediately inside the differently coloured {1,3}: already closed
    p = part(3, (1, 3), (2,))
    assert vnrp_closure(p, "xyx") == p
    # same shape, all one colour: the inner block merges upward
    assert vnrp_closure(p, "xxx") == part(3, (1, 2, 3))
    # side-by-side singletons have no nesting, so nothing merges
    q = part(2, (1,), (2,))
    assert vnrp_closure(q, "xx") == q
    deep = part(6, (1, 6), (2, 5), (3, 4))
    assert vnrp_closure(deep, "xxyyxx") == part(6, (1, 2, 5, 6), (3, 4))
    assert vnrp_closure(deep, "xxxxxx") == part(6, (1, 2, 3, 4, 5, 6))


def test_vnrp_closure_axioms_and_maximality():
    rng = random.Random(59)
    for n in range(1, 6):
        for colors in ["x" * n, "".join(rng.choice("xy") for _ in range(n))]:
            compatible = enumerate_nc_colored(colors)
            for sigma in compatible:
                closed = vnrp_closure(sigma, colors)
                assert is_compatible(closed, colors)
                assert is_ll(sigma, closed)
                assert is_vnrp(closed, colors)
                assert vnrp_closure(closed, colors) == closed
                # the up-set has a unique maximal element, and it is closed
                assert ll_maximal(sigma, compatible) == [closed]
                # is_vnrp is exactly ll-maximality
                for rho in compatible:
                    if is_ll(sigma, rho):
                        assert is_vnrp(rho, colors) == (rho == closed)


def test_vnrp_closure_order_preserving():
    colors = "xxyxx"
    compatible = enumerate_nc_colored(colors)
    for p in compatible:
        for q in compatible:
            if is_ll(p, q):
                assert is_ll(
                    vnrp_closure(p, colors), vnrp_closure(q, colors)
                )


# -- the closure lemma verifier ---------------------------------------------


def test_closure_check_trivial():
    one = [SetPartition(1, [range(1, 2)])]
    assert closure_check(
        one,
        lambda a, b: a.leq(b),
        lambda a: a,
        lambda a: 1,
        lambda a: 1,
    )


def test_closure_check_interval_instance():
    # weights multiplicative over blocks: f gives 1 per block, so
    # sum_{z <= x} f(z) counts NC below x and g must count by preimage size
    elements = enumerate_nc(4)

    def f(p):
        return 1

    def g(p):
        return sum(1 for q in elements if interval_closure(q) == p)

    assert closure_check(
        elements,
        lambda a, b: a.leq(b),
        interval_closure,
        f,
        g,
    )


def test_closure_check_detects_wrong_g():
    elements = enumerate_nc(3)
    assert not closure_check(
        elements,
        lambda a, b: a.leq(b),
        interval_closure,
        lambda p: 1,
        lambda p: 1,
    )
