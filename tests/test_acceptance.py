"""The eight acceptance gates.

One test per criterion; each prints a single PASS line with its measured
wall time and asserts the documented bound.  All value comparisons are
exact; time limits are the only tolerances anywhere in this file.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from cfree.condexp import (
    efree_full,
    efree_rec,
    efree_resolvent,
    rqce,
    rqce_resolvent,
)
from cfree.cumulants import (
    MomentSeq,
    boolean_from_moments,
    cfree_from_two_moments,
    eta_series,
    free_from_moments,
    moments_from_boolean,
    moments_from_free,
    phi_moments_from_cfree,
)
from cfree.denoise import condexp_verify, l2_project
from cfree.engine import _poly_moments, poly_distribution, solve_fixed_point
from cfree.linearize import (
    Linearization,
    geometric_corner,
    linearize,
)
from cfree.multiplicative import sigma_symbols, subordination_pair
from cfree.ncpoly import NCPolynomial, parse_poly
from cfree.partitions import (
    enumerate_nc,
    enumerate_nc_colored,
    is_ll,
    vnrp_closure,
)
from cfree.scalars import GQ_ONE, GQ_ZERO, GaussianRational
from cfree.selfcheck import (
    alternating,
    ll_maximal,
    nonzero_mean_spec,
    oracle_moments,
)
from cfree.series import SquareMatrix, TruncSeries
from cfree.twostate import (
    TwoStateSpec,
    atom_moments,
    multilinear_boolean,
    random_spec,
    semicircle_moments,
    vnrp_boolean_phi,
)

from reference import (
    apply_linear,
    gq,
    gq_list,
    interval_closure,
    partition_weight,
    std_spec,
    word_resolvent,
)

COMMUTATOR = "i*(x*y - y*x)"


def finish(number, label, start, bound):
    elapsed = time.monotonic() - start
    assert elapsed < bound, "criterion %d exceeded %ds" % (number, bound)
    print("criterion %d: PASS (%s, %.1fs)" % (number, label, elapsed))


def test_criterion_1_commutator_distribution():
    start = time.monotonic()
    spec = std_spec(12)
    p = parse_poly(COMMUTATOR)
    got = poly_distribution(spec, p, "psi", 6)
    assert list(got.values) == gq_list([0, 2, 0, 8, 0, 40])
    # independent oracle: direct word expansion of the powers
    assert list(got.values) == oracle_moments(spec, p, "psi", 6)
    finish(1, "commutator distribution", start, 10)


def test_criterion_2_conditional_expectations():
    start = time.monotonic()
    spec = std_spec(20)
    square = l2_project(spec, "x^2", COMMUTATOR, 2)
    assert list(square.coefficients) == gq_list(
        [Fraction(1, 2), 0, Fraction(1, 4)]
    )
    fourth = l2_project(spec, "x^4", COMMUTATOR, 4)
    assert list(fourth.coefficients) == gq_list(
        [Fraction(3, 4), 0, Fraction(3, 8), 0, Fraction(1, 16)]
    )
    assert condexp_verify(spec, "x^2", COMMUTATOR, square, 8)
    assert condexp_verify(spec, "x^4", COMMUTATOR, fourth, 6)
    finish(2, "projection certificates", start, 60)


def test_criterion_3_engine_oracle_equivalence():
    start = time.monotonic()
    polys = ["x + y", "x*y", "x*y + y*x", "x^2 + y^2", COMMUTATOR]
    rng = random.Random(2024)
    for trial in range(20):
        spec = random_spec(rng, 8)
        for text in polys:
            p = parse_poly(text)
            count = 8 // p.degree()
            # both states from one solve; the public one-state call on the
            # first spec must read the same moments
            both = _poly_moments(spec, p, count, ("phi", "psi"))
            for state, got in zip(("phi", "psi"), both):
                expected = oracle_moments(spec, p, state, count)
                assert list(got.values) == expected
                if trial == 0:
                    assert poly_distribution(spec, p, state, count) == got
    finish(3, "engine equals oracle on 20 specs", start, 300)


def test_criterion_4_vnrp_theorem():
    start = time.monotonic()
    rng = random.Random(6)
    for trial in range(10):
        spec = random_spec(rng, 6)
        for n in range(1, 7):
            for first in "xy":
                word = alternating(first, n)
                args = tuple(word)
                assert vnrp_boolean_phi(spec, args, args) == (
                    multilinear_boolean(spec, "phi", args)
                )
    # exhaustively: the closure is the unique maximal element of the up-set
    for n in range(1, 7):
        for tup in itertools.product("xy", repeat=n):
            colors = "".join(tup)
            compatible = enumerate_nc_colored(colors)
            for sigma in compatible:
                closed = vnrp_closure(sigma, colors)
                assert ll_maximal(sigma, compatible) == [closed]
    finish(4, "partition sum and closure maximality", start, 120)


def test_criterion_5_linearization():
    start = time.monotonic()
    rng = random.Random(31)
    pool = [
        GQ_ONE,
        -GQ_ONE,
        gq(0, 1),
        gq(Fraction(1, 2)),
        gq(1, 1),
        gq(0, Fraction(-1, 3)),
    ]
    for trial in range(50):
        p = NCPolynomial.zero()
        for _ in range(rng.randint(2, 4)):
            word = "".join(rng.choice("xy") for _ in range(rng.randint(1, 3)))
            p = p + NCPolynomial.word(word, rng.choice(pool))
        if p.is_zero():
            p = NCPolynomial.word("xy")
        lin = linearize(p)
        assert lin.resolvent_corner(10) == geometric_corner(p, lin.m, 10)
    # the hand-built 3x3 pencil realizing the commutator at m = 2
    i, zero, one = gq(0, 1), GQ_ZERO, GQ_ONE
    c_x = SquareMatrix(((zero, zero, i), (one, zero, zero), (zero, zero, zero)))
    c_y = SquareMatrix(((zero, -i, zero), (zero, zero, zero), (one, zero, zero)))
    e1 = (one, zero, zero)
    pencil = Linearization(3, 2, (c_x,), (c_y,), e1, e1)
    expected = geometric_corner(parse_poly(COMMUTATOR), 2, 10)
    assert pencil.resolvent_corner(10) == expected
    finish(5, "50 random pencils and the explicit one", start, 60)


def test_criterion_6_conditional_expectation_formulas():
    start = time.monotonic()
    spec = random_spec(random.Random(5), 10)
    # the direct chain formula and the peeling recursion coincide
    for length in range(7):
        for tup in itertools.product("xy", repeat=length):
            w = "".join(tup)
            assert efree_full(spec, w).poly == efree_rec(spec, w).poly
    # three shapes of the same resolvent
    lin = linearize(parse_poly("x*y"))
    x = NCPolynomial.letter("x")
    unit = (SquareMatrix.identity(1),)  # the pencil X + Y as a stack
    for a, b in ((unit, unit), (lin.a_coeffs, lin.b_coeffs)):
        st = solve_fixed_point(spec, a, b, 6)
        primary = efree_resolvent(spec, a, b, 6)
        hy = st.h_y.map(lambda mat: mat.map(NCPolynomial.scalar))
        hy_ax = (st.h_y * st.a).map(lambda m: m.map(lambda c: c * x))
        ax_hy = st.a.map(lambda m: m.map(lambda c: c * x)) * hy
        ident = TruncSeries.constant(
            SquareMatrix.identity(st.n, NCPolynomial.one()), st.h_y.order
        )
        second = (ident - hy_ax.shift(1)).inverse() * hy
        third = hy * (ident - ax_hy.shift(1)).inverse()
        assert primary.truncated(st.h_y.order) == second.truncated(st.h_y.order)
        assert primary.truncated(st.h_y.order) == third.truncated(st.h_y.order)
        # rqce of the resolvent, word by word, to z^5
        res = rqce_resolvent(spec, a, b, 5)
        sym = word_resolvent(a, b, a[0].n, 5)
        n = res.coeff(0).n
        for k in range(6):
            for row in range(n):
                for col in range(n):
                    assert res.coeff(k).entry(row, col) == apply_linear(
                        spec, rqce, sym.coeff(k).entry(row, col)
                    )
    # invariance and right-modularity on random pairs
    rng = random.Random(41)
    for trial in range(200):
        sp = random_spec(rng, 10)
        length = rng.randint(1, 7)
        w = "".join(rng.choice("xy") for _ in range(length))
        r = rqce(sp, w).poly
        assert sp.poly_moment("phi", r) == sp.moment("phi", w)
        k = rng.randint(1, 3)
        if length + k <= 10:
            assert rqce(sp, w + "x" * k).poly == r * NCPolynomial.word(
                "x" * k
            )
    # the sandwich value in the reflection-group example, and the failure
    # of left-modularity whenever the two states disagree on y
    q = GaussianRational(Fraction(1, 2))
    psi = MomentSeq(tuple(GaussianRational((n + 1) % 2) for n in range(1, 11)))
    phi = MomentSeq(tuple(q ** (n % 2) for n in range(1, 11)), "phi")
    coxeter = TwoStateSpec(10, psi, psi, phi, phi)
    assert rqce(coxeter, "xyx").poly == NCPolynomial.word("x", q * q)
    skew = TwoStateSpec(
        6,
        semicircle_moments(1, 6),
        atom_moments(((-1, Fraction(1, 2)), (1, Fraction(1, 2))), 6),
        semicircle_moments(1, 6, "phi"),
        atom_moments(((2, 1),), 6, "phi"),
    )
    left = rqce(skew, "xy").poly
    assert left == NCPolynomial.zero()  # psi(y) = 0
    modular = NCPolynomial.letter("x") * rqce(skew, "y").poly
    assert modular == NCPolynomial.word("x", GaussianRational(2))
    assert left != modular
    finish(6, "conditional expectation formulas", start, 300)


def test_criterion_7_sigma_transform():
    start = time.monotonic()
    rng = random.Random(77)
    for trial in range(10):
        s_x, s_y, s_xy = sigma_symbols(nonzero_mean_spec(rng, 14), 7)
        assert s_xy == (s_x * s_y).truncated(6)
    # subordination: the product's Boolean transform factors through omega
    rng = random.Random(99)
    for trial in range(2):
        spec = nonzero_mean_spec(rng, 16)
        pair = subordination_pair(spec, 8)
        product = MomentSeq(
            [spec.moment("psi", "xy" * n, guard=16) for n in range(1, 9)], "psi"
        )
        lhs = eta_series(boolean_from_moments(product))
        assert lhs == spec.eta("x", "psi", order=8).compose(pair.omega_x)
        assert lhs == spec.eta("y", "psi", order=8).compose(pair.omega_y)
    finish(7, "sigma multiplicativity and subordination", start, 120)


def test_criterion_8_combinatorial_backbone():
    start = time.monotonic()
    for n in range(1, 11):
        assert len(enumerate_nc(n)) == math.comb(2 * n, n) // (n + 1)
    # closure operator axioms, interval then colored
    for n in range(1, 7):
        parts = enumerate_nc(n)
        for p in parts:
            closed = interval_closure(p)
            assert p.leq(closed)
            assert interval_closure(closed) == closed
        for p in parts:
            for q in parts:
                if p.leq(q):
                    assert interval_closure(p).leq(interval_closure(q))
    for n in range(1, 7):
        for tup in itertools.product("xy", repeat=n):
            colors = "".join(tup)
            compatible = enumerate_nc_colored(colors)
            for p in compatible:
                closed = vnrp_closure(p, colors)
                assert is_ll(p, closed)
                assert vnrp_closure(closed, colors) == closed
            for p in compatible:
                for q in compatible:
                    if is_ll(p, q):
                        assert is_ll(
                            vnrp_closure(p, colors), vnrp_closure(q, colors)
                        )
    # cumulant round-trips at order 10
    rng = random.Random(13)
    for trial in range(5):
        spec = random_spec(rng, 10)
        m_psi = spec.marginal("x", "psi")
        m_phi = spec.marginal("x", "phi")
        assert moments_from_boolean(boolean_from_moments(m_psi)) == m_psi
        assert moments_from_boolean(boolean_from_moments(m_phi)) == m_phi
        assert moments_from_free(free_from_moments(m_psi)) == m_psi
        r_psi = free_from_moments(m_psi)
        cfree = cfree_from_two_moments(m_phi, m_psi)
        assert phi_moments_from_cfree(cfree, r_psi) == m_phi
    # Boolean cumulants refine free cumulants along the irreducible order
    spec = random_spec(random.Random(29), 6)
    m = spec.marginal("x", "psi")
    beta = boolean_from_moments(m)
    r = free_from_moments(m)
    for n in range(1, 7):
        parts = enumerate_nc(n)
        for rho in parts:
            total = GQ_ZERO
            for pi in parts:
                if is_ll(pi, rho):
                    total = total + partition_weight(pi, r)
            assert partition_weight(rho, beta) == total
    finish(8, "combinatorial backbone", start, 120)
