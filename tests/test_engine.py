"""Fixed-point engine against the word-expansion oracle.

Every generating-function identity the engine relies on is checked
coefficient by coefficient against direct summation of word moments.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cfree import engine, multiplicative
from cfree.condexp import efree_resolvent
from cfree.cumulants import boolean_from_moments, eta_series
from cfree.engine import (
    _as_matrix_series,
    _sweep,
    poly_distribution,
    solve_fixed_point,
)
from cfree.errors import DomainError, InternalError
from cfree.linearize import linearize
from cfree.multiplicative import mgf_product_phi, subordination_pair
from cfree.ncpoly import NCPolynomial, parse_poly
from cfree.scalars import GQ_I, GQ_ONE, GQ_ZERO
from cfree.selfcheck import oracle_moments
from cfree.series import SquareMatrix, TruncSeries, geometric, settle
from cfree.twostate import (
    TwoStateSpec,
    atom_moments,
    random_spec,
    semicircle_moments,
)

from reference import (
    advance_full,
    block_boolean_poly,
    gq,
    letterwise_boolean_poly,
    std_spec,
    word_resolvent,
)


def sum_moment(spec, state, n):
    """Oracle for the nth moment of X + Y: sum over all words."""
    if n == 0:
        return GQ_ONE
    total = GQ_ZERO
    for letters in itertools.product("xy", repeat=n):
        total = total + spec.moment(state, "".join(letters))
    return total


# 1x1 pencils constant in z, as one-element stacks: 1 (UNIT) and 0 (NIL);
# E1 is their corner vector
UNIT = (SquareMatrix.identity(1),)
NIL = (SquareMatrix.zeros(1),)
E1 = (GQ_ONE,)


def rand_matrix(rng, n):
    pool = (GQ_ZERO, GQ_ONE, -GQ_ONE, GQ_I, gq(1, 1))
    return SquareMatrix(
        tuple(tuple(rng.choice(pool) for _ in range(n)) for _ in range(n))
    )


def test_resolvent_series_is_word_sum():
    p = word_resolvent(UNIT, UNIT, 1, 4)
    for k in range(5):
        expected = NCPolynomial.zero()
        for letters in itertools.product("xy", repeat=k):
            expected = expected + NCPolynomial.word("".join(letters))
        assert p.coeff(k).entry(0, 0) == expected


def test_resolvent_series_matches_linearization_corner():
    lin = linearize(parse_poly("x*y + y*x"))
    psi = word_resolvent(lin.a_coeffs, lin.b_coeffs, lin.n, 6)
    corner = lin.resolvent_corner(6)
    for k in range(7):
        assert psi.coeff(k).apply_bilinear(lin.u, lin.v) == corner.coeff(k)


def test_sum_matches_oracle_both_states():
    spec = std_spec(8)
    st = solve_fixed_point(spec, UNIT, UNIT, 8)
    for state in ("psi", "phi"):
        corner = st.mgf(state).map(lambda m: m.apply_bilinear(E1, E1))
        for n in range(9):
            assert corner.coeff(n) == sum_moment(spec, state, n)


def test_sum_matches_oracle_random_spec():
    rng = random.Random(7)
    spec = random_spec(rng, 8)
    st = solve_fixed_point(spec, UNIT, UNIT, 8)
    for state in ("psi", "phi"):
        corner = st.mgf(state).map(lambda m: m.apply_bilinear(E1, E1))
        for n in range(9):
            assert corner.coeff(n) == sum_moment(spec, state, n)


def test_b_zero_degenerates_to_marginal():
    rng = random.Random(3)
    spec = random_spec(rng, 6)
    st = solve_fixed_point(spec, UNIT, NIL, 6)
    for state in ("psi", "phi"):
        corner = st.mgf(state).map(lambda m: m.apply_bilinear(E1, E1))
        marg = spec.marginal("x", state)
        for n in range(7):
            assert corner.coeff(n) == marg.moment(n)
    # the Y side never turns on
    ident = TruncSeries.constant(SquareMatrix.identity(1), st.h_y.order)
    assert st.h_y == ident


def test_phi_equals_psi_collapses_f_blocks():
    x = semicircle_moments(1, 6)
    y = atom_moments(((2, Fraction(1, 2)), (0, Fraction(1, 2))), 6)
    spec = TwoStateSpec(6, x, y)  # phi defaults to psi
    st = solve_fixed_point(spec, UNIT, UNIT, 6)
    assert st.f_x == st.f_x_phi
    assert st.f_y == st.f_y_phi
    assert st.mgf("phi") == st.mgf("psi")


def test_h_blocks_are_partial_block_functionals():
    """H_X must equal the x-gated block functional of the resolvent."""
    rng = random.Random(19)
    spec = random_spec(rng, 6)
    for n in (1, 2):
        a = (rand_matrix(rng, n),)
        b = (rand_matrix(rng, n),)
        st = solve_fixed_point(spec, a, b, 5)
        psi = word_resolvent(a, b, n, st.h_x.order)
        for k in range(st.h_x.order + 1):
            block = psi.coeff(k)
            for i in range(n):
                for j in range(n):
                    word_poly = block.entry(i, j)
                    assert st.h_x.coeff(k).entry(i, j) == block_boolean_poly(
                        spec, "psi", word_poly, partial="x"
                    )
                    assert st.h_y.coeff(k).entry(i, j) == block_boolean_poly(
                        spec, "psi", word_poly, partial="y"
                    )


def test_f_blocks_are_letterwise_functionals():
    """F_X must equal the letterwise functional of X * resolvent."""
    rng = random.Random(23)
    spec = random_spec(rng, 6)
    n = 2
    a = (rand_matrix(rng, n),)
    b = (rand_matrix(rng, n),)
    st = solve_fixed_point(spec, a, b, 5)
    psi = word_resolvent(a, b, n, st.f_x.order)
    x = NCPolynomial.letter("x")
    y = NCPolynomial.letter("y")
    for k in range(st.f_x.order + 1):
        block = psi.coeff(k)
        for i in range(n):
            for j in range(n):
                entry = block.entry(i, j)
                for state, fx, fy in (
                    ("psi", st.f_x, st.f_y),
                    ("phi", st.f_x_phi, st.f_y_phi),
                ):
                    assert fx.coeff(k).entry(i, j) == letterwise_boolean_poly(
                        spec, state, x * entry, partial="x"
                    )
                    assert fy.coeff(k).entry(i, j) == letterwise_boolean_poly(
                        spec, state, y * entry, partial="y"
                    )


def phi_resolvents(state):
    """The phi analogues (I - z A F^phi_X)^{-1}, (I - z B F^phi_Y)^{-1}."""
    sub = state.h_x.order
    ident = TruncSeries.constant(SquareMatrix.identity(state.n), sub)
    hx = (ident - (state.a * state.f_x_phi).shift(1)).inverse()
    hy = (ident - (state.b * state.f_y_phi).shift(1)).inverse()
    return hx, hy


def test_phi_resolvents_are_partial_block_functionals():
    rng = random.Random(29)
    spec = random_spec(rng, 6)
    a = (rand_matrix(rng, 2),)
    b = (rand_matrix(rng, 2),)
    st = solve_fixed_point(spec, a, b, 5)
    hx, hy = phi_resolvents(st)
    psi = word_resolvent(a, b, 2, hx.order)
    for k in range(hx.order + 1):
        for i in range(2):
            for j in range(2):
                entry = psi.coeff(k).entry(i, j)
                assert hx.coeff(k).entry(i, j) == block_boolean_poly(
                    spec, "phi", entry, partial="x"
                )
                assert hy.coeff(k).entry(i, j) == block_boolean_poly(
                    spec, "phi", entry, partial="y"
                )


def test_eta_of_sum_is_shift_of_f_blocks():
    """1x1: the Boolean transform of A X + B Y is z(A F^st_X + B F^st_Y)."""
    rng = random.Random(31)
    spec = random_spec(rng, 8)
    st = solve_fixed_point(spec, UNIT, UNIT, 8)
    for state, fx, fy in (
        ("psi", st.f_x, st.f_y),
        ("phi", st.f_x_phi, st.f_y_phi),
    ):
        corner = st.mgf(state).map(lambda m: m.apply_bilinear(E1, E1))
        moments = tuple(corner.coeff(n) for n in range(1, 9))
        from cfree.cumulants import MomentSeq

        beta = boolean_from_moments(MomentSeq(moments, state))
        eta = eta_series(beta)
        combined = (fx + fy).map(lambda m: m.entry(0, 0)).shift(1)
        assert eta.truncated(7) == combined.truncated(7)


def test_z_dependent_pencil_matches_wordwise_resolvent():
    """A(z), B(z) from a linearization: engine corner equals the state
    applied coefficientwise to the symbolic resolvent corner."""
    rng = random.Random(37)
    spec = random_spec(rng, 6)
    lin = linearize(parse_poly("x*y + x^2"))
    st = solve_fixed_point(spec, lin.a_coeffs, lin.b_coeffs, 6)
    corner_sym = lin.resolvent_corner(6)
    for state in ("psi", "phi"):
        corner = lin.corner(st.mgf(state))
        for k in range(7):
            assert corner.coeff(k) == spec.poly_moment(state, corner_sym.coeff(k))


def test_commutator_moments_frozen():
    spec = std_spec(12)
    ms = poly_distribution(spec, "i*(x*y-y*x)", "psi", 6)
    assert [str(v) for v in ms.values] == ["0", "2", "0", "8", "0", "40"]


def test_poly_distribution_of_x_is_marginal():
    rng = random.Random(41)
    spec = random_spec(rng, 6)
    for state in ("psi", "phi"):
        ms = poly_distribution(spec, "x", state, 6)
        assert ms.values == spec.marginal("x", state).values


def test_poly_distribution_all_five_acceptance_polys():
    rng = random.Random(43)
    spec = random_spec(rng, 8)
    for text in ("x+y", "x*y", "x*y+y*x", "x^2+y^2", "i*(x*y-y*x)"):
        p = parse_poly(text)
        deg = p.degree()
        count = 8 // deg
        for state in ("psi", "phi"):
            ms = poly_distribution(spec, p, state, count)
            expected = oracle_moments(spec, p, state, count)
            assert list(ms.values) == expected, text


def test_solve_is_deterministic_and_state_immutable():
    spec = std_spec(6)
    st1 = solve_fixed_point(spec, UNIT, UNIT, 6)
    st2 = solve_fixed_point(spec, UNIT, UNIT, 6)
    assert st1.mgf("phi") == st2.mgf("phi") and st1.f_x == st2.f_x
    with pytest.raises(AttributeError):
        st1.order = 3
    assert st1.mgf("psi") == st2.mgf("psi")
    with pytest.raises(DomainError):
        st1.mgf("tau")


def test_a_solve_builds_only_the_moment_transforms_read(monkeypatch):
    built = []

    def counted(s, order):
        built.append(order)
        return geometric(s, order)

    monkeypatch.setattr(engine, "geometric", counted)
    spec = std_spec(6)
    lin = linearize(parse_poly("x*y + y*x"))
    solve_fixed_point(spec, lin.a_coeffs, lin.b_coeffs, 6)
    efree_resolvent(spec, lin.a_coeffs, lin.b_coeffs, 6)
    assert built == []
    poly_distribution(spec, "x*y + y*x", "psi", 3)
    assert built == [6]


def geometric_sweep(blocks, order):
    """f -> 1 + z f from scratch; its fixed point is 1/(1 - z)."""
    (f,) = blocks
    return (TruncSeries.constant(GQ_ONE, order) + f.shift(1),)


def test_settle_certificate_rejects_a_step_that_never_settles():
    # Engine and subordination both trust this gate: after the steps at
    # orders 0..2, one sweep at the full order must change nothing.  The
    # map f -> f + 1 has no fixed point, so no grown series survives it.
    def never(blocks, order):
        return tuple(f + TruncSeries.constant(GQ_ONE, order) for f in blocks)

    with pytest.raises(InternalError, match="failed to stabilize after 4 sweeps"):
        settle(lambda blocks, t: (GQ_ONE,), never, 1, 2)
    grown = settle(lambda blocks, t: (GQ_ONE,), geometric_sweep, 1, 2)
    assert grown == (TruncSeries((GQ_ONE,) * 3),)


def test_settle_certificate_rejects_a_step_wrong_only_at_full_order():
    # The step grows the coefficients of 1/(1 - z) exactly below the full
    # order, but its z^4 coefficient is off by one: every lower step
    # agrees with the sweep, and only the certificate can see it.
    target = TruncSeries((GQ_ONE,) * 5)

    def step(blocks, t):
        return (GQ_ONE + GQ_ONE if t == 4 else GQ_ONE,)

    with pytest.raises(InternalError, match="failed to stabilize after 6 sweeps"):
        settle(step, geometric_sweep, 1, 4)
    # the same step with a consistent top coefficient settles to the target
    exact = settle(lambda blocks, t: (GQ_ONE,), geometric_sweep, 1, 4)
    assert exact == (target,)


def corrupting(settle, block, at):
    """The driver, with one grown coefficient of one block knocked off."""

    def corrupted(step, sweep, width, order):
        def bad_step(blocks, t):
            out = list(step(blocks, t))
            if t == at:
                out[block] = out[block] + out[block].one_like()
            return tuple(out)

        return settle(bad_step, sweep, width, order)

    return corrupted


@pytest.mark.parametrize("block", range(4))
def test_certificate_catches_one_corrupted_grown_coefficient(monkeypatch, block):
    # The steps after the corrupted one build on it consistently; the
    # full-order sweep recomputes that coefficient from the lower ones.
    rng = random.Random(47)
    spec = random_spec(rng, 7)
    a = (rand_matrix(rng, 2),)
    b = (rand_matrix(rng, 2),)
    monkeypatch.setattr(engine, "settle", corrupting(settle, block, 3))
    with pytest.raises(InternalError, match="failed to stabilize after 8 sweeps"):
        solve_fixed_point(spec, a, b, 7)


@pytest.mark.parametrize("block", range(2))
def test_certificate_catches_one_corrupted_subordination_coefficient(
    monkeypatch, block
):
    spec = random_spec(random.Random(53), 7)
    monkeypatch.setattr(multiplicative, "settle", corrupting(settle, block, 3))
    with pytest.raises(InternalError, match="failed to stabilize after 9 sweeps"):
        subordination_pair(spec, 7)


def jacobi_blocks(spec, a, b, order):
    """The six blocks by order + 2 full-order sweeps from zero blocks."""
    sub = max(order - 1, 0)
    a_s, n = _as_matrix_series(a, sub)
    b_s, _ = _as_matrix_series(b, sub)
    ident = TruncSeries.constant(SquareMatrix.identity(n), sub)
    blocks = (TruncSeries.constant(SquareMatrix.zeros(n), sub),) * 4
    for _ in range(order + 2):
        blocks = _sweep(spec, a_s, b_s, ident, blocks, sub)
    h_x, h_y, _, _ = blocks
    return blocks + (
        spec.eta("x", "phi").compose_shifted((h_y * a_s).shift(1)),
        spec.eta("y", "phi").compose_shifted((h_x * b_s).shift(1)),
    )


def test_online_solve_equals_full_order_jacobi():
    # Slow cross-check of the online growth: every block, both pencil
    # kinds, against sweeps that recompute everything from scratch.
    lin = linearize(parse_poly("x*y + y*x"))
    for seed in (59, 61, 67):
        rng = random.Random(seed)
        spec = random_spec(rng, 10)
        pencils = (
            ((rand_matrix(rng, 2),), (rand_matrix(rng, 2),)),
            (lin.a_coeffs, lin.b_coeffs),
        )
        for a, b in pencils:
            for order in range(11):
                st = solve_fixed_point(spec, a, b, order)
                online = (st.h_x, st.h_y, st.f_x, st.f_y, st.f_x_phi, st.f_y_phi)
                assert online == jacobi_blocks(spec, a, b, order), (seed, order)


def test_online_subordination_equals_iterated_advance():
    for seed in (71, 73, 79):
        spec = random_spec(random.Random(seed), 10)
        eta_x = spec.eta("x", "psi")
        eta_y = spec.eta("y", "psi")
        for order in range(11):
            zero = TruncSeries.constant(GQ_ZERO, order)
            omega_x, omega_y = zero, zero
            for _ in range(order + 2):
                omega_x, omega_y = (
                    advance_full(eta_y, omega_y),
                    advance_full(eta_x, omega_x),
                )
            pair = subordination_pair(spec, order)
            assert (pair.omega_x, pair.omega_y) == (omega_x, omega_y), (seed, order)


def test_dimension_mismatch_rejected():
    spec = std_spec(4)
    with pytest.raises(DomainError):
        solve_fixed_point(spec, UNIT, (SquareMatrix.identity(2),), 4)
    # A and B are stacks of SquareMatrix z-coefficients, nothing else
    for a in (SquareMatrix.identity(1), [[1]], ()):
        with pytest.raises(DomainError, match="nonempty stacks of SquareMatrix"):
            solve_fixed_point(spec, a, UNIT, 4)


def test_order_beyond_spec_rejected():
    spec = std_spec(4)
    with pytest.raises(DomainError):
        solve_fixed_point(spec, UNIT, UNIT, 5)
    with pytest.raises(DomainError):
        poly_distribution(spec, "x*y", "psi", 3)


def test_constant_term_rejected():
    spec = std_spec(4)
    with pytest.raises(DomainError):
        poly_distribution(spec, "1 + x*y", "psi", 2)


def test_subordination_identity_1x1():
    """M^psi of the sum factors through H_Y: M(z) = H_Y(z) M_X(z H_Y(z))."""
    spec = std_spec(12)
    st = solve_fixed_point(spec, UNIT, UNIT, 8)
    hy = st.h_y.map(lambda m: m.entry(0, 0))
    m_x = TruncSeries((GQ_ONE,) + spec.marginal("x", "psi").values)
    rhs = hy * m_x.compose(hy.shift(1))
    lhs = st.mgf("psi").map(lambda m: m.apply_bilinear(E1, E1))
    assert lhs.truncated(hy.order) == rhs.truncated(hy.order)


def test_solves_read_the_boolean_cumulants_only_to_their_own_order():
    # a spec of order 400 whose queries need order 2 or 3: the Boolean
    # cumulants grow that far and no further, and the answers equal those
    # of a spec that holds just enough marginal data
    def spec_of(order):
        return TwoStateSpec(
            order,
            semicircle_moments(1, order),
            atom_moments([(-1, gq(Fraction(1, 2))), (1, gq(Fraction(1, 2)))], order),
            atom_moments(
                [(2, gq(Fraction(1, 3))), (0, gq(Fraction(2, 3)))], order, "phi"
            ),
            semicircle_moments(2, order, "phi"),
        )

    def held(spec):
        return {
            (ch, state): len(table.boolean[state])
            for ch, table in spec._tables.items()
            for state in ("psi", "phi")
        }

    big, small = spec_of(400), spec_of(6)
    for state in ("psi", "phi"):
        dist = poly_distribution(big, "x + y", state, 2)
        assert dist == poly_distribution(small, "x + y", state, 2)
    # phi(x) = 2/3, phi(y) = 0, phi(x^2) = 4/3, phi(y^2) = 2
    assert dist.values == (gq(Fraction(2, 3)), gq(Fraction(10, 3)))
    assert set(held(big).values()) == {2}
    st = solve_fixed_point(big, UNIT, UNIT, 0)
    assert st.mgf("psi") == solve_fixed_point(small, UNIT, UNIT, 0).mgf("psi")
    assert max(held(big).values()) == 2
    pair = subordination_pair(big, 3)
    assert pair == subordination_pair(small, 3)
    assert mgf_product_phi(big, 3) == mgf_product_phi(small, 3)
    assert set(held(big).values()) == {3}
    assert not any(t.free or t.cfree for t in big._tables.values())
