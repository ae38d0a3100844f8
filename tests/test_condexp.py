"""Conditional expectations: word formulas, recursions, resolvents.

The ground truth throughout is the pairing characterization: E is the
unique map into the x-algebra with psi(E[w] q(x)) = psi(w q(x)), and
rqce the unique right-modular map with phi(rqce[w] q(x)) = phi(w q(x)).
Both are checked against the word-moment oracle, then the closed
formulas and resolvent identities against the maps.
"""

import itertools
import random
from fractions import Fraction

import pytest

from cfree.condexp import (
    CondExpResult,
    efree_full,
    efree_rec,
    efree_resolvent,
    rqce,
    rqce_resolvent,
)
from cfree.engine import solve_fixed_point
from cfree.errors import DomainError, LimitError
from cfree.linearize import linearize
from cfree.ncpoly import NCPolynomial, parse_poly
from cfree.scalars import GQ_ONE, GaussianRational
from cfree.series import SquareMatrix, TruncSeries
from cfree.twostate import (
    TwoStateSpec,
    atom_moments,
    random_spec,
    semicircle_moments,
)
from cfree.cumulants import MomentSeq

from reference import (
    apply_linear,
    block_boolean,
    partial_block_boolean,
    word_resolvent,
)


def words_up_to(n, start=0):
    for length in range(start, n + 1):
        for tup in itertools.product("xy", repeat=length):
            yield "".join(tup)


@pytest.fixture(scope="module")
def spec():
    return random_spec(random.Random(5), 10)


def test_pure_powers_and_unit(spec):
    assert efree_rec(spec, "").poly == NCPolynomial.one()
    assert rqce(spec, "").poly == NCPolynomial.one()
    for k in (1, 2, 4):
        assert efree_rec(spec, "x" * k).poly == NCPolynomial.word("x" * k)
        assert rqce(spec, "x" * k).poly == NCPolynomial.word("x" * k)
        assert efree_rec(spec, "y" * k).poly == NCPolynomial.scalar(
            spec.moment("psi", "y" * k)
        )
        assert rqce(spec, "y" * k).poly == NCPolynomial.scalar(
            spec.moment("phi", "y" * k)
        )


def test_sandwich_words(spec):
    psi_y = spec.moment("psi", "y")
    psi_yy = spec.moment("psi", "yy")
    assert efree_rec(spec, "xyx").poly == NCPolynomial.word("xx", psi_y)
    assert efree_rec(spec, "xyyx").poly == NCPolynomial.word("xx", psi_yy)


def test_full_equals_recursive_all_words(spec):
    other = random_spec(random.Random(17), 8)
    for w in words_up_to(6):
        assert efree_full(spec, w).poly == efree_rec(spec, w).poly
        assert efree_full(other, w).poly == efree_rec(other, w).poly


def test_provenance_tags(spec):
    assert efree_full(spec, "xy").source == "full-formula"
    assert efree_rec(spec, "xy").source == "recursive"
    assert rqce(spec, "xy").source == "recursive"
    r = efree_rec(spec, "xy")
    assert r == CondExpResult(r.poly, "recursive")


def test_support_and_degree_bound(spec):
    for w in words_up_to(6, start=1):
        e = efree_rec(spec, w).poly
        r = rqce(spec, w).poly
        assert e.letters_used() <= {"x"}
        assert r.letters_used() <= {"x"}
        assert e.degree() <= len(w)
        assert r.degree() <= len(w)


def test_efree_pairing_characterization(spec):
    """psi(E[w] x^j) = psi(w x^j): the defining property, vs the oracle."""
    for w in words_up_to(5, start=1):
        e = efree_rec(spec, w).poly
        for j in range(4):
            tail = NCPolynomial.word("x" * j)
            assert spec.poly_moment("psi", e * tail) == spec.moment(
                "psi", w + "x" * j
            )


def test_efree_bimodularity(spec):
    for w in words_up_to(4, start=1):
        e = efree_rec(spec, w).poly
        x = NCPolynomial.letter("x")
        assert efree_rec(spec, "x" + w).poly == x * e
        assert efree_rec(spec, w + "x").poly == e * x


def test_peeling_identity_right_coproduct(spec):
    """For y-initial words the full formula satisfies the right peeling:
    E[W] = beta_y(W) + sum_{W=UxV} beta_y(U) E[xV]."""
    for w in words_up_to(6, start=1):
        if w[0] != "y":
            continue
        rhs = NCPolynomial.scalar(partial_block_boolean(spec, "psi", "y", w))
        for k in range(1, len(w)):
            if w[k] != "x":
                continue
            coeff = partial_block_boolean(spec, "psi", "y", w[:k])
            if not coeff.is_zero():
                rhs = rhs + coeff * efree_full(spec, w[k:]).poly
        assert efree_full(spec, w).poly == rhs


def test_peeling_identity_left_coproduct(spec):
    """Mirror image: for words not ending in x,
    E[W] = beta_y(W) + sum_{W=UxV} E[Ux] beta_y(V)."""
    for w in words_up_to(6, start=1):
        if w[-1] == "x":
            continue
        rhs = NCPolynomial.scalar(partial_block_boolean(spec, "psi", "y", w))
        for k in range(len(w) - 1):
            if w[k] != "x":
                continue
            coeff = partial_block_boolean(spec, "psi", "y", w[k + 1 :])
            if not coeff.is_zero():
                rhs = rhs + efree_full(spec, w[: k + 1]).poly * coeff
        assert efree_full(spec, w).poly == rhs


def test_rqce_two_letter_closed_form(spec):
    psi_y = spec.moment("psi", "y")
    phi_x = spec.moment("phi", "x")
    phi_y = spec.moment("phi", "y")
    expected = NCPolynomial.word("x", psi_y) + NCPolynomial.scalar(
        phi_x * (phi_y - psi_y)
    )
    assert rqce(spec, "xy").poly == expected


def test_rqce_pairing_characterization(spec):
    """phi(rqce[w] x^j) = phi(w x^j) for every word and power."""
    for w in words_up_to(5, start=1):
        r = rqce(spec, w).poly
        for j in range(4):
            tail = NCPolynomial.word("x" * j)
            assert spec.poly_moment("phi", r * tail) == spec.moment(
                "phi", w + "x" * j
            )


def test_rqce_right_but_not_left_modular(spec):
    x = NCPolynomial.letter("x")
    for w in ("xy", "yx", "yxy", "xyxy"):
        assert rqce(spec, w + "x").poly == rqce(spec, w).poly * x
    # left multiplication genuinely fails: phi carries information psi
    # does not, and pulling x out the left forgets it
    assert rqce(spec, "xy").poly != x * rqce(spec, "y").poly


def test_rqce_collapses_to_efree_when_states_agree():
    x = semicircle_moments(1, 8)
    y = atom_moments(((1, Fraction(1, 2)), (3, Fraction(1, 2))), 8)
    merged = TwoStateSpec(8, x, y)
    for w in words_up_to(6, start=1):
        assert rqce(merged, w).poly == efree_rec(merged, w).poly


def test_rqce_rule_for_y_initial_words(spec):
    """rqce[W] = beta^phi_y(W) + sum beta^phi_y(U) rqce[xV], W y-initial."""
    for w in words_up_to(6, start=1):
        if w[0] != "y":
            continue
        rhs = NCPolynomial.scalar(partial_block_boolean(spec, "phi", "y", w))
        for k in range(1, len(w)):
            if w[k] != "x":
                continue
            coeff = partial_block_boolean(spec, "phi", "y", w[:k])
            if not coeff.is_zero():
                rhs = rhs + coeff * rqce(spec, w[k:]).poly
        assert rqce(spec, w).poly == rhs


def test_rqce_rule_for_x_initial_words(spec):
    """rqce[W] = E[W] + sum beta^phi_x(U) (rqce - E)[yV], W x-initial."""
    for w in words_up_to(6, start=1):
        if w[0] != "x":
            continue
        rhs = efree_rec(spec, w).poly
        for k in range(1, len(w)):
            if w[k] != "y":
                continue
            coeff = partial_block_boolean(spec, "phi", "x", w[:k])
            if not coeff.is_zero():
                diff = rqce(spec, w[k:]).poly - efree_rec(spec, w[k:]).poly
                rhs = rhs + coeff * diff
        assert rqce(spec, w).poly == rhs


def test_corrected_word_collapses_rqce_to_efree(spec):
    """W - sum beta^phi_x(U) yV has equal conditional expectations."""
    for w in words_up_to(6, start=1):
        if w[0] != "x":
            continue
        corrected = NCPolynomial.word(w)
        for k in range(1, len(w)):
            if w[k] != "y":
                continue
            coeff = partial_block_boolean(spec, "phi", "x", w[:k])
            if not coeff.is_zero():
                corrected = corrected - NCPolynomial.word(w[k:], coeff)
        assert apply_linear(spec, rqce, corrected) == apply_linear(
            spec, efree_rec, corrected
        )


def test_phi_of_efree_peeling(spec):
    """phi(E[W]) peels by the ungated block functional, which is taken
    to vanish on words ending in y; only splits at prefixes ending in x
    survive."""
    for w in words_up_to(6, start=1):
        if w[0] != "x":
            continue
        lhs = spec.poly_moment("phi", efree_rec(spec, w).poly)
        rhs = block_boolean(spec, "phi", w) if w[-1] == "x" else GaussianRational(0)
        for k in range(1, len(w)):
            if w[k] != "y" or w[k - 1] != "x":
                continue
            tail = spec.poly_moment("phi", efree_rec(spec, w[k:]).poly)
            rhs = rhs + block_boolean(spec, "phi", w[:k]) * tail
        assert lhs == rhs


def coxeter_spec(q, order):
    """Both letters have even moments 1; phi tracks parity with weight q."""
    psi = MomentSeq(tuple(GaussianRational((n + 1) % 2) for n in range(1, order + 1)))
    phi = MomentSeq(
        tuple(GaussianRational(q) ** (n % 2) for n in range(1, order + 1)),
        "phi",
    )
    return TwoStateSpec(order, psi, psi, phi, phi)


def test_coxeter_sandwich_value_and_pairings():
    q = GaussianRational(Fraction(1, 2))
    spec = coxeter_spec(Fraction(1, 2), 10)
    r = rqce(spec, "xyx").poly
    assert r == NCPolynomial.word("x", q * q)
    # the pairing equations force the coefficient: both parities of k
    for k in range(6):
        tail = NCPolynomial.word("x" * k)
        assert spec.poly_moment("phi", r * tail) == spec.moment(
            "phi", "xyx" + "x" * k
        )
    # a sandwich coefficient (1+q)q instead of q^2 fails already at k=0
    wrong = NCPolynomial.word("x", (GQ_ONE + q) * q)
    assert spec.poly_moment("phi", wrong) != spec.moment("phi", "xyx")


def test_guard_and_letter_validation(spec):
    with pytest.raises(LimitError):
        efree_rec(spec, "xy" * 6)
    with pytest.raises(DomainError):
        rqce(spec, "xz")
    big = random_spec(random.Random(2), 12)
    long_word = "xy" * 6
    assert efree_rec(big, long_word, guard=12).poly == efree_full(
        big, long_word, guard=12
    ).poly
    # 16 letters is past the oracle's default guard of 14: every moment
    # the functionals read is taken under the caller's guard
    word = "".join(random.Random(16).choice("xy") for _ in range(16))
    deep = random_spec(random.Random(17), 16)
    e = efree_rec(deep, word, guard=20).poly
    assert e == efree_full(deep, word, guard=20).poly
    r = rqce(deep, word, guard=20).poly
    assert deep.poly_moment("phi", r, guard=20) == deep.moment(
        "phi", word, guard=20
    )


# the pencil X + Y, constant in z, as a one-element stack
UNIT = (SquareMatrix.identity(1),)


def lift(series):
    return series.map(lambda mat: mat.map(NCPolynomial.scalar))


def test_three_resolvent_forms_agree(spec):
    """(I - zAX - zBF_Y)^{-1} = (I - zH_YAX)^{-1} H_Y
                              = H_Y (I - zAXH_Y)^{-1} to order 6."""
    order = 6
    lin = linearize(parse_poly("x*y"))
    for a, b in ((UNIT, UNIT), (lin.a_coeffs, lin.b_coeffs)):
        st = solve_fixed_point(spec, a, b, order)
        primary = efree_resolvent(spec, a, b, order)
        x = NCPolynomial.letter("x")
        hy = lift(st.h_y)
        hy_ax = (st.h_y * st.a).map(lambda m: m.map(lambda c: c * x))
        ax_hy = st.a.map(lambda m: m.map(lambda c: c * x)) * hy
        ident = TruncSeries.constant(
            SquareMatrix.identity(st.n, NCPolynomial.one()), st.h_y.order
        )
        second = (ident - hy_ax.shift(1)).inverse() * hy
        third = hy * (ident - ax_hy.shift(1)).inverse()
        assert primary.truncated(st.h_y.order) == second.truncated(st.h_y.order)
        assert primary.truncated(st.h_y.order) == third.truncated(st.h_y.order)


def test_efree_resolvent_matches_wordwise(spec):
    order = 5
    lin = linearize(parse_poly("x*y"))
    for a, b in ((UNIT, UNIT), (lin.a_coeffs, lin.b_coeffs)):
        res = efree_resolvent(spec, a, b, order)
        sym = word_resolvent(a, b, a[0].n, order)
        n = res.coeff(0).n
        for k in range(order + 1):
            for i in range(n):
                for j in range(n):
                    expected = apply_linear(
                        spec, efree_rec, sym.coeff(k).entry(i, j)
                    )
                    assert res.coeff(k).entry(i, j) == expected


def test_rqce_resolvent_matches_wordwise(spec):
    order = 5
    lin = linearize(parse_poly("x*y"))
    for a, b in ((UNIT, UNIT), (lin.a_coeffs, lin.b_coeffs)):
        res = rqce_resolvent(spec, a, b, order)
        sym = word_resolvent(a, b, a[0].n, order)
        n = res.coeff(0).n
        for k in range(order + 1):
            for i in range(n):
                for j in range(n):
                    expected = apply_linear(
                        spec, rqce, sym.coeff(k).entry(i, j)
                    )
                    assert res.coeff(k).entry(i, j) == expected


def test_phi_of_resolvent_is_mixed_inverse(spec):
    """phi entrywise on E[resolvent] inverts I - zAF^phi_X - zBF_Y."""
    order = 6
    st = solve_fixed_point(spec, UNIT, UNIT, order)
    res = efree_resolvent(spec, UNIT, UNIT, order)
    phi_side = res.map(
        lambda mat: mat.map(lambda p: spec.poly_moment("phi", p))
    )
    mixed = (st.a * st.f_x_phi) + (st.b * st.f_y)
    ident = TruncSeries.constant(SquareMatrix.identity(st.n), st.f_y.order)
    expected = (ident - mixed.shift(1)).inverse()
    assert phi_side.truncated(st.f_y.order) == expected.truncated(st.f_y.order)


def test_resolvents_collapse_when_states_agree():
    x = semicircle_moments(1, 6)
    y = atom_moments(((2, Fraction(1, 2)), (-1, Fraction(1, 2))), 6)
    merged = TwoStateSpec(6, x, y)
    assert rqce_resolvent(merged, UNIT, UNIT, 6) == efree_resolvent(
        merged, UNIT, UNIT, 6
    )
