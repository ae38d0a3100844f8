import random

import pytest

from cfree.errors import DomainError
from cfree.linearize import Linearization, geometric_corner, linearize
from cfree.ncpoly import NCPolynomial, parse_poly
from cfree.scalars import GQ_I, GQ_ONE, GQ_ZERO
from cfree.series import SquareMatrix

from reference import gq

X = NCPolynomial.letter("x")
Y = NCPolynomial.letter("y")


def realizes(lin, p, order):
    return lin.resolvent_corner(order) == geometric_corner(p, lin.m, order)


def rand_poly(rng, max_deg=3):
    terms = {}
    for _ in range(rng.randint(1, 5)):
        w = "".join(rng.choice("xy") for _ in range(rng.randint(1, max_deg)))
        terms[w] = gq(rng.randint(-4, 4), rng.randint(-1, 1))
    p = NCPolynomial(terms)
    return p


def test_sum_of_letters():
    lin = linearize(X + Y)
    assert lin.n == 1
    assert lin.m == 1
    assert realizes(lin, X + Y, 6)
    corner = lin.resolvent_corner(3)
    assert corner.coeff(0) == NCPolynomial.one()
    assert corner.coeff(1) == X + Y
    assert corner.coeff(2) == (X + Y) ** 2


def test_commutator():
    p = parse_poly("i*(x*y - y*x)")
    lin = linearize(p)
    assert lin.n == 3
    assert lin.m == 2
    assert realizes(lin, p, 10)


def test_shared_prefix_states():
    p = X * Y + X * X
    lin = linearize(p)
    assert lin.n == 2
    assert realizes(lin, p, 8)


def test_inhomogeneous_powers():
    # a low-degree word inside a degree-2 polynomial rides a z-weighted edge
    p = X * Y + X
    lin = linearize(p)
    assert lin.m == 2
    assert len(lin.a_coeffs) == 2
    assert realizes(lin, p, 8)
    geo = geometric_corner(p, 2, 4)
    assert geo.coeff(2) == p
    assert geo.coeff(4) == p * p
    assert geo.coeff(3).is_zero()


def test_hand_built_three_state_form():
    # an externally supplied (A, B, u, v) for i(xy - yx), checked blind
    z = GQ_ZERO
    cx = SquareMatrix(((z, z, GQ_I), (GQ_ONE, z, z), (z, z, z)))
    cy = SquareMatrix(((z, -GQ_I, z), (z, z, z), (GQ_ONE, z, z)))
    u = (GQ_ONE, GQ_ZERO, GQ_ZERO)
    lin = Linearization(3, 2, (cx,), (cy,), u, u)
    p = parse_poly("i*(x*y - y*x)")
    assert realizes(lin, p, 10)


def test_random_polynomials_verify():
    rng = random.Random(71)
    checked = 0
    while checked < 25:
        p = rand_poly(rng)
        if p.is_zero():
            continue
        lin = linearize(p)
        assert realizes(lin, p, 8)
        checked += 1


def pencil_entries(lin):
    """Every nonzero pencil entry, keyed (letter, power, src, dst)."""
    out = {}
    for letter, stack in (("x", lin.a_coeffs), ("y", lin.b_coeffs)):
        for power, mat in enumerate(stack):
            for src, row in enumerate(mat.rows):
                for dst, weight in enumerate(row):
                    if not weight.is_zero():
                        out[letter, power, src, dst] = weight
    return out


def assert_trie_edges(p):
    lin = linearize(p)
    entries = pencil_entries(lin)
    # each non-root column: one unit edge at power 0, from the state's parent
    parent = {}
    for dst in range(1, lin.n):
        [(letter, power, src, _)] = [key for key in entries if key[3] == dst]
        assert power == 0 and entries[letter, power, src, dst] == GQ_ONE
        parent[dst] = (src, letter)

    def name(state):
        if state == 0:
            return ""
        src, letter = parent[state]
        return name(src) + letter

    index = {name(state): state for state in range(lin.n)}
    words = p.words()
    assert set(index) == {w[:k] for w in words for k in range(len(w))}
    # column 0: one completion edge per monomial, in its last letter's stack
    completions = {key: w for key, w in entries.items() if key[3] == 0}
    assert len(completions) == len(words)
    terms = p.terms
    for w in words:
        key = (w[-1], lin.m - len(w), index[w[:-1]], 0)
        assert completions[key] == terms[w]


def test_trie_pencil_edge_set():
    for p in (
        X + Y,
        parse_poly("i*(x*y - y*x)"),
        X * Y + X * X,
        X * Y + X,
        X * Y + Y * X,
    ):
        assert_trie_edges(p)
    rng = random.Random(71)
    checked = 0
    while checked < 25:
        p = rand_poly(rng)
        if p.is_zero():
            continue
        assert_trie_edges(p)
        checked += 1

def test_rejects_constant_and_zero():
    with pytest.raises(DomainError):
        linearize(NCPolynomial.zero())
    with pytest.raises(DomainError):
        linearize(X + NCPolynomial.one())
    with pytest.raises(DomainError):
        linearize(NCPolynomial.scalar(gq(3)))


def test_negative_control():
    p = X * Y + Y * X
    lin = linearize(p)
    a0 = lin.a_coeffs[0]
    rows = [list(r) for r in a0.rows]
    rows[0][0] = rows[0][0] + GQ_ONE
    broken = Linearization(
        lin.n,
        lin.m,
        (SquareMatrix(tuple(tuple(r) for r in rows)),) + tuple(lin.a_coeffs[1:]),
        lin.b_coeffs,
        lin.u,
        lin.v,
    )
    assert not realizes(broken, p, 8)
