"""Property tests on random input.

The engine against the word oracle: criterion 3 fixes five polynomials;
here hypothesis draws the polynomial (up to three monomials of length at
most three, Gaussian-rational coefficients) and the seed of a random
spec, and the engine's moments in both states, read from one solve, must
equal the oracle's word sums.

The cumulant tables, which grow each sequence only to the order read:
their free and c-free cumulants must give back the moments as partition
sums, and reads in any order must give the values of one full-order
read.  The oracle, which solves for its own scaled cumulants from the
chain sums of single-letter words, must not see how far its lists were
grown.  On specs with imaginary parts and prime-power denominators,
which the oracle scales to Gaussian integers, its word moments must
equal literal colored noncrossing partition sums of the tables' free
and c-free cumulants, its scaled cumulants must be the tables' ones
times D^k although it reads no table, and the int sums behind
poly_moment and multilinear_boolean must equal the same sums over the
Gaussian rationals that moment returns.  NCPolynomial's int-pair
products, sums, differences and scalar products must equal the
Gaussian-rational term arithmetic of tests/reference.py on the same
coefficients, and stay in lowest terms.  condexp's peeling recursion,
which runs on the same scaled integers, must give E and rqce exactly as
the Gaussian-rational rule does, E also as the chain formula, there and
on semicircle and atomic specs whose many zero cumulants it must never
store.  A failing draw on these specs is reported unshrunk.

The series kernels: products, inverses and compositions of truncated
series, scalar or 2x2-matrix valued and often zero, must equal naive
double loops written here, and the geometric series (1 - z s)^{-1} must
equal the general series inverse, also over noncommutative entries.

The engine on pencils whose z-degree passes the order: the coefficients
past it never reach the answer, so a solve at order N must equal a
longer solve truncated to N, in every block and both moment transforms.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from cfree.condexp import DEFAULT_GUARD, _peel, efree_full, efree_rec, rqce
from cfree.cumulants import CumulantSeq, CumulantTable, MomentSeq
from cfree.engine import _poly_moments, solve_fixed_point
from cfree.errors import DomainError
from cfree.ncpoly import NCPolynomial
from cfree.partitions import enumerate_nc, enumerate_nc_colored, outer_inner
from cfree.scalars import GaussianRational
from cfree.selfcheck import oracle_moments
from cfree.series import SquareMatrix, TruncSeries, geometric
from cfree.twostate import (
    TwoStateSpec,
    atom_moments,
    multilinear_boolean,
    point_mass_moments,
    random_spec,
    semicircle_moments,
)

from reference import (
    accumulate,
    boolean_by_deconcatenation,
    partition_weight,
    partition_weight_outer_inner,
    peel,
    terms_product,
)

COEFFS = (
    GaussianRational(1),
    GaussianRational(-1),
    GaussianRational(2),
    GaussianRational(Fraction(1, 2)),
    GaussianRational(0, 1),
    GaussianRational(1, 1),
    GaussianRational(Fraction(-2, 3), Fraction(1, 3)),
)

words = st.text(alphabet="xy", min_size=1, max_size=3)
monomials = st.lists(
    st.tuples(words, st.sampled_from(COEFFS)), min_size=1, max_size=3
)


@settings(max_examples=40, deadline=None)
@given(
    terms=monomials,
    count=st.integers(min_value=1, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engine_equals_oracle_on_random_polynomials(terms, count, seed):
    p = NCPolynomial.zero()
    for word, coeff in terms:
        p = p + NCPolynomial.word(word, coeff)
    assume(not p.is_zero())
    count = min(count, 6 // p.degree())
    spec = random_spec(random.Random(seed), p.degree() * count)
    phi, psi = _poly_moments(spec, p, count, ("phi", "psi"))
    assert list(phi.values) == oracle_moments(spec, p, "phi", count)
    assert list(psi.values) == oracle_moments(spec, p, "psi", count)


ZERO = GaussianRational(0)
moment_lists = st.integers(min_value=1, max_value=7).flatmap(
    lambda n: st.tuples(
        st.lists(st.sampled_from(COEFFS), min_size=n, max_size=n),
        st.lists(st.sampled_from(COEFFS), min_size=n, max_size=n),
    )
)


@settings(max_examples=40, deadline=None)
@given(moments=moment_lists)
def test_table_cumulants_give_back_the_moments_as_partition_sums(moments):
    psi, phi = (tuple(m) for m in moments)
    table = CumulantTable(psi, phi)
    n = len(psi)
    r = CumulantSeq(table.frees(n), "free-psi")
    rc = CumulantSeq(table.cfrees(n), "cfree")
    for k in range(1, n + 1):
        partitions = enumerate_nc(k)
        free_sum = sum((partition_weight(p, r) for p in partitions), ZERO)
        assert free_sum == psi[k - 1]
        cfree_sum = sum(
            (partition_weight_outer_inner(p, rc, r) for p in partitions), ZERO
        )
        assert cfree_sum == phi[k - 1]


READS = ("free", "cfree", "psi", "phi")


def _read(table, kind, order):
    if kind == "free":
        return table.frees(order)
    if kind == "cfree":
        return table.cfrees(order)
    return table.booleans(kind, order)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    order=st.integers(min_value=1, max_value=10),
    reads=st.lists(
        st.tuples(st.sampled_from(READS), st.integers(min_value=0, max_value=10)),
        max_size=12,
    ),
)
def test_reads_in_any_order_give_the_values_of_one_full_read(seed, order, reads):
    spec = random_spec(random.Random(seed), order)
    for ch in "xy":
        psi, phi = spec.marginal(ch, "psi").values, spec.marginal(ch, "phi").values
        once = CumulantTable(psi, phi)
        full = {kind: list(_read(once, kind, order)) for kind in READS}
        grown = CumulantTable(psi, phi)
        for kind, k in reads:
            k = min(k, order)
            assert _read(grown, kind, k)[:k] == full[kind][:k]
        for kind in READS:
            assert _read(grown, kind, order) == full[kind]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    reads=st.lists(
        st.tuples(st.sampled_from(("psi", "phi")), st.text(alphabet="xy", max_size=7)),
        min_size=1,
        max_size=8,
    ),
)
def test_oracle_on_a_lazily_grown_spec_equals_one_read_to_full_order(seed, reads):
    lazy = random_spec(random.Random(seed), 7)
    eager = random_spec(random.Random(seed), 7)
    for ch in "xy":
        eager.moment("phi", ch * 7)
    for state, word in reads:
        assert lazy.moment(state, word) == eager.moment(state, word)


# Gaussian rationals over prime-power denominators: the oracle scales each
# letter's moments to Gaussian integers, and must divide back exactly
PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
denominators = st.builds(pow, st.sampled_from(PRIMES), st.integers(0, 4))
parts = st.builds(Fraction, st.integers(-20, 20), denominators)
signs = st.sampled_from((1, -1))
nonzero_parts = st.builds(
    lambda n, sign, d: Fraction(sign * n, d), st.integers(1, 20), signs, denominators
)
complex_moments = st.lists(
    st.builds(GaussianRational, parts, nonzero_parts), min_size=8, max_size=8
)
# a failing draw on these specs shrinks for minutes and grows pytest to
# gigabytes, so these properties report the first failing draw as found
prime_power_settings = settings(
    max_examples=30,
    deadline=None,
    phases=[phase for phase in Phase if phase is not Phase.shrink],
)


def prime_power_spec(moments):
    """The order-8 spec of x_psi, y_psi, x_phi, y_phi moment lists."""
    x_psi, y_psi, x_phi, y_phi = moments
    return TwoStateSpec(
        8,
        MomentSeq(x_psi, "psi"),
        MomentSeq(y_psi, "psi"),
        MomentSeq(x_phi, "phi"),
        MomentSeq(y_phi, "phi"),
    )


def partition_sum(spec, state, word):
    """The word moment as a literal colored noncrossing partition sum."""
    free = {ch: spec.free_cumulants(ch).values for ch in "xy"}
    cfree = {ch: spec.cfree_cumulants(ch).values for ch in "xy"}
    outer_kind = free if state == "psi" else cfree
    total = ZERO
    for p in enumerate_nc_colored(word):
        outer, inner = outer_inner(p)
        term = GaussianRational(1)
        for kind, blocks in ((outer_kind, outer), (free, inner)):
            for block in blocks:
                term = term * kind[word[block[0] - 1]][len(block) - 1]
        total = total + term
    return total


@prime_power_settings
@given(
    moments=st.tuples(*[complex_moments] * 4),
    words=st.lists(
        st.text(alphabet="xy", min_size=1, max_size=8), min_size=1, max_size=4
    ),
)
def test_oracle_equals_the_partition_sum_on_complex_prime_power_specs(moments, words):
    spec = prime_power_spec(moments)
    for word in words:
        for state in ("psi", "phi"):
            assert spec.moment(state, word) == partition_sum(spec, state, word)


@prime_power_settings
@given(moments=st.tuples(*[complex_moments] * 4))
def test_the_oracle_solves_for_the_table_cumulants_on_prime_power_specs(moments):
    spec = prime_power_spec(moments)
    for ch in "xy":
        spec.moment("phi", ch * 8)
    # the oracle grew its own lists: no Fraction table was read
    assert not any(t.free or t.cfree for t in spec._tables.values())
    for ch in "xy":
        scale = spec._scale[ch]
        tables = {
            "psi": spec.free_cumulants(ch).values,
            "phi": spec.cfree_cumulants(ch).values,
        }
        for state, values in tables.items():
            scaled = spec._scaled[state][ch]
            assert len(scaled) == 8
            for k, ((re, im), c) in enumerate(zip(scaled, values), 1):
                assert GaussianRational(re, im) == c * scale**k


complex_coeffs = st.builds(GaussianRational, parts, parts)


@prime_power_settings
@given(
    moments=st.tuples(*[complex_moments] * 4),
    terms=st.lists(
        st.tuples(st.text(alphabet="xy", max_size=8), complex_coeffs), max_size=5
    ),
)
def test_poly_moment_is_the_coefficient_sum_of_word_moments(moments, terms):
    spec = prime_power_spec(moments)
    p = NCPolynomial(terms)
    for state in ("psi", "phi"):
        expected = sum(
            (c * spec.moment(state, w) for w, c in p.terms.items()), ZERO
        )
        assert spec.poly_moment(state, p) == expected
        assert spec.poly_moment(state, NCPolynomial.zero()) == ZERO


def assert_canonical(p):
    """Nonzero int pairs over a positive den, in lowest terms."""
    assert p._den > 0
    assert all(re or im for re, im in p._pairs.values())
    parts = (part for pair in p._pairs.values() for part in pair)
    assert math.gcd(p._den, *parts) == 1


poly_terms = st.lists(
    st.tuples(st.text(alphabet="xy", max_size=4), complex_coeffs), max_size=5
)


@prime_power_settings
@given(terms=poly_terms, other=poly_terms, c=complex_coeffs)
def test_the_int_pair_arithmetic_equals_the_gaussian_rational_one(terms, other, c):
    p, q = NCPolynomial(terms), NCPolynomial(other)
    a, b = p.terms, q.terms
    assert a == accumulate({}, terms) and b == accumulate({}, other)
    negated = {w: -v for w, v in b.items()}
    scaled = {w: v * c for w, v in a.items()} if c else {}
    cases = [
        (p, a),
        (p * q, terms_product(a, b)),
        (p + q, accumulate(dict(a), b.items())),
        (p - q, accumulate(dict(a), negated.items())),
        (p * c, scaled),
        (c * p, scaled),
        (p * NCPolynomial.scalar(c), scaled),
        (-q, negated),
        ((p + q) * (p - q), terms_product(
            accumulate(dict(a), b.items()), accumulate(dict(a), negated.items())
        )),
    ]
    for got, expected in cases:
        assert got.terms == expected
        assert_canonical(got)
    assert (p + q) - q == p and hash((p + q) - q) == hash(p)
    if not c.is_zero():
        assert_canonical(NCPolynomial.scalar(c).inverse())
        assert (p * c) * NCPolynomial.scalar(c).inverse() == p


@prime_power_settings
@given(
    moments=st.tuples(*[complex_moments] * 4),
    args=st.lists(st.text(alphabet="xy", max_size=2), min_size=1, max_size=4),
)
def test_multilinear_boolean_equals_the_exact_recursion(moments, args):
    spec = prime_power_spec(moments)
    # the drawn arguments, one argument, and an empty word among them
    for case in (args, args[:1], [""] + args[1:] + [""]):
        for state in ("psi", "phi"):
            assert multilinear_boolean(spec, state, case) == (
                boolean_by_deconcatenation(spec, state, case)
            )
    for functional in (multilinear_boolean, boolean_by_deconcatenation):
        with pytest.raises(DomainError, match="no arguments"):
            functional(spec, "phi", [])


def check_scaled_peeling(spec, words):
    """efree_rec and rqce against the Gaussian-rational rule, efree_rec
    against the chain formula, and no zero in any scaled answer."""
    for w in words:
        memos = {"psi": {}, "phi": {}}
        _peel(spec, "phi", w, memos, DEFAULT_GUARD)
        for memo in memos.values():
            for terms in memo.values():
                assert (0, 0) not in terms.values()
        e = efree_rec(spec, w).poly
        assert e == peel(spec, "psi", w) == efree_full(spec, w).poly
        assert rqce(spec, w).poly == peel(spec, "phi", w)


peeled_words = st.lists(st.text(alphabet="xy", max_size=8), min_size=1, max_size=3)


@prime_power_settings
@given(moments=st.tuples(*[complex_moments] * 4), words=peeled_words)
def test_the_scaled_peeling_equals_the_rule_on_prime_power_specs(moments, words):
    check_scaled_peeling(prime_power_spec(moments), words)


real_parts = st.builds(GaussianRational, parts)


@prime_power_settings
@given(
    variances=st.tuples(*[st.builds(GaussianRational, nonzero_parts)] * 2),
    atoms=st.tuples(real_parts, real_parts, real_parts, real_parts),
    words=peeled_words,
)
def test_the_scaled_peeling_on_semicircle_and_atom_specs(variances, atoms, words):
    a, b, weight, mass = atoms
    x = semicircle_moments(variances[0], 8)
    y = atom_moments([(a, weight), (b, GaussianRational(1) - weight)], 8)
    x_phi = semicircle_moments(variances[1], 8, "phi")
    check_scaled_peeling(
        TwoStateSpec(8, x, y, x_phi, point_mass_moments(mass, 8, "phi")), words
    )
    # with phi = psi every x-gated difference (rqce - E)[yV] cancels
    check_scaled_peeling(TwoStateSpec(8, x, y), words)


fractions = st.fractions(max_denominator=10**6)


@settings(max_examples=100, deadline=None)
@given(a=fractions, b=fractions)
def test_a_real_gaussian_rational_hashes_like_its_fraction(a, b):
    x, y = GaussianRational(a), GaussianRational(b)
    for value, exact in ((x, a), (x + y, a + b), (x - y, a - b), (x * y, a * b)):
        assert hash(value) == hash(exact)
        assert value == exact
        assert {exact: True}[value]
    if b:
        assert hash(x / y) == hash(a / b)
    assert GaussianRational(a, 1) != a


# -- the series kernels against naive double loops ----------------------------

ZERO_MATRIX = SquareMatrix.zeros(2)
scalars = st.one_of(st.just(ZERO), st.sampled_from(COEFFS))
matrices = st.one_of(
    st.just(ZERO_MATRIX),
    st.lists(scalars, min_size=4, max_size=4).map(
        lambda e: SquareMatrix((e[:2], e[2:]))
    ),
)
rings = st.sampled_from((scalars, matrices))


def coefficient_lists(ring, max_order=6):
    return st.lists(ring, min_size=1, max_size=max_order + 1)


def naive_product(p, q):
    """The Cauchy product of two coefficient lists, to the shorter one."""
    n = min(len(p), len(q))
    out = [p[0].zero_like()] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = out[i + j] + p[i] * q[j]
    return out


def times(c, a):
    """The scalar c times a ring element, entry by entry for a matrix."""
    return a.map(lambda e: c * e) if isinstance(a, SquareMatrix) else c * a


def naive_compose(outer, inner, skip=0):
    """sum_{k >= skip} outer[k] * inner^(k - skip), to the inner order."""
    zero = inner[0]
    power = [zero.one_like()] + [zero] * (len(inner) - 1)
    out = [zero] * len(inner)
    for c in outer[skip:]:
        out = [a + times(c, b) for a, b in zip(out, power)]
        power = naive_product(power, inner)
    return out


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_series_product_equals_the_double_loop(data):
    ring = data.draw(rings)
    p, q = data.draw(coefficient_lists(ring)), data.draw(coefficient_lists(ring))
    assert list((TruncSeries(p) * TruncSeries(q)).coeffs) == naive_product(p, q)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_series_inverse_is_a_two_sided_inverse_under_the_double_loop(data):
    c = data.draw(coefficient_lists(data.draw(rings)))
    try:
        c[0].inverse()
    except DomainError:
        assume(False)
    d = list(TruncSeries(c).inverse().coeffs)
    one = [c[0].one_like()] + [c[0].zero_like()] * (len(c) - 1)
    assert naive_product(c, d) == one
    assert naive_product(d, c) == one


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compositions_equal_sums_of_repeated_products(data):
    # independent orders: the outer one lands above, at and below the inner
    outer = data.draw(coefficient_lists(scalars, max_order=8))
    inner = data.draw(coefficient_lists(data.draw(rings)))
    inner[0] = inner[0].zero_like()
    s, w = TruncSeries(outer), TruncSeries(inner)
    assert list(s.compose(w).coeffs) == naive_compose(outer, inner)
    assert list(s.compose_shifted(w).coeffs) == naive_compose(outer, inner, 1)


# noncommutative entries: x and y do not commute, so a kernel that
# multiplies s's entries from the wrong side changes the words
polynomials = st.one_of(
    st.just(NCPolynomial.zero()),
    st.builds(NCPolynomial.word, st.text(alphabet="xy", max_size=2), scalars),
)
polynomial_matrices = st.one_of(
    st.just(SquareMatrix.zeros(2, NCPolynomial.zero())),
    st.lists(polynomials, min_size=4, max_size=4).map(
        lambda e: SquareMatrix((e[:2], e[2:]))
    ),
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_geometric_equals_the_inverse_of_one_minus_z_s(data):
    ring = data.draw(st.sampled_from((scalars, matrices, polynomial_matrices)))
    s = TruncSeries(data.draw(coefficient_lists(ring)))
    one = TruncSeries.constant(s.coeffs[0].one_like(), s.order)
    assert geometric(s, s.order) == (one - s.shift(1)).inverse()


# -- pencil coefficients past the order ---------------------------------------

BLOCKS = ("h_x", "h_y", "f_x", "f_y", "f_x_phi", "f_y_phi")


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    order=st.integers(min_value=0, max_value=4),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_a_solve_drops_pencil_coefficients_past_its_order(data, order, seed):
    # A's z^k coefficient first enters at z^(k+1); the stacks reach past
    # the order with a nonzero top, and the longer solve keeps them all
    degree = data.draw(st.integers(min_value=order + 1, max_value=order + 3))
    stacks = st.lists(matrices, min_size=degree + 1, max_size=degree + 1)
    a, b = tuple(data.draw(stacks)), tuple(data.draw(stacks))
    assume(not (a[-1].is_zero() and b[-1].is_zero()))
    spec = random_spec(random.Random(seed), degree + 1)
    short = solve_fixed_point(spec, a, b, order)
    full = solve_fixed_point(spec, a, b, degree + 1)
    sub = max(order - 1, 0)
    for name in BLOCKS:
        assert getattr(short, name) == getattr(full, name).truncated(sub), name
    for state in ("phi", "psi"):
        assert short.mgf(state) == full.mgf(state).truncated(order), state
