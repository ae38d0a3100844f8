"""Property tests: the engine against the word oracle on random input.

Criterion 3 fixes five polynomials; here hypothesis draws the polynomial
(up to three monomials of length at most three, Gaussian-rational
coefficients) and the seed of a random spec, and the engine's moments in
both states, read from one solve, must equal the oracle's word sums.
"""

import random
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cfree.engine import _poly_moments
from cfree.ncpoly import NCPolynomial
from cfree.scalars import GaussianRational
from cfree.selfcheck import oracle_moments
from cfree.twostate import random_spec

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
