"""Slow reference code and short constructors that only the tests call.

Each helper is an independent route to something the library computes
faster, such as the partition sums that define the cumulants (Nica-
Speicher, Lect. 16), or a definition or constructor the library never
needs at run time, such as gq, variable and std_spec; the tests check
the fast paths against these.
"""

from fractions import Fraction
from math import prod

from cfree.cumulants import boolean_from_moments, eta_series
from cfree.errors import DomainError
from cfree.multiplicative import subordination_pair
from cfree.ncpoly import NCPolynomial, block_factorize, check_word
from cfree.partitions import SetPartition, enumerate_interval, outer_inner
from cfree.scalars import GQ_ONE, GQ_ZERO, GaussianRational
from cfree.series import SquareMatrix, TruncSeries, geometric
from cfree.twostate import (
    TwoStateSpec,
    atom_moments,
    multilinear_boolean,
    semicircle_moments,
)


def gq(re=0, im=0):
    """The exact scalar re + i*im."""
    return GaussianRational(Fraction(re), Fraction(im))


def variable(order):
    """The series z, to the requested order (>= 1)."""
    if order < 1:
        raise DomainError("the variable needs order >= 1")
    return TruncSeries((GQ_ZERO, GQ_ONE) + (GQ_ZERO,) * (order - 1))


def gq_list(values):
    """Exact scalars of a list of ints and Fractions."""
    return [gq(v) for v in values]


def bernoulli_moments(order):
    """The symmetric Bernoulli: atoms -1 and 1 of weight 1/2 each."""
    return atom_moments(((-1, Fraction(1, 2)), (1, Fraction(1, 2))), order)


def std_spec(order):
    """x a standard semicircle, y a symmetric Bernoulli, phi = psi."""
    return TwoStateSpec(
        order, semicircle_moments(1, order), bernoulli_moments(order)
    )


def apply_linear(spec, fn, poly):
    """Extend a word-level map linearly over a polynomial's monomials."""
    out = NCPolynomial.zero()
    for word, coeff in poly.terms.items():
        out = out + coeff * fn(spec, word).poly
    return out


def accumulate(data, items):
    """Add (word, coeff) pairs into the word -> GaussianRational map data,
    dropping every zero sum: the arithmetic NCPolynomial ran before it
    stored Gaussian-integer pairs over one denominator."""
    for word, coeff in items:
        if coeff.is_zero():
            continue
        if word in data:
            coeff = data[word] + coeff
            if coeff.is_zero():
                del data[word]
                continue
        data[word] = coeff
    return data


def terms_product(a, b):
    """The product of two word -> GaussianRational maps, term by term."""
    return accumulate(
        {}, ((wa + wb, ca * cb) for wa, ca in a.items() for wb, cb in b.items())
    )


def discrete(n):
    """The bottom of the partition lattice: every point its own block."""
    return SetPartition(n, [(i,) for i in range(1, n + 1)])


def is_noncrossing(p):
    """The definition, read as a stack walk: a block may only continue
    while it is the innermost open block."""
    index = p.block_index()
    stack = []
    remaining = {k: len(b) for k, b in enumerate(p.blocks)}
    for q in range(1, p.n + 1):
        k = index[q]
        if remaining[k] == len(p.blocks[k]):
            stack.append(k)
        elif not stack or stack[-1] != k:
            return False
        remaining[k] -= 1
        if remaining[k] == 0:
            stack.pop()
    return True


def is_irreducible(p):
    """1 and n in one block."""
    return p.same_block(1, p.n)


def is_interval(p):
    """Every block a run of consecutive points."""
    return all(b[-1] - b[0] + 1 == len(b) for b in p.blocks)


def interval_closure(p):
    """Smallest interval partition above p: convex hulls of outer blocks."""
    outer, _ = outer_inner(p)
    return SetPartition(p.n, [tuple(range(b[0], b[-1] + 1)) for b in outer])


def partition_weight(p, seq):
    """prod over blocks V of seq_{|V|} for a single cumulant sequence."""
    return prod((seq.value(len(b)) for b in p.blocks), start=GQ_ONE)


def partition_weight_outer_inner(p, outer_seq, inner_seq):
    """Outer blocks weighted by one sequence, inner blocks by the other."""
    outer, inner = outer_inner(p)
    weights = [outer_seq.value(len(b)) for b in outer]
    weights += [inner_seq.value(len(b)) for b in inner]
    return prod(weights, start=GQ_ONE)


def partitioned_functional(fn, p, args):
    """prod over blocks of a multilinear functional on restricted args."""
    if len(args) != p.n:
        raise DomainError("argument count differs from ground set")
    blocks = (tuple(args[i - 1] for i in b) for b in p.blocks)
    return prod(map(fn, blocks), start=GQ_ONE)


def _cut_set(p, args):
    """Positions k with a block boundary between k and k+1, for an
    interval partition p of the arguments."""
    if not is_interval(p) or len(args) != p.n:
        raise DomainError("expected an interval partition of the arguments")
    return {b[-1] for b in p.blocks} - {p.n}


def boolean_products_join(beta, rho, args):
    """Products-as-entries via the interval-lattice join condition.

    beta_m(prod_1, ..., prod_m) = sum of beta_pi over interval partitions
    pi of the letters whose cuts avoid every cut of rho.
    """
    forbidden = _cut_set(rho, args)
    total = GQ_ZERO
    for p in enumerate_interval(rho.n):
        if not _cut_set(p, args) & forbidden:
            total = total + partitioned_functional(beta, p, args)
    return total


def boolean_products_recursive(beta, rho, args):
    """Products-as-entries by splitting off the leftmost cumulant block."""
    _cut_set(rho, args)
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


def letterwise_boolean(spec, state, word, partial=None):
    """Boolean cumulant with the individual letters as entries; given a
    partial letter, zero on nonempty words it does not frame."""
    check_word(word)
    if partial is not None:
        check_word(partial)
        if word and not word[0] == word[-1] == partial:
            return GQ_ZERO
    return multilinear_boolean(spec, state, list(word)) if word else GQ_ONE


def boolean_by_deconcatenation(spec, state, args):
    """beta_n(a_1, ..., a_n) by the deconcatenation recursion on the
    oracle's Gaussian-rational word moments, every step exact."""
    if not args:
        raise DomainError("Boolean cumulant of no arguments")
    prefix = []
    for k in range(1, len(args) + 1):
        value = spec.moment(state, "".join(args[:k]))
        for j in range(1, k):
            value = value - prefix[j - 1] * spec.moment(state, "".join(args[j:k]))
        prefix.append(value)
    return prefix[-1]


def block_boolean(spec, state, word, guard=None):
    """Boolean cumulant of the maximal single-letter runs of the word."""
    check_word(word)
    if word == "":
        return GQ_ONE
    runs = [ch * k for ch, k in block_factorize(word)]
    return multilinear_boolean(spec, state, runs, guard)


def partial_block_boolean(spec, state, letter, word, guard=None):
    """block_boolean on words framed by the letter, zero otherwise."""
    check_word(letter)
    check_word(word)
    if word == "":
        return GQ_ONE
    if word[0] != letter or word[-1] != letter:
        return GQ_ZERO
    return block_boolean(spec, state, word, guard)


def peel(spec, state, w, memos=None):
    """E[W] under psi, rqce[W] under phi: condexp's peeling rule over
    Gaussian-rational polynomials, every block functional divided out."""
    if memos is None:
        memos = {"psi": {}, "phi": {}}
    if "y" not in w:
        return NCPolynomial.word(w)
    memo = memos[state]
    got = memo.get(w)
    if got is not None:
        return got
    gate = w[0]
    if gate == "y":
        out = NCPolynomial.scalar(partial_block_boolean(spec, state, "y", w))
    else:
        out = NCPolynomial.letter("x") * peel(spec, "psi", w[1:], memos)
    if gate == "y" or state == "phi":
        for k in range(1, len(w)):
            if w[k] == gate:
                continue
            coeff = partial_block_boolean(spec, state, gate, w[:k])
            if coeff.is_zero():
                continue
            tail = peel(spec, state, w[k:], memos)
            if gate == "x":
                tail = tail - peel(spec, "psi", w[k:], memos)
            out = out + coeff * tail
    memo[w] = out
    return out


def _linear(poly, fn, *head):
    """fn(*head, word) extended linearly over a polynomial's monomials."""
    return sum((c * fn(*head, w) for w, c in poly.terms.items()), GQ_ZERO)


def block_boolean_poly(spec, state, poly, partial=None):
    """(partial_)block_boolean extended linearly: the engine's H blocks."""
    if partial is None:
        return _linear(poly, block_boolean, spec, state)
    return _linear(poly, partial_block_boolean, spec, state, partial)


def letterwise_boolean_poly(spec, state, poly, partial=None):
    """letterwise_boolean extended linearly: the engine's F blocks."""
    return _linear(poly, lambda w: letterwise_boolean(spec, state, w, partial))


def closure_check(elements, leq, close, f, g):
    """Finite verification of the closure-lemma pattern.

    Checks the three closure axioms on (elements, leq), the partial-sum
    hypothesis F(x) = sum_{closed y <= x} g(y) at every closed x, and the
    conclusion g(y) = sum_{close(z) = y} f(z).  Exact equality throughout.
    """
    closed = [x for x in elements if close(x) == x]
    for x in elements:
        cx = close(x)
        if not leq(x, cx):
            return False
        if close(cx) != cx:
            return False
        for y in elements:
            if leq(x, y) and not leq(cx, close(y)):
                return False
    for x in closed:
        total = None
        for y in elements:
            if leq(y, x):
                total = f(y) if total is None else total + f(y)
        partial = None
        for y in closed:
            if leq(y, x):
                partial = g(y) if partial is None else partial + g(y)
        if total != partial:
            return False
    for y in closed:
        grouped = None
        for z in elements:
            if close(z) == y:
                grouped = f(z) if grouped is None else grouped + f(z)
        if grouped != g(y):
            return False
    return True


def word_resolvent(a_coeffs, b_coeffs, n, order):
    """(I - zL)^{-1} for L(z) = A(z)X + B(z)Y, with polynomial entries.

    a_coeffs and b_coeffs list the n x n scalar z-coefficients of A and
    B; missing ones count as zero and those past the order are dropped.
    The z^k coefficient collects the words of total z-weight k.  The full
    matrix series behind Linearization.resolvent_corner's row readout.
    """
    lifted = [SquareMatrix.zeros(n, NCPolynomial.zero())] * (order + 1)
    for letter, stack in (("x", a_coeffs), ("y", b_coeffs)):
        var = NCPolynomial.letter(letter)
        for k, mat in enumerate(stack[: order + 1]):
            lifted[k] = lifted[k] + mat.map(lambda c: c * var)
    return geometric(TruncSeries(lifted), order)


def advance_full(eta, omega_other):
    """multiplicative._advance the slow way: z * etat(omega_other) composed
    at omega_other's full order, whose top coefficient, the costliest
    one, the shift by z then drops."""
    return eta.compose_shifted(omega_other).shift(1)


def mgf_product_phi_full(spec, order):
    """mgf_product_phi the slow way: the pair solved at the full order and
    both compositions carried to z^order, though the geometric series
    reads them only below z^order."""
    pair = subordination_pair(spec, order)
    tx = spec.eta("x", "phi", order).compose_shifted(pair.omega_x)
    ty = spec.eta("y", "phi", order).compose_shifted(pair.omega_y)
    return geometric(tx * ty, order)


def sigma_transform_full(marginal, order):
    """sigma_transform the slow way: both Boolean recursions run over the
    marginals' own order, and the reversion and composition carried to
    z^order, then cut to order - 1.  Raises DomainError where
    sigma_transform does: a zero psi-mean or order 0 leaves nothing to
    revert, and short marginals leave eta_series short."""
    phi_m, psi_m = marginal
    eta_psi = eta_series(boolean_from_moments(psi_m)).truncated(order)
    eta_phi = eta_series(boolean_from_moments(phi_m)).truncated(order)
    return eta_phi.compose_shifted(eta_psi.revert()).truncated(order - 1)
