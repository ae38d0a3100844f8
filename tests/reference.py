"""Slow reference code that only the tests call.

Each helper is an independent route to something the library computes
faster, or a definition the library never needs at run time; the tests
check the fast paths against these.
"""

from cfree.cumulants import boolean_from_moments, eta_series
from cfree.multiplicative import subordination_pair
from cfree.ncpoly import NCPolynomial
from cfree.partitions import SetPartition, outer_inner
from cfree.series import SquareMatrix, TruncSeries, geometric


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


def interval_closure(p):
    """Smallest interval partition above p: convex hulls of outer blocks."""
    outer, _ = outer_inner(p)
    return SetPartition(
        p.n, [tuple(range(b[0], b[-1] + 1)) for b in outer]
    )


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
    eta_psi = eta_series(boolean_from_moments(psi_m), order)
    eta_phi = eta_series(boolean_from_moments(phi_m), order)
    return eta_phi.compose_shifted(eta_psi.revert()).truncated(order - 1)
