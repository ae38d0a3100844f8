"""Free and quasi-conditional expectations onto the X-algebra.

Two word-level computations and their resolvent-level counterparts:

* efree_full / efree_rec: the psi-preserving conditional expectation
  E[W] onto polynomials in X, for X free from Y under psi.  The full
  formula sums over chains of x-runs weighted by Boolean cumulants of
  the gaps; the recursion peels the word with y-gated block functionals
  and the bimodule property.  Both produce the same polynomial.

* rqce: the right quasi-conditional expectation adapted to the pair
  (phi, psi).  It is phi-preserving and a right module map over the
  X-algebra, but deliberately not a left one; the failure of left
  modularity is what carries the second state.

Both maps are one recursion, _peel, run under state psi for E and
under state phi for rqce.  Writing beta for the y-gated (resp. x-gated)
block Boolean functional and stripping one leading x by the one-sided
module property:

    rqce[W]  = beta^phi_y(W)
             + sum_{W=UxV, U nonempty} beta^phi_y(U) rqce[xV]
             + sum_{W=UyV, U nonempty} beta^phi_x(U) (rqce - E)[yV]
             + [W starts with x] * x E[W']        (W = xW')

    E[W]     = same with phi replaced by psi; the x-gated difference
               term then cancels identically and is never computed.

The gating makes every coefficient vanish unless the prefix starts and
ends with the right letter, so each surviving term strictly shortens
the word and the recursion terminates.

The recursion runs on the word oracle's scaled Gaussian integers: a
word's x^k coefficient is kept times D_x^(#x - k) D_y^#y, with D the
oracle's letter scales, so all its terms share one scale, and efree_rec
and rqce hand the polynomial those integers over the word's scale
D_x^#x D_y^#y, reduced once, without a Fraction per coefficient.

Resolvent forms apply the maps coefficientwise to the matrix resolvent
(I - z(AX + BY))^{-1} without touching any word: the subordination
blocks of the fixed-point engine already carry the answer.
"""

from __future__ import annotations

import itertools
import sys

from .engine import solve_fixed_point
from .errors import Frozen, LimitError
from .ncpoly import MAX_WORD, NCPolynomial, _reduced, block_factorize, check_word
from .series import TruncSeries, geometric
from .twostate import _scaled_boolean, multilinear_boolean

__all__ = [
    "CondExpResult",
    "efree_full",
    "efree_rec",
    "rqce",
    "efree_resolvent",
    "rqce_resolvent",
]

DEFAULT_GUARD = 10


class CondExpResult(Frozen):
    """A conditional expectation value plus how it was computed.

    source is one of "full-formula", "recursive", "resolvent".  The
    polynomial is always supported on powers of x alone.
    """

    __slots__ = ("poly", "source")


def _checked_word(w, guard):
    check_word(w)
    if len(w) > guard:
        raise LimitError(
            "word of length %d exceeds the guard %d; raise it with --guard "
            "on the command line or guard= in the library" % (len(w), guard)
        )
    if len(w) > MAX_WORD:
        raise LimitError(
            "word of length %d exceeds the ceiling %d" % (len(w), MAX_WORD)
        )
    return w


def efree_full(spec, w, guard=DEFAULT_GUARD):
    """E[W] by direct summation over chains of x-runs.

    The word x^{a_0} y^{b_1} x^{a_1} ... y^{b_n} x^{a_n} contributes,
    for every chain 0 = i_0 < ... < i_{p+1} = n through the y-runs, the
    monomial given by concatenating the selected x-runs, weighted by the
    product of Boolean psi-cumulants of the skipped segments.
    """
    w = _checked_word(w, guard)
    if "y" not in w:
        return CondExpResult(NCPolynomial.word(w), "full-formula")
    runs_x = []
    runs_y = []
    blocks = block_factorize(w)
    if blocks[0][0] == "y":
        runs_x.append(0)
    for letter, count in blocks:
        (runs_x if letter == "x" else runs_y).append(count)
    if blocks[-1][0] == "y":
        runs_x.append(0)
    n = len(runs_y)
    out = NCPolynomial.zero()
    for p in range(n):
        for chain in itertools.combinations(range(1, n), p):
            points = (0,) + chain + (n,)
            weight = None
            for j in range(len(points) - 1):
                s, t = points[j], points[j + 1]
                args = []
                for r in range(s, t):
                    if r > s:
                        args.append("x" * runs_x[r])
                    args.append("y" * runs_y[r])
                factor = multilinear_boolean(spec, "psi", args, guard)
                weight = factor if weight is None else weight * factor
                if weight.is_zero():
                    break
            if weight is None or weight.is_zero():
                continue
            kept = runs_x[0] + sum(runs_x[i] for i in chain) + runs_x[n]
            out = out + NCPolynomial.word("x" * kept, weight)
    return CondExpResult(out, "full-formula")


def _peel(spec, state, w, memos, guard):
    """The module's peeling rule: E[W] under psi, rqce[W] under phi.

    Returns {k: (re, im)}, the x^k coefficient times D_x^(#x(W) - k)
    D_y^#y(W) in Gaussian integers, zeros left out.  Every term has that
    scale: x E[W'] shifts k with no rescale, and each prefix U, gated by
    W's first letter and cut where the other letter follows it, gives its
    scaled Boolean cumulant times the tail's ints.  memos maps each state
    to its word memo.
    """
    if "y" not in w:
        return {len(w): (1, 0)}
    memo = memos[state]
    got = memo.get(w)
    if got is not None:
        return got
    gate = w[0]
    shifted = _peel(spec, "psi", w[1:], memos, guard) if gate == "x" else {}
    out = {k + 1: value for k, value in shifted.items()}
    # under psi the x-gated term is beta_x(U) (E - E)[yV] = 0; a y-gated
    # U = W, with the empty tail, is the head beta_y(W)
    if gate == "y" or state == "phi":
        # U ends where a gate run does (the even run ends), U = W only
        # under the y gate; one call reads every prefix up to the last U
        ends = [k for k in range(1, len(w)) if w[k] != w[k - 1]]
        if gate == "y":
            ends.append(len(w))
        if len(ends) % 2 == 0:
            ends.pop()
        prefix, _ = _scaled_boolean(spec, state, w[: ends[-1]], ends, guard)
        for k, (c_re, c_im) in zip(ends[::2], prefix[::2]):
            if c_re or c_im:
                _add_product(out, c_re, c_im, _peel(spec, state, w[k:], memos, guard))
                if gate == "x":
                    tail = _peel(spec, "psi", w[k:], memos, guard)
                    _add_product(out, -c_re, -c_im, tail)
    memo[w] = out
    return out


def _add_product(out, c_re, c_im, terms):
    """out += (c_re + i c_im) terms on {k: (re, im)}, dropping zeros."""
    for k, (t_re, t_im) in terms.items():
        re, im = out.pop(k, (0, 0))
        re += c_re * t_re - c_im * t_im
        im += c_re * t_im + c_im * t_re
        if re or im:
            out[k] = (re, im)


def _recursive(spec, state, w, guard):
    """_peel's answer for a checked word, handed to the polynomial as
    Gaussian integers over the word's scale D_x^#x D_y^#y, reduced once.
    The x^k keys are interned: retained answers share them."""
    w = _checked_word(w, guard)
    scaled = _peel(spec, state, w, {"psi": {}, "phi": {}}, guard)
    scale_x = spec._scale["x"]
    den = scale_x ** w.count("x") * spec._scale["y"] ** w.count("y")
    pairs = {}
    for k, (re, im) in scaled.items():
        up = scale_x**k
        pairs[sys.intern("x" * k)] = (re * up, im * up)
    return CondExpResult(_reduced(pairs, den), "recursive")


def efree_rec(spec, w, guard=DEFAULT_GUARD):
    """E[W] by the peeling recursion; agrees with efree_full."""
    return _recursive(spec, "psi", w, guard)


def rqce(spec, w, guard=DEFAULT_GUARD):
    """Right quasi-conditional expectation of a word onto the X-algebra."""
    return _recursive(spec, "phi", w, guard)


def _lift_entries(series):
    """Scalar-matrix series -> the same series with polynomial entries."""
    return series.map(lambda mat: mat.map(NCPolynomial.scalar))


def _efree_resolvent_factor(st):
    """(I - z A X - z B F_Y)^{-1} at the state's order."""
    x = NCPolynomial.letter("x")
    ax = st.a.map(lambda mat: mat.map(lambda c: c * x))
    return geometric(ax + _lift_entries(st.b * st.f_y), st.order)


def efree_resolvent(spec, a, b, order):
    """E applied to (I - z(AX + BY))^{-1}, as a matrix series over C<x>.

    Equal to the coefficientwise conditional expectation of the word
    resolvent; computed instead from the solved subordination block F_Y
    as (I - zAX - zBF_Y)^{-1}.
    """
    st = solve_fixed_point(spec, a, b, order)
    return _efree_resolvent_factor(st)


def rqce_resolvent(spec, a, b, order):
    """rqce applied to (I - z(AX + BY))^{-1}, as a matrix series over C<x>.

    The product form
        M^phi(z) (I - zAF^phi_X - zBF_Y) (I - zAX - zBF_Y)^{-1}
    whose middle factor inverts phi applied entrywise to the free
    conditional expectation of the resolvent.
    """
    st = solve_fixed_point(spec, a, b, order)
    first = _lift_entries(st.mgf("phi"))
    mixed = (st.a * st.f_x_phi) + (st.b * st.f_y)
    # I - z * mixed, whose last coefficient sits at z^order
    ident = mixed.coeffs[0].one_like()
    middle = TruncSeries(((ident,) + (-mixed).coeffs)[: order + 1])
    return first * _lift_entries(middle) * _efree_resolvent_factor(st)
