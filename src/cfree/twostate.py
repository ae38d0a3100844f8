"""Ground truth for joint (psi, phi)-moments of two c-free variables.

A TwoStateSpec holds marginal moment sequences for the letters x and y
under both states, and one CumulantTable per letter that derives their
Boolean, free and c-free cumulants on first read, each only to the order
read: the engine grows the Boolean ones to its own order, and the public
accessors every sequence to the spec order.  The word oracle reads no
table; it solves for its own scaled cumulants (below).  Joint word moments
are colored noncrossing partition sums, evaluated here by a first-block
recursion instead of literal enumeration:

    psi(w) = sum over chains 0 = b_1 < ... < b_k of positions carrying
             w[0], of r_k * prod psi(gap between consecutive b_i)
             * psi(tail after b_k),

because the block containing position 0 splits the word into enclosed
gaps (independent, fully nested) and a free tail.  The phi version is the
same chain sum with the outer block weighted by the c-free cumulant and
the tail recursed under phi, since everything inside a gap is nested and
keeps psi weights.  Tests replay literal enumeration against this.

On a single-letter word the recursion is the moment-cumulant formula:
in letter^n only the chain through all n positions carries the n-th
cumulant, with coefficient 1, so the oracle solves letter^n's chain sum
against the marginal m_n for it, psi before phi, and m_n seeds the memo.

The recursion runs in Gaussian integers.  Cumulants of order k are
integer polynomials of weight k in the moments, so with an integer D per
letter making every D^k m_k (either state) a Gaussian integer, D^k r_k and
D_x^#x D_y^#y psi(w) are ones too: a chain, its gaps and its tail share
out the word's letters, so the recursion holds term by term on these
scaled values.  The memos keep them as (re, im) ints; `moment` divides
once per read and returns the exact Gaussian rational, and `poly_moment`
and the Boolean functionals combine the scaled ints and divide once per
value they return.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .cumulants import CumulantSeq, CumulantTable, MomentSeq
from .errors import DomainError, Frozen, InternalError, LimitError, ParseError
from .ncpoly import ALPHABET, MAX_WORD, check_word
from .partitions import ENUMERATION_GUARD, _enumerate, is_vnrp, outer_inner
from .scalars import GQ_ONE, GQ_ZERO, GaussianRational, parse_gaussian
from .series import SquareMatrix, TruncSeries

STATES = ("psi", "phi")


class TwoStateSpec(Frozen):
    """Marginal data of x and y plus memoized joint moment evaluation."""

    __slots__ = (
        "order",
        "_psi",
        "_phi",
        "_tables",
        "_scale",
        "_scaled",
        "_psi_memo",
        "_phi_memo",
        "_chain_memo",
    )

    def __init__(self, order, x_psi, y_psi, x_phi=None, y_phi=None):
        if order < 1:
            raise DomainError("spec order must be at least 1")
        psi = {"x": x_psi, "y": y_psi}
        phi = {
            "x": x_phi if x_phi is not None else MomentSeq(x_psi.values, "phi"),
            "y": y_phi if y_phi is not None else MomentSeq(y_psi.values, "phi"),
        }
        for letter in ALPHABET:
            if psi[letter].order != order or phi[letter].order != order:
                raise DomainError("marginal orders must equal the spec order")
            if psi[letter].state != "psi" or phi[letter].state != "phi":
                raise DomainError("marginal state tags are inconsistent")
        tables = {
            letter: CumulantTable(psi[letter].values, phi[letter].values)
            for letter in ALPHABET
        }
        scale = {ch: _letter_scale(psi[ch].values, phi[ch].values) for ch in ALPHABET}
        # D^k times the k-th free (psi) or c-free (phi) cumulant, as int
        # pairs, solved from single-letter chain sums as words need them
        scaled = {state: {ch: [] for ch in ALPHABET} for state in STATES}
        super().__init__(
            order, psi, phi, tables, scale, scaled, {"": (1, 0)}, {"": (1, 0)}, {}
        )

    # the memos are dicts that grow: a spec equals and prints only itself
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __repr__ = object.__repr__

    # -- marginal data -------------------------------------------------------

    def marginal(self, letter, state="psi"):
        check_word(letter)
        return (self._psi if state == "psi" else self._phi)[letter]

    def boolean_cumulants(self, letter, state="psi"):
        check_word(letter)
        values = self._tables[letter].booleans(state, self.order)
        return CumulantSeq(values, "boolean-psi" if state == "psi" else "boolean-phi")

    def free_cumulants(self, letter):
        """Free psi-cumulants of a letter to the spec order."""
        check_word(letter)
        return CumulantSeq(self._tables[letter].frees(self.order), "free-psi")

    def cfree_cumulants(self, letter):
        """C-free cumulants of a letter to the spec order."""
        check_word(letter)
        return CumulantSeq(self._tables[letter].cfrees(self.order), "cfree")

    def eta(self, letter, state="psi", order=None):
        """eta(z) = sum beta_k z^k to the order (default: the spec order)."""
        check_word(letter)
        order = self.order if order is None else order
        if order > self.order:
            raise DomainError("eta requested beyond available cumulants")
        beta = self._tables[letter].booleans(state, order)
        return TruncSeries((GQ_ZERO,) + tuple(beta[:order]))

    # -- joint moments --------------------------------------------------------

    def _chains(self, word):
        """For each chain end: (tail start, chain sums indexed by length).

        chain[t][k-1] sums prod of scaled gap psi-moments over all chains
        of k positions of letter word[0] starting at 0 and ending at the
        t-th occurrence.
        """
        hit = self._chain_memo.get(word)
        if hit is not None:
            return hit
        letter = word[0]
        positions = [j for j, ch in enumerate(word) if ch == letter]
        free = self._scaled["psi"]
        rows = []
        for t, j in enumerate(positions):
            row = [(1, 0) if j == 0 else (0, 0)]
            for k in range(2, t + 2):
                re = im = 0
                for s in range(k - 2, t):
                    p_re, p_im = rows[s][k - 2]
                    if p_re or p_im:
                        g_re, g_im = self._word_moment(
                            word[positions[s] + 1 : j], free, self._psi_memo
                        )
                        re += p_re * g_re - p_im * g_im
                        im += p_re * g_im + p_im * g_re
                row.append((re, im))
            rows.append(row)
        result = [(j + 1, rows[t]) for t, j in enumerate(positions)]
        self._chain_memo[word] = result
        return result

    def _word_moment(self, word, cumulants, memo):
        """Scaled chain sum of the word, the outer block weighted by cumulants.

        (self._scaled[state], memo of the state) gives the state's moment
        times D_x^#x D_y^#y; gaps always recurse under psi.  The scaled
        cumulant lists must hold the word's letter counts, except on
        letter^n with the list one entry short: then the sum lacks exactly
        the n-th cumulant's term.
        """
        value = memo.get(word)
        if value is not None:
            return value
        r = cumulants[word[0]]
        re = im = 0
        for tail_start, chain in self._chains(word):
            t_re, t_im = self._word_moment(word[tail_start:], cumulants, memo)
            if not (t_re or t_im):
                continue
            w_re = w_im = 0
            for (c_re, c_im), (k_re, k_im) in zip(chain, r):
                w_re += c_re * k_re - c_im * k_im
                w_im += c_re * k_im + c_im * k_re
            re += w_re * t_re - w_im * t_im
            im += w_re * t_im + w_im * t_re
        memo[word] = value = (re, im)
        return value

    def _scaled_moment(self, state, word, guard=None):
        """((re, im), den): the word's moment is (re + i im) / den, with
        den = D_x^#x D_y^#y and (re, im) the memo's ints; a miss first
        grows the scaled cumulants to the word's letter counts.  Every
        memo key is a checked word, so only a miss checks the letters."""
        if state not in STATES:
            raise DomainError("unknown state %r" % (state,))
        memo = self._psi_memo if state == "psi" else self._phi_memo
        value = memo.get(word)
        if value is None:
            check_word(word)
        # the spec order is checked first: no guard can lift it
        if len(word) > self.order:
            raise DomainError(
                "word length %d exceeds spec order %d" % (len(word), self.order)
            )
        limit = ENUMERATION_GUARD if guard is None else guard
        if len(word) > limit:
            raise LimitError(
                "word length %d exceeds guard %d" % (len(word), limit)
            )
        den = 1
        for letter in ALPHABET:
            count, scale = word.count(letter), self._scale[letter]
            den *= scale**count
            if value is None:
                # psi before phi: the phi chains read psi gaps
                for grown in ("psi",) if state == "psi" else STATES:
                    self._solve_cumulants(grown, letter, count)
        if value is None:
            value = self._word_moment(word, self._scaled[state], memo)
        return value, den

    def _solve_cumulants(self, state, letter, count):
        """Grow the letter's scaled state cumulants to count: with the list
        one entry short, letter^n's chain sum is D^n m_n less exactly
        D^n c_n, and D^n m_n then seeds the memo."""
        cumulants, scale = self._scaled[state], self._scale[letter]
        memo = self._psi_memo if state == "psi" else self._phi_memo
        moments = (self._psi if state == "psi" else self._phi)[letter].values
        for n in range(len(cumulants[letter]) + 1, count + 1):
            m, power = moments[n - 1], scale**n
            re, im = m.re * power, m.im * power
            # D^n c_n is D^n m_n less ints: integral exactly when D^n m_n is
            if re.denominator != 1 or im.denominator != 1:
                raise InternalError(
                    "scale %d leaves cumulant %d fractional" % (scale, n)
                )
            rest_re, rest_im = self._word_moment(letter * n, cumulants, memo)
            memo[letter * n] = (re.numerator, im.numerator)
            cumulants[letter].append((re.numerator - rest_re, im.numerator - rest_im))

    def moment(self, state, word, guard=None):
        (re, im), den = self._scaled_moment(state, word, guard)
        return GaussianRational(Fraction(re, den), Fraction(im, den))

    def poly_moment(self, state, poly, guard=None):
        """Linear extension of the word moment to polynomials: the
        polynomial's Gaussian-integer pairs times the scaled word moments,
        summed in ints over one common denominator and divided once."""
        re = im = 0
        den = 1
        for word, (c_re, c_im) in poly._pairs.items():
            (m_re, m_im), m_den = self._scaled_moment(state, word, guard)
            common = math.lcm(den, m_den)
            up, term_up = common // den, common // m_den
            re = re * up + (c_re * m_re - c_im * m_im) * term_up
            im = im * up + (c_re * m_im + c_im * m_re) * term_up
            den = common
        den *= poly._den
        return GaussianRational(Fraction(re, den), Fraction(im, den))


def _letter_scale(psi, phi):
    """An int D with every D^k m_k (k-th moments) a Gaussian integer.

    Each denominator grows D to D den / gcd(den, D^k): for denominators
    c q^k that stays at c q, where their lcm would grow like q^N.
    """
    scale = 1
    for k, pair in enumerate(zip(psi, phi), 1):
        for den in (part.denominator for m in pair for part in (m.re, m.im)):
            scale *= den // math.gcd(den, pow(scale, k, den))
    return scale


# ---------------------------------------------------------------------------
# cumulant functionals evaluated against a spec
#
# Arguments are words; a product of arguments is their concatenation, read
# as a scaled moment under the caller's guard.
# ---------------------------------------------------------------------------


def multilinear_boolean(spec, state, args, guard=None):
    """beta_n(a_1, ..., a_n) by the deconcatenation recursion, in ints."""
    if not args:
        raise DomainError("Boolean cumulant of no arguments")
    ends = list(itertools.accumulate(map(len, args)))
    prefix, den = _scaled_boolean(spec, state, "".join(args), ends, guard)
    re, im = prefix[-1]
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _scaled_boolean(spec, state, word, ends, guard):
    """(prefix, den): the word's arguments end at the ascending ends, the
    last at len(word), and prefix[k] is the Boolean cumulant of those that
    end by ends[k], scaled as word[:ends[k]]; den is the word's scale.
    Each term beta_j m(a_{j+1}..a_k) of step k has the scale of a_1..a_k.
    The word is checked and read once, which grows the scaled cumulants
    for every sub-span."""
    _, den = spec._scaled_moment(state, word, guard)
    cumulants = spec._scaled[state]
    memo = spec._psi_memo if state == "psi" else spec._phi_memo
    prefix = []
    for k, end in enumerate(ends):
        re, im = spec._word_moment(word[:end], cumulants, memo)
        for j in range(k):
            s_re, s_im = spec._word_moment(word[ends[j] : end], cumulants, memo)
            p_re, p_im = prefix[j]
            re -= p_re * s_re - p_im * s_im
            im -= p_re * s_im + p_im * s_re
        prefix.append((re, im))
    return prefix, den


def nested_two_state_boolean(spec, p, args):
    """Outer blocks under phi, inner under psi."""
    if len(args) != p.n:
        raise DomainError("argument count differs from ground set")
    outer, inner = outer_inner(p)
    value = GQ_ONE
    for block in outer:
        value = value * multilinear_boolean(
            spec, "phi", [args[i - 1] for i in block]
        )
    for block in inner:
        value = value * multilinear_boolean(
            spec, "psi", [args[i - 1] for i in block]
        )
    return value


def vnrp_boolean_phi(spec, args, colors):
    """beta^phi_n(a_1..a_n) as the VNRP sum over irreducible colored
    partitions, each weighted outer-phi / inner-psi."""
    colors = tuple(colors)
    if len(args) != len(colors):
        raise DomainError("one color per argument required")
    total = GQ_ZERO
    for p in _enumerate(len(colors), None, colors, closed=True):
        if is_vnrp(p, colors):
            total = total + nested_two_state_boolean(spec, p, args)
    return total


# ---------------------------------------------------------------------------
# construction helpers
# ---------------------------------------------------------------------------


def semicircle_moments(variance, order, state="psi"):
    """Even moments Catalan_k * v^k, odd moments zero."""
    values = []
    power = GQ_ONE
    for n in range(1, order + 1):
        if n % 2:
            values.append(GQ_ZERO)
        else:
            k = n // 2
            power = power * variance
            values.append(GaussianRational(math.comb(n, k) // (k + 1)) * power)
    return MomentSeq(values, state)


def atom_moments(pairs, order, state="psi"):
    """Moments of a finite atomic measure given as (value, weight) pairs."""
    pairs = list(pairs)
    total = GQ_ZERO
    for _, w in pairs:
        total = total + w
    if total != GQ_ONE:
        raise DomainError("atom weights must sum to 1")
    values = []
    powers = [GQ_ONE] * len(pairs)
    for _ in range(order):
        powers = [p * v for p, (v, _) in zip(powers, pairs)]
        m = GQ_ZERO
        for p, (_, w) in zip(powers, pairs):
            m = m + w * p
        values.append(m)
    return MomentSeq(values, state)


def point_mass_moments(value, order, state="psi"):
    return atom_moments([(value, GQ_ONE)], order, state)


def random_spec(rng, order):
    """Small random rational marginals, with phi sequences of their own."""

    def seq(state):
        return MomentSeq(
            [
                GaussianRational(
                    Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                )
                for _ in range(order)
            ],
            state,
        )

    return TwoStateSpec(order, seq("psi"), seq("psi"), seq("phi"), seq("phi"))


# ---------------------------------------------------------------------------
# JSON input
#
#   {"x": {"psi": DIST, "phi": DIST?}, "y": {...}, "order": N}
#   DIST = {"kind": "moments", "moments": ["0", "1", ...]}
#        | {"kind": "semicircle", "variance": "1"}
#        | {"kind": "atoms", "atoms": [{"value": "-1", "weight": "1/2"}, ...]}
# ---------------------------------------------------------------------------


def _json_scalar(value, what):
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError("%s must be an exact rational string" % what)
    if isinstance(value, int):
        return GaussianRational(value)
    if isinstance(value, str):
        return parse_gaussian(value)
    raise ParseError("%s must be an exact rational string" % what)


def dist_moments(dist, order, state):
    if not isinstance(dist, dict):
        raise ParseError("distribution must be an object")
    kind = dist.get("kind")
    if kind == "moments":
        raw = dist.get("moments")
        if not isinstance(raw, list):
            raise ParseError("moments distribution needs a 'moments' list")
        values = [_json_scalar(v, "moment") for v in raw]
        if len(values) < order:
            raise ParseError(
                "need %d moments, got %d" % (order, len(values))
            )
        return MomentSeq(values[:order], state)
    if kind == "semicircle":
        variance = _json_scalar(dist.get("variance", "1"), "variance")
        return semicircle_moments(variance, order, state)
    if kind == "atoms":
        raw = dist.get("atoms")
        if not isinstance(raw, list) or not raw:
            raise ParseError("atoms distribution needs a nonempty 'atoms' list")
        pairs = []
        for entry in raw:
            if not isinstance(entry, dict):
                raise ParseError("each atom must be an object")
            pairs.append(
                (
                    _json_scalar(entry.get("value"), "atom value"),
                    _json_scalar(entry.get("weight"), "atom weight"),
                )
            )
        try:
            return atom_moments(pairs, order, state)
        except DomainError as exc:
            raise ParseError(str(exc)) from None
    raise ParseError("unknown distribution kind %r" % (kind,))


def spec_from_json(data):
    if not isinstance(data, dict):
        raise ParseError("spec must be a JSON object")
    order = data.get("order")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise ParseError("spec needs a positive integer 'order'")
    if order > MAX_WORD:  # a moment of order k is a k-letter word
        raise LimitError(
            "spec order %d exceeds the ceiling of %d letters per word"
            % (order, MAX_WORD)
        )
    seqs = {}
    for letter in ALPHABET:
        entry = data.get(letter)
        if not isinstance(entry, dict) or "psi" not in entry:
            raise ParseError("spec needs %r with at least a 'psi' entry" % letter)
        seqs[letter, "psi"] = dist_moments(entry["psi"], order, "psi")
        if "phi" in entry:
            seqs[letter, "phi"] = dist_moments(entry["phi"], order, "phi")
        else:
            seqs[letter, "phi"] = None
    return TwoStateSpec(
        order,
        seqs["x", "psi"],
        seqs["y", "psi"],
        seqs["x", "phi"],
        seqs["y", "phi"],
    )


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def hankel_warnings(spec):
    """Non-fatal positivity diagnostics for the four marginal sequences."""
    notes = []
    for letter in ALPHABET:
        for state in STATES:
            seq = spec.marginal(letter, state)
            if any(m.im for m in seq.values):
                notes.append(
                    "%s moments of %s are not real" % (state, letter)
                )
                continue
            moments = (GQ_ONE,) + seq.values
            size = (len(moments) + 1) // 2
            for k in range(1, size + 1):
                rows = [
                    [moments[i + j] for j in range(k)] for i in range(k)
                ]
                if SquareMatrix(rows).det().re < 0:
                    notes.append(
                        "%s moments of %s fail positivity at Hankel size %d"
                        % (state, letter, k)
                    )
                    break
    return notes
