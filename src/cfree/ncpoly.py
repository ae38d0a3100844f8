"""The free algebra Q(i)<x,y>: words, polynomials, printing and parsing.

Words are plain strings over the alphabet {x, y} ("" is the empty word).
An NCPolynomial stores its coefficients as Gaussian integers over one
denominator: a map word -> (re, im) of nonzero int pairs and a positive
int den, the coefficient of a word being (re + i*im) / den.  The map is
kept in lowest terms (the gcd of den and every part is 1), so equal
polynomials store equal fields.  A product multiplies int pairs over
the product of the two denominators and reduces once; a sum or
difference brings both to one lcm.  The word -> GaussianRational map
.terms is derived from the pairs on each read.  format_poly and
parse_poly convert between polynomials and the text grammar that the
command line reads.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError, Frozen, LimitError, ParseError
from .scalars import (
    GQ_I,
    GQ_ONE,
    GQ_ZERO,
    GaussianRational,
    as_gaussian,
    format_gaussian,
    parse_rational,
)

ALPHABET = ("x", "y")
# The longest word the package builds: the peeling recursions of condexp
# nest one call per letter, and a power is refused before it would build
# a longer word.
MAX_WORD = 500
# The most term pairs one product may multiply out: (x + y)^k has 2^k
# words, and a product past this bound is refused before it is built.
MAX_PAIRS = 1 << 20


def check_word(word):
    if any(ch not in ALPHABET for ch in word):
        raise DomainError("word %r uses letters outside %s" % (word, ALPHABET))
    return word


def block_factorize(word):
    """Maximal runs of a single letter: 'xxxyyx' -> [('x',3),('y',2),('x',1)]."""
    check_word(word)
    runs = []
    for ch in word:
        if runs and runs[-1][0] == ch:
            runs[-1][1] += 1
        else:
            runs.append([ch, 1])
    return [(ch, k) for ch, k in runs]


def _poly(pairs, den):
    """Wrap word -> nonzero (re, im) pairs over den, already in lowest
    terms, whose words are known valid."""
    poly = NCPolynomial.__new__(NCPolynomial)
    object.__setattr__(poly, "_pairs", pairs)
    object.__setattr__(poly, "_den", den)
    return poly


def _reduced(pairs, den):
    """The polynomial of nonzero pairs over den > 0, in lowest terms.

    den == 1 is already lowest: constants with integer entries, and
    products of integer polynomials, skip the gcd.
    """
    if not pairs:
        return _ZERO
    if den != 1:
        g = den
        for re, im in pairs.values():
            g = math.gcd(g, re, im)
            if g == 1:
                break
        if g != 1:
            pairs = {w: (re // g, im // g) for w, (re, im) in pairs.items()}
            den //= g
    return _poly(pairs, den)


def _scalar_parts(c):
    """(re, im, den) of a GaussianRational over the lcm of its part
    denominators, which leaves them in lowest terms."""
    a, b = c.re, c.im
    den = math.lcm(a.denominator, b.denominator)
    re, im = a.numerator * (den // a.denominator), b.numerator * (den // b.denominator)
    return re, im, den


def _gaussian(re, im, den):
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _as_poly(value):
    """value itself when an NCPolynomial, the constant polynomial of an
    exact scalar (through as_gaussian), else None."""
    if isinstance(value, NCPolynomial):
        return value
    c = as_gaussian(value)
    return None if c is None else NCPolynomial.scalar(c)


def _times(poly, c):
    """poly times the GaussianRational c, which is converted once."""
    if c.is_zero() or not poly._pairs:
        return _ZERO
    c_re, c_im, c_den = _scalar_parts(c)
    pairs = {
        w: (re * c_re - im * c_im, re * c_im + im * c_re)
        for w, (re, im) in poly._pairs.items()
    }
    return _reduced(pairs, poly._den * c_den)


def _sum(a, b, sign):
    """a + sign * b over the lcm of the two denominators (sign is 1 or -1)."""
    if not b._pairs:
        return a
    if not a._pairs:
        return b if sign == 1 else -b
    g = math.gcd(a._den, b._den)
    up_a, up_b = b._den // g, sign * (a._den // g)
    if up_a == 1:
        out = dict(a._pairs)
    else:
        out = {w: (re * up_a, im * up_a) for w, (re, im) in a._pairs.items()}
    for w, (re, im) in b._pairs.items():
        re, im = re * up_b, im * up_b
        got = out.get(w)
        if got is not None:
            re, im = got[0] + re, got[1] + im
            if not (re or im):
                del out[w]
                continue
        out[w] = (re, im)
    return _reduced(out, a._den * up_a)


class NCPolynomial(Frozen):
    """A finite Q(i)-linear combination of words in x and y.

    Stored as _pairs, word -> nonzero Gaussian-integer (re, im), over
    one positive int _den, in lowest terms; zero is {} over 1.  Any
    exact scalar (see scalars.as_gaussian) is a coefficient.
    """

    __slots__ = ("_pairs", "_den")

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        sums = {}
        for word, value in items:
            check_word(word)
            c = as_gaussian(value)
            if c is None:
                raise DomainError("bad coefficient %r of word %r" % (value, word))
            sums[word] = sums[word] + c if word in sums else c
        # over the lcm of lowest-terms denominators, each prime's highest
        # power leaves its numerator prime to it: already lowest terms
        parts = [(w, _scalar_parts(c)) for w, c in sums.items() if c]
        den = math.lcm(*(d for _, (_, _, d) in parts))
        pairs = {w: (re * (den // d), im * (den // d)) for w, (re, im, d) in parts}
        super().__init__(pairs, den)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def letter(cls, ch):
        return _poly({check_word(ch): (1, 0)}, 1)

    @classmethod
    def word(cls, word, coeff=GQ_ONE):
        return cls(((word, coeff),))

    @classmethod
    def scalar(cls, value):
        c = as_gaussian(value)
        if c is None:
            raise DomainError("bad scalar %r" % (value,))
        if c.is_zero():
            return _ZERO
        re, im, den = _scalar_parts(c)
        return _poly({"": (re, im)}, den)

    # -- queries ------------------------------------------------------------

    @property
    def terms(self):
        """word -> GaussianRational coefficient, derived from the pairs on
        each read: read it once per use, not once per word."""
        den = self._den
        return {w: _gaussian(re, im, den) for w, (re, im) in self._pairs.items()}

    def coeff(self, word):
        pair = self._pairs.get(word)
        return GQ_ZERO if pair is None else _gaussian(*pair, self._den)

    def constant_coefficient(self):
        return self.coeff("")

    def is_zero(self):
        return not self._pairs

    def is_constant(self):
        return not self._pairs or (len(self._pairs) == 1 and "" in self._pairs)

    def degree(self):
        """Largest word length; the zero polynomial has degree -1."""
        if not self._pairs:
            return -1
        return max(len(w) for w in self._pairs)

    def letters_used(self):
        out = set()
        for w in self._pairs:
            out.update(w)
        return out

    def words(self):
        return sorted(self._pairs, key=lambda w: (len(w), w))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _sum(self, other, -1)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _poly({w: (-re, -im) for w, (re, im) in self._pairs.items()}, self._den)

    def __mul__(self, other):
        if not isinstance(other, NCPolynomial):
            c = as_gaussian(other)
            return NotImplemented if c is None else _times(self, c)
        a, b = self._pairs, other._pairs
        if len(a) * len(b) > MAX_PAIRS:
            raise LimitError(
                "a product of %d by %d terms exceeds the ceiling of %d term "
                "pairs" % (len(a), len(b), MAX_PAIRS)
            )
        out = {}
        for wa, (a_re, a_im) in a.items():
            for wb, (b_re, b_im) in b.items():
                w = wa + wb
                re = a_re * b_re - a_im * b_im
                im = a_re * b_im + a_im * b_re
                got = out.get(w)
                if got is not None:
                    re, im = got[0] + re, got[1] + im
                    if not (re or im):
                        del out[w]
                        continue
                out[w] = (re, im)
        return _reduced(out, self._den * other._den)

    __rmul__ = __mul__  # only scalars reach it, and they commute

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("polynomial powers need a nonnegative int")
        # p^k holds words of deg(p) * k letters; a constant's exact size
        # grows with k as a word's length would.  Refuse before building.
        if self._pairs and max(self.degree(), 1) * exponent > MAX_WORD:
            raise LimitError(
                "power %d of a degree-%d polynomial exceeds the ceiling of "
                "%d letters per word" % (exponent, self.degree(), MAX_WORD)
            )
        result = _ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # a square past the last bit would be thrown away
                base = base * base
        return result

    def inverse(self):
        """Defined for nonzero constants only (matrix pivots need this)."""
        if not self.is_constant() or self.is_zero():
            raise DomainError("only nonzero constant polynomials invert")
        re, im = self._pairs[""]
        return _reduced({"": (self._den * re, -self._den * im)}, re * re + im * im)

    # -- protocol glue ---------------------------------------------------------

    def zero_like(self):
        return _ZERO

    def one_like(self):
        return _ONE

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self._den == other._den and self._pairs == other._pairs

    def __hash__(self):
        # a constant equals its scalar, so it hashes like it (zero like 0)
        if self.is_constant():
            return hash(self.constant_coefficient())
        return hash((frozenset(self._pairs.items()), self._den))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "NCPolynomial(%r)" % format_poly(self)


_ZERO = _poly({}, 1)
_ONE = _poly({"": (1, 0)}, 1)

X = NCPolynomial.letter("x")
Y = NCPolynomial.letter("y")


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def format_word(word):
    if not word:
        return "1"
    return "*".join(
        ch if k == 1 else "%s^%d" % (ch, k) for ch, k in block_factorize(word)
    )


def _format_term(word, coeff):
    """Return the term without a leading sign; caller handles joining."""
    if not word:
        return format_gaussian(coeff)
    ws = format_word(word)
    if coeff == GQ_ONE:
        return ws
    if coeff == -GQ_ONE:
        return "-" + ws
    cs = format_gaussian(coeff)
    if coeff.re and coeff.im:
        cs = "(%s)" % cs
    return "%s*%s" % (cs, ws)


def format_poly(poly):
    """Canonical printer: graded lexicographic word order, stable signs."""
    if poly.is_zero():
        return "0"
    terms = poly.terms
    parts = []
    for word in poly.words():
        text = _format_term(word, terms[word])
        if not parts:
            parts.append(text)
        elif text.startswith("-"):
            parts.append(" - " + text[1:])
        else:
            parts.append(" + " + text)
    return "".join(parts)


# ---------------------------------------------------------------------------
# parsing
#
#   expr   := term (('+'|'-') term)*
#   term   := factor ('*' factor)*
#   factor := '-' factor | power
#   power  := atom ('^' integer)?
#   atom   := 'x' | 'y' | 'i' | rational | '(' expr ')'
#
# Multiplication is explicit; whitespace is insignificant.  ParseError
# carries the byte offset of the offending character.  Parentheses and
# unary minus signs nest at most _MAX_NESTING deep, so the recursive
# descent stays far from the interpreter's recursion limit.
# ---------------------------------------------------------------------------

_MAX_NESTING = 100


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.depth = 0

    def error(self, message):
        raise ParseError(message, position=self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def expect(self, ch):
        got = self.peek()
        if got != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def parse(self):
        value = self.expr()
        self.skip_ws()
        if self.pos != len(self.text):
            self.error("trailing input")
        return value

    def expr(self):
        value = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.pos += 1
                value = value + self.term()
            elif ch == "-":
                self.pos += 1
                value = value - self.term()
            else:
                return value

    def term(self):
        value = self.factor()
        while self.peek() == "*":
            self.pos += 1
            value = value * self.factor()
        return value

    def nested(self, parse):
        """Step over the opening character at pos and parse one level deeper."""
        if self.depth == _MAX_NESTING:
            self.error("nesting deeper than %d" % _MAX_NESTING)
        self.depth += 1
        self.pos += 1
        value = parse()
        self.depth -= 1
        return value

    def factor(self):
        if self.peek() == "-":
            return -self.nested(self.factor)
        return self.power()

    def power(self):
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            exponent = self.integer()
            return base ** exponent
        return base

    def integer(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected an integer exponent")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # more digits than int() converts
            self.pos = start
            self.error("exponent has too many digits")

    def atom(self):
        ch = self.peek()
        if ch == "":
            self.error("unexpected end of input")
        if ch == "(":
            inner = self.nested(self.expr)
            self.expect(")")
            return inner
        if ch in ALPHABET:
            self.pos += 1
            return NCPolynomial.letter(ch)
        if ch == "i":
            self.pos += 1
            return NCPolynomial.word("", GQ_I)
        if ch.isdigit():
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            # a '/denominator' belongs to the literal
            save = self.pos
            self.skip_ws()
            if self.pos < len(self.text) and self.text[self.pos] == "/":
                self.pos += 1
                self.skip_ws()
                if self.pos >= len(self.text) or not self.text[self.pos].isdigit():
                    self.error("expected digits after '/'")
                dstart = self.pos
                while self.pos < len(self.text) and self.text[self.pos].isdigit():
                    self.pos += 1
                lit = self.text[start:save] + "/" + self.text[dstart : self.pos]
            else:
                self.pos = save
                lit = self.text[start : self.pos]
            try:
                value = parse_rational("".join(lit.split()))
            except ParseError:
                self.pos = start
                self.error("bad rational literal")
            return NCPolynomial.word("", GaussianRational(value))
        self.error("unexpected character %r" % ch)


def parse_poly(text):
    """Parse the polynomial grammar above; raises ParseError with offset."""
    return _Parser(text).parse()
