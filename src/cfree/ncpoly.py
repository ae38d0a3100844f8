"""The free algebra Q(i)<x,y>: words, polynomials, printing and parsing.

Words are plain strings over the alphabet {x, y} ("" is the empty word).
An NCPolynomial maps words to Gaussian-rational coefficients; zero
coefficients are never stored.  format_poly and parse_poly convert
between polynomials and the text grammar that the command line reads.
"""

from __future__ import annotations

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


def _accumulate(data, items):
    """Add (word, coeff) pairs into data, dropping every zero sum."""
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


def _poly(data):
    """Wrap a word -> nonzero coefficient dict whose words are known valid."""
    poly = NCPolynomial.__new__(NCPolynomial)
    object.__setattr__(poly, "terms", data)
    return poly


def _as_poly(value):
    """value itself when an NCPolynomial, the constant polynomial of an
    exact scalar (through as_gaussian), else None."""
    if isinstance(value, NCPolynomial):
        return value
    c = as_gaussian(value)
    return None if c is None else NCPolynomial.scalar(c)


class NCPolynomial(Frozen):
    """A finite Q(i)-linear combination of words in x and y."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        items = terms.items() if isinstance(terms, dict) else terms
        super().__init__(_accumulate({}, ((check_word(w), c) for w, c in items)))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return _ZERO

    @classmethod
    def one(cls):
        return _ONE

    @classmethod
    def letter(cls, ch):
        check_word(ch)
        return cls(((ch, GQ_ONE),))

    @classmethod
    def word(cls, word, coeff=GQ_ONE):
        return cls(((word, coeff),))

    @classmethod
    def scalar(cls, value):
        c = as_gaussian(value)
        if c is None:
            raise DomainError("bad scalar %r" % (value,))
        return cls((("", c),))

    # -- queries ------------------------------------------------------------

    def coeff(self, word):
        return self.terms.get(word, GQ_ZERO)

    def constant_coefficient(self):
        return self.terms.get("", GQ_ZERO)

    def is_zero(self):
        return not self.terms

    def is_constant(self):
        return not self.terms or set(self.terms) == {""}

    def degree(self):
        """Largest word length; the zero polynomial has degree -1."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def letters_used(self):
        out = set()
        for w in self.terms:
            out.update(w)
        return out

    def words(self):
        return sorted(self.terms, key=lambda w: (len(w), w))

    # -- ring operations ------------------------------------------------------

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _poly(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return _poly({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        c = as_gaussian(other)
        if c is not None:
            if c.is_zero():
                return _ZERO
            return _poly({w: k * c for w, k in self.terms.items()})
        if not isinstance(other, NCPolynomial):
            return NotImplemented
        pairs = len(self.terms) * len(other.terms)
        if pairs > MAX_PAIRS:
            raise LimitError(
                "a product of %d by %d terms exceeds the ceiling of %d term "
                "pairs" % (len(self.terms), len(other.terms), MAX_PAIRS)
            )
        products = (
            (wa + wb, ca * cb)
            for wa, ca in self.terms.items()
            for wb, cb in other.terms.items()
        )
        return _poly(_accumulate({}, products))

    __rmul__ = __mul__  # only scalars reach it, and they commute

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise DomainError("polynomial powers need a nonnegative int")
        # p^k holds words of deg(p) * k letters; a constant's exact size
        # grows with k as a word's length would.  Refuse before building.
        if self.terms and max(self.degree(), 1) * exponent > MAX_WORD:
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
        return NCPolynomial((("", self.terms[""].inverse()),))

    # -- protocol glue ---------------------------------------------------------

    def zero_like(self):
        return _ZERO

    def one_like(self):
        return _ONE

    def __eq__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return "NCPolynomial(%r)" % format_poly(self)


_ZERO = _poly({})
_ONE = _poly({"": GQ_ONE})

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
    parts = []
    for word in poly.words():
        text = _format_term(word, poly.terms[word])
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
