"""Exact scalars: Gaussian rationals a + b*i over Python's Fraction.

All coefficient arithmetic in the package happens in Q(i).  Values are
immutable, so they can key dictionaries and memo tables, and as_gaussian
is the one rule for which Python values count as exact scalars.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .errors import DomainError, Frozen, ParseError

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?\Z")


# Every zero part is this one object: most values are real, and a stored
# value then keeps one Fraction, not two.
_FRACTION_ZERO = Fraction(0)


def _frac(value):
    if type(value) is Fraction:
        return value or _FRACTION_ZERO
    if isinstance(value, int):
        return Fraction(value) if value else _FRACTION_ZERO
    if isinstance(value, Fraction):
        return value or _FRACTION_ZERO
    raise TypeError("rational part must be int or Fraction, got %r" % (value,))


class GaussianRational(Frozen):
    """A complex number with exact rational real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _frac(re))
        object.__setattr__(self, "im", _frac(im))

    # -- predicates ----------------------------------------------------

    def is_zero(self):
        return not self.re and not self.im

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- ring operations -----------------------------------------------

    def __add__(self, other):
        o = as_gaussian(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = as_gaussian(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = as_gaussian(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = as_gaussian(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def inverse(self):
        norm = self.re * self.re + self.im * self.im
        if not norm:
            raise DomainError("division by zero in Q(i)")
        return GaussianRational(self.re / norm, -self.im / norm)

    def __truediv__(self, other):
        o = as_gaussian(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = as_gaussian(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, exponent):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = GQ_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:  # a square past the last bit would be thrown away
                base = base * base
        return result

    # -- hashing / comparison -------------------------------------------

    def __eq__(self, other):
        o = as_gaussian(other)
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    # -- ring protocol used by TruncSeries / SquareMatrix ----------------

    def zero_like(self):
        return GQ_ZERO

    def one_like(self):
        return GQ_ONE

    # -- text -------------------------------------------------------------

    def __str__(self):
        return format_gaussian(self)

    def __repr__(self):
        return "GaussianRational(%r)" % format_gaussian(self)


def as_gaussian(value):
    """value as a GaussianRational when it is an exact scalar (a
    GaussianRational, an int or a Fraction), else None."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return None


GQ_ZERO = GaussianRational(0)
GQ_ONE = GaussianRational(1)
GQ_I = GaussianRational(0, 1)


# ---------------------------------------------------------------------------
# parsing and printing
#
# Rational literal:  [-]digits[/digits]
# Gaussian literal:  one or two rational terms, the imaginary one suffixed
# with "i" (optionally "*i"); a lone "i" or "-i" is a unit.  Whitespace is
# ignored everywhere.
# ---------------------------------------------------------------------------


def parse_rational(text):
    """Parse a rational literal into a Fraction; ParseError on junk.

    The accepted grammar is [-]digits[/digits]; anything fancier (decimals,
    scientific notation) is rejected even though Fraction would take it.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty rational literal")
    if not _RATIONAL_RE.match(s):
        raise ParseError("bad rational literal %r" % text)
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ParseError("zero denominator in %r" % text) from None
    except ValueError:  # more digits than int() converts
        message = "rational literal of %d characters is too long" % len(s)
        raise ParseError(message) from None


def _parse_gaussian_term(term, original):
    """One signed term -> (kind, Fraction) with kind 're' or 'im'."""
    if term.endswith("i"):
        body = term[:-1]
        if body.endswith("*"):
            body = body[:-1]
        if body in ("", "+"):
            return "im", Fraction(1)
        if body == "-":
            return "im", Fraction(-1)
        return "im", parse_rational(body)
    return "re", parse_rational(term)


def parse_gaussian(text):
    """Parse 'a', 'b*i', 'a+b*i', 'a-b*i', 'i', '-i' into a GaussianRational."""
    s = "".join(text.split())
    if not s:
        raise ParseError("empty gaussian literal")
    # split into signed terms, keeping the leading sign attached
    terms = []
    start = 0
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-/*":
            terms.append(s[start:k])
            start = k
    terms.append(s[start:])
    if len(terms) > 2:
        raise ParseError("bad gaussian literal %r" % text)
    re_part = Fraction(0)
    im_part = Fraction(0)
    seen = set()
    for term in terms:
        kind, value = _parse_gaussian_term(term, text)
        if kind in seen:
            raise ParseError("bad gaussian literal %r" % text)
        seen.add(kind)
        if kind == "re":
            re_part = value
        else:
            im_part = value
    return GaussianRational(re_part, im_part)


def _format_imag(im):
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return "%s*i" % im


def format_gaussian(value):
    """Canonical printer; parse_gaussian(format_gaussian(v)) == v."""
    re_part, im_part = value.re, value.im
    if not im_part:
        return str(re_part)
    if not re_part:
        return _format_imag(im_part)
    if im_part > 0:
        return "%s+%s" % (re_part, _format_imag(im_part))
    return "%s-%s" % (re_part, _format_imag(-im_part))
