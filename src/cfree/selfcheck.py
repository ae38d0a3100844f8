"""Self-check suites: the paper's results checked on generated data.

Each suite in SUITES yields (ok, message) for every exact comparison it
makes; `cfree verify` counts them.  The helpers are the computations the
suites share with the tests, which make their own comparisons.
"""

from __future__ import annotations

import random

from .engine import _poly_moments
from .linearize import geometric_corner, linearize
from .multiplicative import sigma_symbols, sigma_transform
from .ncpoly import NCPolynomial, parse_poly
from .partitions import enumerate_nc_colored, is_ll, vnrp_closure
from .scalars import GQ_ONE
from .series import TruncSeries
from .twostate import (
    multilinear_boolean,
    point_mass_moments,
    random_spec,
    vnrp_boolean_phi,
)


def alternating(start, n):
    """The alternating word of length n over x and y that begins with start."""
    other = "y" if start == "x" else "x"
    return "".join(start if i % 2 == 0 else other for i in range(n))


def oracle_moments(spec, p, state, count):
    """[state(P), ..., state(P^count)] by expanding the powers into words."""
    power = NCPolynomial.one()
    values = []
    for _ in range(count):
        power = power * p
        values.append(spec.poly_moment(state, power))
    return values


def ll_maximal(sigma, partitions):
    """The <<-maximal elements of the up-set of sigma within partitions."""
    ups = [rho for rho in partitions if is_ll(sigma, rho)]
    return [
        rho for rho in ups if all(rho == t or not is_ll(rho, t) for t in ups)
    ]


def nonzero_mean_spec(rng, order):
    """The first random_spec from rng whose psi-means are both nonzero."""
    while True:
        spec = random_spec(rng, order)
        if not spec.moment("psi", "x").is_zero() and not spec.moment(
            "psi", "y"
        ).is_zero():
            return spec


def _vnrp():
    rng = random.Random(17)
    for n in range(1, 5):
        colorings = {"x" * n, alternating("x", n)}
        colorings.add("".join(rng.choice("xy") for _ in range(n)))
        for colors in sorted(colorings):
            compatible = enumerate_nc_colored(colors)
            for sigma in compatible:
                closed = vnrp_closure(sigma, colors)
                yield ll_maximal(sigma, compatible) == [closed], (
                    "closure is not the unique maximal element over %s"
                    % colors
                )
    for seed in (3, 5):
        spec = random_spec(random.Random(seed), 6)
        for n in range(1, 6):
            for start in "xy":
                word = alternating(start, n)
                args = tuple(word)
                direct = multilinear_boolean(spec, "phi", args)
                yield vnrp_boolean_phi(spec, args, args) == direct, (
                    "partition sum differs from direct cumulant on %s" % word
                )


def _sigma():
    for seed in (3, 19):
        spec = nonzero_mean_spec(random.Random(seed), 10)
        s_x, s_y, s_xy = sigma_symbols(spec, 5)
        yield s_xy == s_x * s_y, (
            "multiplicativity residual nonzero, seed %d" % seed
        )
    unit = (point_mass_moments(1, 5, "phi"), point_mass_moments(1, 5, "psi"))
    yield sigma_transform(unit, 5) == TruncSeries.constant(GQ_ONE, 4), (
        "point mass does not give the constant symbol"
    )


def _linearization():
    fixed = [
        "x + y",
        "x*y",
        "x*y + y*x",
        "x^2 + y^2",
        "i*(x*y - y*x)",
        "(1/2)*x^3 - x*y*x + i*y",
    ]
    rng = random.Random(23)
    pool = ["1", "-1", "i", "1/2", "1+i"]
    for _ in range(4):
        terms = []
        for _ in range(rng.randint(2, 4)):
            word = "".join(
                rng.choice("xy") for _ in range(rng.randint(1, 3))
            )
            terms.append("(%s)*%s" % (rng.choice(pool), "*".join(word)))
        fixed.append(" + ".join(terms))
    for text in fixed:
        p = parse_poly(text)
        lin = linearize(p)
        yield lin.resolvent_corner(8) == geometric_corner(p, lin.m, 8), (
            "resolvent corner mismatch for %s" % text
        )


def _engine():
    for seed in (7, 11):
        spec = random_spec(random.Random(seed), 8)
        for text, count in (("x + y", 6), ("x*y", 4)):
            p = parse_poly(text)
            for got in _poly_moments(spec, p, count, ("phi", "psi")):
                expected = oracle_moments(spec, p, got.state, count)
                yield list(got.values) == expected, (
                    "engine disagrees with the oracle on %s (%s)"
                    % (text, got.state)
                )


SUITES = {
    "vnrp": _vnrp,
    "sigma": _sigma,
    "linearization": _linearization,
    "engine": _engine,
}
