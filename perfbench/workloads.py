"""The four benchmark workloads: seeded queries and their exact checks.

Every workload is a closed loop of one client in one process: the next
query starts when the previous one has returned.  ``build(name, seed)``
turns a seed into a ``Workload``, whose ``cycle`` is the fixed list of
queries a run answers, in whole cycles, until its time is up.  A
query's ``run`` is the timed call into cfree; its ``check`` compares the
answer, outside the timed region, with an independent path evaluated
once per distinct query, and must find it exactly equal.

The cost of a query is set by its shape (polynomial, order, group
size), which the cycle fixes; the seed picks the numbers (marginals,
letters, coefficients), so runs with different seeds do the same kind
and amount of work.  README.md in this directory gives the reason for
each workload.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from cfree.condexp import efree_full, efree_rec, rqce
from cfree.cumulants import (
    CumulantSeq,
    MomentSeq,
    moments_from_boolean,
    moments_from_free,
    phi_moments_from_cfree,
)
from cfree.denoise import condexp_verify, distributions_of_poly, l2_project, weighted_state
from cfree.engine import poly_distribution
from cfree.linearize import linearize
from cfree.multiplicative import mgf_product_phi, sigma_transform, subordination_pair
from cfree.ncpoly import NCPolynomial, parse_poly
from cfree.partitions import enumerate_nc_colored, outer_inner
from cfree.scalars import GQ_ONE, GQ_ZERO, GaussianRational
from cfree.twostate import TwoStateSpec

FIXED_POLYS = ("x + y", "x*y + y*x", "i*(x*y - y*x)", "x^2 + y^2")


class Query:
    """One timed call and the exact check of its answer.

    ``run()`` is the timed call.  ``check(answer)`` compares the answer
    with an independent path; it is called outside the timed region and
    computes its reference once however often the query repeats.
    ``run_traced(tracer)``, when given, replaces ``run`` in the traced
    pass (the CLI queries trace inside their own subprocess).
    """

    __slots__ = ("label", "run", "check", "run_traced")

    def __init__(self, label, run, reference, project=None, run_traced=None):
        self.label = label
        self.run = run
        self.check = _memo_check(reference, project)
        self.run_traced = run_traced


def _memo_check(reference, project):
    """check(answer): project(answer) == reference(), both cached."""
    cache = []

    projected = {}

    def check(answer):
        if not cache:
            cache.append(reference())
        if project is None:
            return answer == cache[0]
        if answer not in projected:
            projected[answer] = project(answer)
        return projected[answer] == cache[0]

    return check


class Workload:
    """The cycle of queries a run repeats, and the prefix a traced run uses.

    ``traced`` is the number of queries, from the start of the cycle, that
    the traced run processes once untraced and once traced: fixed, so two
    traced runs of one seed do identical work.
    """

    def __init__(self, cycle, warm_up, traced=None, cleanup=None):
        self.cycle = cycle
        self.warm_up = warm_up
        self.traced = cycle[:traced] if traced else cycle
        self.cleanup = cleanup or (lambda: None)


# -- seeded inputs -------------------------------------------------------------


NUMERATORS = (-4, -3, -2, -1, 1, 2, 3, 4)
DENOMINATORS = (1, 2, 3)


def _moments(rng, order, state):
    """Dense random moments, in the ranges twostate.random_spec uses.

    Numerators are nonzero and the denominators follow a fixed pattern,
    so the size of the exact numbers, and with it the cost of a query,
    is the same for every seed.  The mean is a nonzero integer, as
    sigma_transform needs.
    """
    return MomentSeq(
        [
            GaussianRational(Fraction(rng.choice(NUMERATORS), DENOMINATORS[k % 3]))
            for k in range(order)
        ],
        state,
    )


def _marginals(rng, order):
    """x_psi, y_psi, x_phi, y_phi: dense, with phi distinct from psi."""
    return tuple(_moments(rng, order, state) for state in ("psi", "psi", "phi", "phi"))


def _random_poly(rng, lengths, pencil):
    """Text of a polynomial with one monomial per entry of ``lengths``.

    Drawn again until its linearization pencil is ``pencil`` x ``pencil``:
    the pencil size sets the engine's cost, so every seed gets the same.
    """
    while True:
        words = ["".join(rng.choice("xy") for _ in range(n)) for n in lengths]
        if len(set(words)) < len(words):
            continue
        text = _poly_text(rng, words)
        if linearize(parse_poly(text)).n == pencil:
            return text


# Coefficient sizes by monomial position; the seed picks only the signs,
# since larger numbers make every engine query on the polynomial slower.
COEFFICIENTS = ("", "2*", "(1/2)*", "3*")


def _poly_text(rng, words):
    terms = []
    for index, word in enumerate(words):
        coeff = COEFFICIENTS[index]
        sign = rng.choice(("+", "-"))
        body = coeff + "*".join(word)
        if index == 0:
            terms.append(("-" if sign == "-" else "") + body)
        else:
            terms.append(" %s %s" % (sign, body))
    return "".join(terms)


def _values(seq):
    return tuple(seq.values)


def _oracle_powers(spec, text, state, count):
    p = parse_poly(text)
    power = NCPolynomial.one()
    out = []
    for _ in range(count):
        power = power * p
        out.append(spec.poly_moment(state, power, guard=spec.order))
    return tuple(out)


def _sum_of_free(spec, state):
    """Moments of x + y by adding cumulants: free for psi, c-free for phi."""
    r = CumulantSeq(
        [a + b for a, b in zip(spec.free_cumulants("x").values, spec.free_cumulants("y").values)],
        "free-psi",
    )
    if state == "psi":
        return _values(moments_from_free(r))
    rc = CumulantSeq(
        [a + b for a, b in zip(spec.cfree_cumulants("x").values, spec.cfree_cumulants("y").values)],
        "cfree",
    )
    return _values(phi_moments_from_cfree(rc, r))


def _engine_reference(spec, text, state, count):
    if text == "x + y":
        return _sum_of_free(spec, state)[:count]
    return _oracle_powers(spec, text, state, count)


# -- engine --------------------------------------------------------------------

# (engine order, polynomial slot, kind, state or weight).  Slots 0-3 are
# FIXED_POLYS, 4 and 5 seeded random polynomials.  Half the queries ask
# for one state through poly_distribution, half for both states of a
# weighted spec through distributions_of_poly.  Orders 12 and 16 go to
# x + y, whose pencil is 1x1: on the 3x3 pencils an order-12 query takes
# 3-5 s and an order-16 one 8-12 s, more than a run can hold.  The cycle
# is longer than a run's --seconds, so a run answers it exactly once.
ENGINE_CYCLE = (
    (8, 1, "single", "psi"),
    (8, 4, "weighted", "2 + x"),
    (12, 0, "single", "psi"),
    (8, 2, "weighted", "1 + x^2"),
    (8, 3, "single", "psi"),
    (8, 0, "weighted", "1 + x^2"),
    (8, 5, "single", "psi"),
    (16, 0, "single", "psi"),
    (8, 1, "weighted", "1 + x^2"),
    (8, 4, "single", "phi"),
    (12, 0, "weighted", "2 + x"),
    (8, 5, "weighted", "2 + x"),
    (8, 2, "single", "phi"),
    (8, 0, "weighted", "2 + x"),
    (8, 0, "single", "phi"),
    (8, 1, "weighted", "2 + x"),
    (12, 0, "single", "phi"),
    (8, 4, "weighted", "1 + x^2"),
    (8, 1, "single", "phi"),
)

# (monomial lengths, pencil size) of the two seeded random polynomials.
RANDOM_SHAPES = (((3, 2), 3), ((2, 2, 1, 3), 4))


def _weighted_marginals(rng, order, weight):
    """x_psi (two moments longer, for the weight) and y_psi, with psi(f) != 0
    so that weighted_state accepts them."""
    terms = parse_poly(weight).terms
    while True:
        x_psi = _moments(rng, order + 2, "psi")
        y_psi = _moments(rng, order, "psi")
        norm = sum((c * x_psi.moment(len(w)) for w, c in terms.items()), GQ_ZERO)
        if not norm.is_zero():
            return x_psi, y_psi


def _engine_query(rng, order, text, kind, variant):
    count = order // parse_poly(text).degree()
    if kind == "single":
        x_psi, y_psi, x_phi, y_phi = _marginals(rng, order)
        state = variant

        def run():
            spec = TwoStateSpec(order, x_psi, y_psi, x_phi, y_phi)
            return _values(poly_distribution(spec, text, state, count))

        def reference():
            spec = TwoStateSpec(order, x_psi, y_psi, x_phi, y_phi)
            return _engine_reference(spec, text, state, count)

        label = "moments %s order %d %s" % (text, order, state)
    else:
        weight = variant
        x_psi, y_psi = _weighted_marginals(rng, order, weight)

        def run():
            ws = weighted_state(x_psi, y_psi, weight, order)
            phi, psi = distributions_of_poly(ws, text, count)
            return (_values(phi), _values(psi))

        def reference():
            spec = weighted_state(x_psi, y_psi, weight, order).spec
            return tuple(_engine_reference(spec, text, s, count) for s in ("phi", "psi"))

        label = "weighted %s order %d weight %s" % (text, order, weight)
    return Query(label, run, reference)


def build_engine(seed):
    rng = random.Random(seed)
    pool = list(FIXED_POLYS) + [_random_poly(rng, *shape) for shape in RANDOM_SHAPES]
    cycle = [
        _engine_query(rng, order, pool[slot], kind, variant)
        for order, slot, kind, variant in ENGINE_CYCLE
    ]

    def warm_up():
        spec = TwoStateSpec(2, *_marginals(random.Random(seed), 2))
        poly_distribution(spec, "x*y + y*x", "psi", 1)

    return Workload(cycle, warm_up, traced=7)


# -- words -----------------------------------------------------------------------

# Groups of queries that share one TwoStateSpec: (spec order, query shapes).
# The first query of a group builds the spec, so a group of one is a cold
# memo (a fresh CLI call) and the large groups are a long-lived library
# user whose memo keeps growing.  Query shapes:
#   ("moment", word length, state)   TwoStateSpec.moment of a seeded word
#   ("power", pool slot, k, state)   poly_moment of the k-th power
#   ("efree", word length)           efree_rec with the guard raised
#   ("rqce", word length)            rqce with the guard raised
#   ("project", pool slot, target)   l2_project + condexp_verify, degree 2
WORDS_MIX = (
    ("moment", 10, "phi"),
    ("power", 0, 6, "psi"),
    ("efree", 10),
    ("rqce", 9),
    ("moment", 9, "psi"),
    ("power", 1, 3, "phi"),
    ("efree", 8),
    ("rqce", 10),
    ("moment", 8, "phi"),
    ("power", 3, 3, "psi"),
)

WORDS_GROUPS = (
    (10, (("moment", 10, "psi"),)),
    (8, (("project", 1, "x^2"),)),
    (10, (("efree", 10),)),
    (10, (("moment", 9, "phi"), ("rqce", 8))),
    (8, (("project", 2, "x^4"),)),
    (10, WORDS_MIX[2:6]),
    (10, WORDS_MIX[:8]),
    (10, WORDS_MIX * 2),
)

WORD_GUARD = 12


def _word(rng, length):
    """A seeded word with a fixed number of letter runs for its length.

    The oracle and the conditional expectations recurse over the runs, so
    fixing their number (the seed picks the first letter and the run
    lengths) gives every seed words of the same cost.
    """
    runs = length // 2 + 1
    cuts = sorted(rng.sample(range(1, length), runs - 1))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [length])]
    letter = rng.choice("xy")
    out = []
    for size in sizes:
        out.append(letter * size)
        letter = "y" if letter == "x" else "x"
    return "".join(out)


def _partition_sum(spec, state, word):
    """A word moment as a sum over noncrossing partitions of its letters.

    psi weighs every block by a free cumulant; phi weighs outer blocks by
    c-free cumulants and inner ones by free cumulants.  Independent of
    the chain recursion behind TwoStateSpec.moment.
    """
    free = {ch: spec.free_cumulants(ch) for ch in "xy"}
    cfree = {ch: spec.cfree_cumulants(ch) for ch in "xy"}
    total = GQ_ZERO
    for p in enumerate_nc_colored(word, guard=len(word)):
        outer, inner = outer_inner(p) if state == "phi" else ((), p.blocks)
        value = GQ_ONE
        for block in outer:
            value = value * cfree[word[block[0] - 1]].value(len(block))
        for block in inner:
            value = value * free[word[block[0] - 1]].value(len(block))
        total = total + value
    return total


def _phi_of_x_poly(spec, poly):
    total = GQ_ZERO
    for word, coeff in poly.terms.items():
        total = total + coeff * spec.moment("phi", word, guard=WORD_GUARD)
    return total


def _words_query(group, shape, pool, rng, first):
    """A query on the group's shared spec; the first one builds it."""
    order = group["order"]
    kind = shape[0]

    def spec():
        if first:
            group["spec"] = TwoStateSpec(order, *group["marginals"])
        return group["spec"]

    def fresh():
        """The group's reference spec, built apart from the timed one."""
        if group["reference"] is None:
            group["reference"] = TwoStateSpec(order, *group["marginals"])
        return group["reference"]

    if kind == "moment":
        _, length, state = shape
        word = _word(rng, length)

        def run():
            return spec().moment(state, word, guard=WORD_GUARD)

        def reference():
            return _partition_sum(fresh(), state, word)

        label = "moment %s %s" % (state, word)
    elif kind == "power":
        _, slot, k, state = shape
        text = pool[slot]
        degree = parse_poly(text).degree()
        k = min(k, order // degree)

        def run():
            s = spec()
            p = parse_poly(text)
            power = NCPolynomial.one()
            for _ in range(k):
                power = power * p
            return s.poly_moment(state, power, guard=WORD_GUARD)

        def reference():
            return poly_distribution(fresh(), text, state, k).moment(k)

        label = "power (%s)^%d %s" % (text, k, state)
    elif kind in ("efree", "rqce"):
        _, length = shape
        word = _word(rng, length)

        def run():
            fn = efree_rec if kind == "efree" else rqce
            return fn(spec(), word, guard=WORD_GUARD).poly

        label = "%s %s" % (kind, word)
        if kind == "efree":
            def reference():
                return efree_full(fresh(), word, guard=WORD_GUARD).poly
        else:
            # rqce preserves phi: phi(rqce[W]) = phi(W), both sides read
            # by the oracle on the reference spec.
            def reference():
                return fresh().moment("phi", word, guard=WORD_GUARD)

            def project(poly):
                return _phi_of_x_poly(fresh(), poly)

            return Query(label, run, reference, project)
    else:
        _, slot, target = shape
        text = pool[slot]

        def run():
            s = spec()
            result = l2_project(s, target, text, 2)
            # Orthogonal to the powers the projection spans: fewer than
            # three when the Gram matrix is singular.
            verified = condexp_verify(s, target, text, result, result.rank - 1)
            return result.coefficients, result.rank, result.residuals, verified

        # The certificate condexp_verify is part of the answer; the same
        # projection on a fresh spec shows the shared memo changed nothing.
        def reference():
            result = l2_project(fresh(), target, text, 2)
            return result.coefficients, result.rank, result.residuals, True

        label = "project %s on %s" % (target, text)
    return Query(label, run, reference)


def build_words(seed):
    rng = random.Random(seed)
    pool = FIXED_POLYS
    cycle = []
    for order, shapes in WORDS_GROUPS:
        group = {"order": order, "marginals": _marginals(rng, order), "spec": None,
                 "reference": None}
        for index, shape in enumerate(shapes):
            cycle.append(_words_query(group, shape, pool, rng, index == 0))

    def warm_up():
        spec = TwoStateSpec(4, *_marginals(random.Random(seed), 4))
        spec.moment("phi", "xyxy")
        efree_rec(spec, "xyyx")

    return Workload(cycle, warm_up)


# -- transforms ----------------------------------------------------------------

# Spec orders of the queries in one cycle.  Each query builds a spec (all
# Boolean, free and c-free transforms of both letters and states), reads
# the cumulants, and runs the multiplicative layer at half the order.
# The cost of one query varies by a fifth from seed to seed (with the
# cancellations in the cumulant recursions), so a cycle holds fifteen of
# them, of similar size, and a run averages over all.  One cycle takes
# about 10 s, so a run of 15 s answers it twice even when the machine is
# a quarter faster or a third slower.
TRANSFORMS_ORDERS = (14, 12, 13) * 5


def _transforms_query(rng, order):
    x_psi, y_psi, x_phi, y_phi = _marginals(rng, order)
    half = order // 2
    built = []

    def run():
        spec = TwoStateSpec(order, x_psi, y_psi, x_phi, y_phi)
        built[:] = [spec]
        cumulants = tuple(
            _values(seq)
            for ch in "xy"
            for seq in (
                spec.boolean_cumulants(ch, "psi"),
                spec.boolean_cumulants(ch, "phi"),
                spec.free_cumulants(ch),
                spec.cfree_cumulants(ch),
            )
        )
        pair = subordination_pair(spec, half)
        product = mgf_product_phi(spec, half)
        s_x = sigma_transform((x_phi, x_psi), half)
        s_y = sigma_transform((y_phi, y_psi), half)
        return cumulants, pair.omega_x.coeffs, pair.omega_y.coeffs, product.coeffs, s_x, s_y

    def reference():
        # Round trips: each cumulant sequence gives back its moments.
        return tuple(
            seq.values
            for pair in ((x_psi, x_phi), (y_psi, y_phi))
            for seq in (pair[0], pair[1], pair[0], pair[1])
        ) + (True,)

    def project(answer):
        cumulants, _, _, product, s_x, s_y = answer
        trips = []
        for offset, (psi, phi) in ((0, (x_psi, x_phi)), (4, (y_psi, y_phi))):
            b_psi, b_phi, r, rc = cumulants[offset : offset + 4]
            r_seq = CumulantSeq(r, "free-psi")
            trips.append(moments_from_boolean(CumulantSeq(b_psi, "boolean-psi")).values)
            trips.append(moments_from_boolean(CumulantSeq(b_phi, "boolean-phi")).values)
            trips.append(moments_from_free(r_seq).values)
            trips.append(phi_moments_from_cfree(CumulantSeq(rc, "cfree"), r_seq).values)
        # sigma is multiplicative: sigma_xy = sigma_x sigma_y, with the
        # product's psi moments from the word oracle of the spec run built.
        spec = built[0]
        phi_xy = MomentSeq(product[1 : half + 1], "phi")
        psi_xy = MomentSeq(
            [spec.moment("psi", "xy" * n, guard=order) for n in range(1, half + 1)], "psi"
        )
        residual = sigma_transform((phi_xy, psi_xy), half) - s_x * s_y
        return tuple(trips) + (residual.is_zero(),)

    return Query("transforms order %d" % order, run, reference, project)


def build_transforms(seed):
    rng = random.Random(seed)
    cycle = [_transforms_query(rng, order) for order in TRANSFORMS_ORDERS]

    def warm_up():
        x_psi, y_psi, x_phi, y_phi = _marginals(random.Random(seed), 4)
        spec = TwoStateSpec(4, x_psi, y_psi, x_phi, y_phi)
        mgf_product_phi(spec, 2)
        sigma_transform((x_phi, x_psi), 2)

    return Workload(cycle, warm_up, traced=5)


# -- cli -------------------------------------------------------------------------

DEMO_SPEC = {
    "order": 12,
    "x": {"psi": {"kind": "semicircle", "variance": 1}},
    "y": {"psi": {"kind": "atoms", "atoms": [
        {"value": -1, "weight": "1/2"},
        {"value": 1, "weight": "1/2"},
    ]}},
}

# Outputs as README.md prints them for DEMO_SPEC, byte for byte.
README_OUTPUT = {
    "moments": '{"moments":["0","2","0","8","0","40"]}\n',
    "cumulants-pretty": "free-psi cumulants of x: 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0\n",
    "condexp-word": '{"source":"recursive","terms":[["xx","1"]]}\n',
    "denoise": '{"coefficients":["1/2","0","1/4"],"rank":3,"residuals":["0","0","0"]}\n',
    "partitions": '{"count":3,"items":[[[1],[2],[3],[4]],[[1],[2,4],[3]],[[1,3],[2],[4]]]}\n',
    "verify-sigma": '{"suite":"sigma","checks":3,"failures":[],"status":"pass"}\n',
}

WEIGHTS = ("1 + x^2", "2 + x", "1 + x + x^2")

# README.md: 0 success, 2 usage or parse error, 3 domain error, 4 internal.
DOCUMENTED_EXITS = (0, 2, 3, 4)
NESTING = 3000


class CrashError(Exception):
    """The cfree process ended with an exit code README.md does not list."""


def _prod_spec(rng):
    """Nonzero psi means for both letters, as `cfree sigma` needs."""
    a = rng.choice((1, 2, 3))
    b = rng.choice((-1, 1, 2))
    return {
        "order": 8,
        "x": {
            "psi": {"kind": "atoms", "atoms": [
                {"value": a, "weight": "1/2"}, {"value": a + 1, "weight": "1/2"}]},
            "phi": {"kind": "atoms", "atoms": [{"value": a + 1, "weight": 1}]},
        },
        "y": {"psi": {"kind": "atoms", "atoms": [
            {"value": b, "weight": "1/3"}, {"value": 2, "weight": "2/3"}]}},
    }


def _cli_mix(rng, demo, prod, missing):
    """(name, argv, expected): expected is README_OUTPUT's key, or an exit
    code with empty stdout, or None for "as cfree.cli.main gives it
    in-process" (the outputs README.md does not print)."""
    word = _word(rng, 5) + "y"
    weight = rng.choice(WEIGHTS)
    resolvent = rng.choice(FIXED_POLYS[1:])
    return (
        ("moments", ["moments", "--spec", demo, "--poly", "i*(x*y - y*x)", "--order", "6"], "moments"),
        ("cumulants-pretty", ["cumulants", "--spec", demo, "--letter", "x", "--kind", "free",
                              "--format", "pretty"], "cumulants-pretty"),
        ("cumulants-csv", ["cumulants", "--spec", demo, "--letter", "y", "--kind", "boolean",
                           "--format", "csv"], None),
        ("cumulants-json", ["cumulants", "--spec", prod, "--letter", "x", "--kind", "cfree"], None),
        ("condexp-word", ["condexp", "--spec", demo, "--state", "psi", "--word", "xyyx"],
         "condexp-word"),
        ("condexp-seeded-word", ["condexp", "--spec", prod, "--state", "phi", "--word", word], None),
        ("condexp-resolvent", ["condexp", "--spec", demo, "--state", "phi", "--resolvent",
                               "--poly", resolvent, "--order", "4"], None),
        ("denoise", ["denoise", "--spec", demo, "--poly", "i*(x*y - y*x)", "--target", "x^2",
                     "--degree", "2"], "denoise"),
        ("denoise-weight", ["denoise", "--spec", demo, "--poly", "i*(x*y - y*x)", "--target",
                            "x^2", "--degree", "2", "--weight", weight, "--order", "6"], None),
        ("sigma", ["sigma", "--spec", prod, "--order", "4"], None),
        ("partitions", ["partitions", "--enumerate", "colored", "--colors", "xyxy"], "partitions"),
        ("verify-sigma", ["verify", "sigma"], "verify-sigma"),
        ("verify-linearization", ["verify", "linearization"], None),
        ("malformed-poly", ["moments", "--spec", demo, "--poly", "x*+y", "--order", "2"], 2),
        ("unreadable-spec", ["moments", "--spec", missing, "--poly", "x", "--order", "2"], 2),
        ("sigma-zero-mean", ["sigma", "--spec", demo, "--order", "4"], 3),
        # A known defect, kept in the mix: the parser recurses once per
        # parenthesis and ends in an uncaught RecursionError (exit 1), where
        # README.md promises exit 2 for a parse error.
        ("nested-parens", ["moments", "--spec", demo, "--poly",
                           "(" * NESTING + "x" + ")" * NESTING, "--order", "2"], 2),
    )


def _in_process(argv):
    import contextlib
    import io

    from cfree.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _subprocess(command):
    proc = subprocess.run(command, capture_output=True, text=True, check=False)
    if proc.returncode not in DOCUMENTED_EXITS:
        last = proc.stderr.strip().splitlines()[-1:] or [""]
        raise CrashError("exit %d: %s" % (proc.returncode, last[0][:200]))
    return proc.returncode, proc.stdout


def _cli_query(index, name, argv, expected, workdir):
    command = [sys.executable, "-m", "cfree.cli"] + argv
    launcher = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_launcher.py")
    dump_path = os.path.join(workdir, "trace-%d.json" % index)

    def run():
        return _subprocess(command)

    def run_traced(tracer):
        started = time.perf_counter()
        try:
            return _subprocess([sys.executable, launcher, dump_path] + argv)
        finally:
            with open(dump_path, encoding="utf-8") as fh:
                dump = json.load(fh)
            os.remove(dump_path)
            tracer.absorb(dump, started)

    def reference():
        if expected is None:
            return _in_process(argv)
        if isinstance(expected, int):
            return expected, ""
        return 0, README_OUTPUT[expected]

    return Query("cli " + name, run, reference, run_traced=run_traced)


def build_cli(seed):
    rng = random.Random(seed)
    workdir = os.path.join(os.getcwd(), ".perfbench_work", "cli-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    paths = {}
    for name, data in (("demo", DEMO_SPEC), ("prod", _prod_spec(rng))):
        paths[name] = os.path.join(workdir, name + ".json")
        with open(paths[name], "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    missing = os.path.join(workdir, "missing.json")
    cycle = [
        _cli_query(i, name, argv, expected, workdir)
        for i, (name, argv, expected) in enumerate(
            _cli_mix(rng, paths["demo"], paths["prod"], missing)
        )
    ]

    def warm_up():
        _subprocess([sys.executable, "-m", "cfree.cli", "partitions", "--enumerate", "nc", "--n", "2"])

    def cleanup():
        import shutil

        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    return Workload(cycle, warm_up, cleanup=cleanup)


BUILDERS = {
    "engine": build_engine,
    "words": build_words,
    "transforms": build_transforms,
    "cli": build_cli,
}


def build(name, seed):
    return BUILDERS[name](seed)
