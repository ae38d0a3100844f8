import random
import time
from fractions import Fraction

import pytest

from cfree import twostate
from cfree.engine import poly_distribution
from cfree.errors import DomainError, InternalError, LimitError, ParseError
from cfree.ncpoly import NCPolynomial, block_factorize, parse_poly
from cfree.partitions import (
    SetPartition,
    enumerate_nc,
    enumerate_nc_colored,
    is_ll,
    outer_inner,
    vnrp_closure,
)
from cfree.scalars import GQ_ONE, GQ_ZERO
from cfree.twostate import (
    TwoStateSpec,
    atom_moments,
    dist_moments,
    hankel_warnings,
    multilinear_boolean,
    nested_two_state_boolean,
    point_mass_moments,
    random_spec,
    semicircle_moments,
    spec_from_json,
    vnrp_boolean_phi,
)
from cfree.cumulants import MomentSeq

from reference import (
    block_boolean,
    block_boolean_poly,
    boolean_products_recursive,
    closure_check,
    gq,
    letterwise_boolean,
    letterwise_boolean_poly,
    partial_block_boolean,
    std_spec,
)


def pyramid_spec(order):
    """x semicircle reweighted by a^2 under phi, y an atomic pair."""
    x_psi = semicircle_moments(1, order)
    x_phi = MomentSeq(
        semicircle_moments(1, order + 2).values[2:], "phi"
    )
    y_psi = atom_moments([(0, gq(Fraction(1, 2))), (2, gq(Fraction(1, 2)))], order)
    y_phi = MomentSeq(y_psi.values, "phi")
    return TwoStateSpec(order, x_psi, y_psi, x_phi, y_phi)


def brute_psi(spec, word):
    total = GQ_ZERO
    for p in enumerate_nc_colored(word):
        value = GQ_ONE
        for block in p.blocks:
            letter = word[block[0] - 1]
            value = value * spec.free_cumulants(letter).value(len(block))
        total = total + value
    return total


def brute_phi(spec, word):
    total = GQ_ZERO
    for p in enumerate_nc_colored(word):
        outer, inner = outer_inner(p)
        value = GQ_ONE
        for block in outer:
            letter = word[block[0] - 1]
            value = value * spec.cfree_cumulants(letter).value(len(block))
        for block in inner:
            letter = word[block[0] - 1]
            value = value * spec.free_cumulants(letter).value(len(block))
        total = total + value
    return total


# -- Moebius recursions: multilinear free and c-free cumulants of words ------
#
# The independent, slow definitions that the spec's cumulant tables and the
# Boolean nesting are checked against; only these tests read them.


def _multi_free(spec, args, memo):
    hit = memo.get(args)
    if hit is not None:
        return hit
    value = spec.moment("psi", "".join(args))
    for p in enumerate_nc(len(args)):
        if len(p.blocks) == 1:
            continue
        term = GQ_ONE
        for block in p.blocks:
            term = term * _multi_free(
                spec, tuple(args[i - 1] for i in block), memo
            )
            if term.is_zero():
                break
        value = value - term
    memo[args] = value
    return value


def multilinear_free(spec, args):
    """r_n(a_1, ..., a_n): top coefficient of the noncrossing moment sum."""
    if not args:
        raise DomainError("free cumulant of no arguments")
    return _multi_free(spec, tuple(args), {})


def _multi_cfree(spec, args, free_memo, cfree_memo):
    hit = cfree_memo.get(args)
    if hit is not None:
        return hit
    value = spec.moment("phi", "".join(args))
    for p in enumerate_nc(len(args)):
        if len(p.blocks) == 1:
            continue
        outer, inner = outer_inner(p)
        term = GQ_ONE
        for block in outer:
            term = term * _multi_cfree(
                spec, tuple(args[i - 1] for i in block), free_memo, cfree_memo
            )
        for block in inner:
            term = term * _multi_free(
                spec, tuple(args[i - 1] for i in block), free_memo
            )
        value = value - term
    cfree_memo[args] = value
    return value


def multilinear_cfree(spec, args):
    """r^{phi,psi}_n(a_1, ..., a_n): outer blocks c-free, inner blocks free."""
    if not args:
        raise DomainError("c-free cumulant of no arguments")
    return _multi_cfree(spec, tuple(args), {}, {})


def nested_two_state_refinement(spec, p, args):
    """nested_two_state_boolean as the sum over the ll-refinements of p."""
    if len(args) != p.n:
        raise DomainError("argument count differs from ground set")
    free_memo = {}
    cfree_memo = {}
    total = GQ_ZERO
    for rho in enumerate_nc(p.n):
        if not is_ll(rho, p):
            continue
        outer, inner = outer_inner(rho)
        term = GQ_ONE
        for block in outer:
            term = term * _multi_cfree(
                spec,
                tuple(args[i - 1] for i in block),
                free_memo,
                cfree_memo,
            )
        for block in inner:
            term = term * _multi_free(
                spec, tuple(args[i - 1] for i in block), free_memo
            )
        total = total + term
    return total


# -- marginals and derived cumulants ------------------------------------------


def test_marginal_distributions_frozen():
    assert semicircle_moments(1, 6).values == tuple(
        gq(c) for c in (0, 1, 0, 2, 0, 5)
    )
    assert point_mass_moments(2, 4).values == tuple(
        gq(c) for c in (2, 4, 8, 16)
    )
    pair = atom_moments([(1, gq(Fraction(1, 2))), (-1, gq(Fraction(1, 2)))], 5)
    assert pair.values == tuple(gq(c) for c in (0, 1, 0, 1, 0))
    with pytest.raises(DomainError):
        atom_moments([(1, gq(Fraction(1, 3)))], 3)


def test_spec_marginals_and_cumulants():
    spec = std_spec(6)
    assert spec.marginal("x").values == semicircle_moments(1, 6).values
    assert spec.free_cumulants("x").values == tuple(
        gq(c) for c in (0, 1, 0, 0, 0, 0)
    )
    assert spec.free_cumulants("y").values == tuple(
        gq(c) for c in (0, 1, 0, -1, 0, 2)
    )
    assert spec.boolean_cumulants("y").values == tuple(
        gq(c) for c in (0, 1, 0, 0, 0, 0)
    )
    # phi defaulted to psi: c-free cumulants collapse to the free ones
    assert spec.cfree_cumulants("x").values == spec.free_cumulants("x").values
    assert spec.marginal("x", "phi").state == "phi"


def test_cumulants_read_on_demand_change_no_answer():
    # free and c-free cumulants are computed on first read; the engine
    # never reads them, and reading them early or late changes no answer
    lazy = random_spec(random.Random(31), 6)
    eager = random_spec(random.Random(31), 6)
    for letter in "xy":
        eager.free_cumulants(letter)
        eager.cfree_cumulants(letter)
    for state in ("psi", "phi"):
        dist = poly_distribution(lazy, "x*y + y", state, 3)
        assert not any(t.free or t.cfree for t in lazy._tables.values())
        assert dist == poly_distribution(eager, "x*y + y", state, 3)
    for word in ("xyxy", "yxxy", "xxyyx"):
        for state in ("phi", "psi"):
            assert lazy.moment(state, word) == eager.moment(state, word)
    assert lazy.free_cumulants("y") == eager.free_cumulants("y")
    assert lazy.cfree_cumulants("x") == eager.cfree_cumulants("x")


def test_moment_on_marginal_words():
    spec = std_spec(8)
    for n in range(1, 9):
        for state in ("psi", "phi"):
            for letter in "xy":
                assert spec.moment(state, letter * n) == (
                    spec.marginal(letter, state).moment(n)
                )


def test_moment_guards():
    spec = std_spec(4)
    with pytest.raises(DomainError):
        spec.moment("psi", "xyxyx")
    big = std_spec(16)
    with pytest.raises(LimitError):
        big.moment("psi", "xy" * 8)
    assert big.moment("psi", "xy" * 8, guard=16) is not None
    with pytest.raises(DomainError):
        spec.moment("theta", "xx")
    with pytest.raises(DomainError):
        spec.moment("psi", "xz")


def test_a_warm_memo_still_refuses_what_a_cold_one_does():
    # only a memo miss checks the letters; the state, spec-order and guard
    # checks run on every read, memo hits included
    spec = std_spec(16)
    word = "xy" * 8
    value = spec.moment("psi", word, guard=16)
    assert word in spec._psi_memo
    with pytest.raises(LimitError, match="^word length 16 exceeds guard 12$"):
        spec.moment("psi", word, guard=12)
    with pytest.raises(LimitError, match="^word length 16 exceeds guard 10$"):
        spec.moment("psi", word, guard=10)
    with pytest.raises(DomainError, match="^word length 17 exceeds spec order 16$"):
        spec.moment("psi", word + "x", guard=20)
    with pytest.raises(DomainError, match="letters outside"):
        spec.moment("psi", "xy" * 7 + "xz", guard=16)
    with pytest.raises(DomainError, match="unknown state"):
        spec.moment("theta", word, guard=16)
    assert spec.moment("psi", word, guard=16) == value

def test_a_boolean_cumulant_past_the_guard_grows_nothing():
    # the concatenation is checked before any argument is read
    spec = std_spec(16)
    memo, scaled = dict(spec._psi_memo), repr(spec._scaled)
    with pytest.raises(LimitError, match="^word length 16 exceeds guard 12$"):
        multilinear_boolean(spec, "psi", ["x" * 8, "y" * 8], guard=12)
    assert spec._psi_memo == memo
    assert repr(spec._scaled) == scaled


def test_empty_word():
    spec = std_spec(2)
    assert spec.moment("psi", "") == GQ_ONE
    assert spec.moment("phi", "") == GQ_ONE


def test_geometric_denominators_keep_the_scale_small():
    # moments with denominators c q^k up to k = 400: the oracle scales x by
    # 210 and y by 20, where the lcm of the denominators would have
    # hundreds of digits; the values are pinned exactly
    def atoms(pairs, state="psi"):
        pairs = [(gq(Fraction(v)), gq(Fraction(w))) for v, w in pairs]
        return atom_moments(pairs, 400, state)

    start = time.perf_counter()
    x_psi = atoms((("1/3", "1/7"), ("2/5", "6/7")))
    x_phi = atoms((("1/2", "1/3"), ("3/7", "2/3")), "phi")
    y_psi = atoms((("-1/2", "1/5"), ("5/4", "4/5")))
    spec = TwoStateSpec(400, x_psi, y_psi, x_phi)
    pinned = {
        ("psi", "xyxy"): "7822/39375",
        ("phi", "xyxy"): "223357/882000",
        ("psi", "xxyyxy"): "41549/450000",
        ("phi", "xxyyxy"): "1149839/8232000",
        ("psi", "xyyxxyxy"): "26327737/567000000",
        ("phi", "xyyxxyxy"): "674386183/8643600000",
    }
    for (state, word), value in pinned.items():
        assert spec.moment(state, word) == gq(Fraction(value))
    assert time.perf_counter() - start < 1.0
    assert spec._scale == {"x": 210, "y": 20}


def test_a_scale_that_leaves_a_cumulant_fractional_raises(monkeypatch):
    # with D = 1 the half-integer moments give fractional scaled cumulants:
    # every reader must refuse them rather than truncate them to ints
    monkeypatch.setattr(twostate, "_letter_scale", lambda psi, phi: 1)
    half = MomentSeq([gq(Fraction(1, 2)), gq(Fraction(3, 4))], "psi")
    spec = TwoStateSpec(2, half, half)
    for read in (
        lambda: spec.moment("psi", "xy"),
        lambda: spec.poly_moment("phi", parse_poly("x + y")),
        lambda: multilinear_boolean(spec, "psi", ("x", "y")),
    ):
        with pytest.raises(InternalError, match="leaves cumulant 1 fractional"):
            read()


# -- the oracle against literal enumeration -----------------------------------


def test_psi_matches_enumeration():
    rng = random.Random(33)
    spec = random_spec(rng, 7)
    words = ["x", "xy", "xyx", "xxyy", "xyxy", "xyxxy", "yxyxyx", "xxyyxyx"]
    for w in words:
        assert spec.moment("psi", w) == brute_psi(spec, w)


def test_phi_matches_enumeration():
    rng = random.Random(35)
    spec = random_spec(rng, 7)
    words = ["x", "xy", "xyx", "xxyy", "xyxy", "yxxxy", "xyxyxy", "xyyxxyx"]
    for w in words:
        assert spec.moment("phi", w) == brute_phi(spec, w)


def test_phi_collapses_when_states_match():
    rng = random.Random(37)
    psi = random_spec(rng, 6)
    spec = TwoStateSpec(6, psi.marginal("x"), psi.marginal("y"))
    for w in ["xy", "xyx", "xxyy", "xyxyx", "yxxyxy"]:
        assert spec.moment("phi", w) == spec.moment("psi", w)


def test_commutator_moments():
    spec = std_spec(8)
    p = parse_poly("i*(x*y - y*x)")
    values = [spec.poly_moment("psi", p ** k) for k in range(1, 5)]
    assert values == [gq(0), gq(2), gq(0), gq(8)]


def test_pyramidal_word():
    spec = pyramid_spec(4)
    # phi(xyx) = phi(x^2) psi(y) + phi(x)^2 (phi(y) - psi(y))
    x2 = spec.marginal("x", "phi").moment(2)
    y1 = spec.marginal("y").moment(1)
    assert spec.moment("phi", "xyx") == x2 * y1
    assert spec.moment("phi", "xyx") == gq(2)


def test_poly_moment_linearity():
    rng = random.Random(39)
    spec = random_spec(rng, 6)
    p = parse_poly("x*y + 2*y")
    q = parse_poly("x^2 - 1/3")
    for state in ("psi", "phi"):
        assert spec.poly_moment(state, p + q) == spec.poly_moment(
            state, p
        ) + spec.poly_moment(state, q)
    assert spec.poly_moment("psi", NCPolynomial.scalar(gq(7))) == gq(7)


# -- multilinear cumulant functionals -----------------------------------------


def test_multilinear_boolean_single_variable():
    rng = random.Random(41)
    spec = random_spec(rng, 6)
    for state in ("psi", "phi"):
        for n in range(1, 7):
            got = multilinear_boolean(spec, state, ("x",) * n)
            assert got == spec.boolean_cumulants("x", state).value(n)


def test_multilinear_free_single_variable():
    rng = random.Random(43)
    spec = random_spec(rng, 6)
    for n in range(1, 7):
        assert multilinear_free(spec, ("y",) * n) == spec.free_cumulants(
            "y"
        ).value(n)
        assert multilinear_cfree(spec, ("y",) * n) == spec.cfree_cumulants(
            "y"
        ).value(n)


def test_mixed_free_cumulants_vanish():
    # the defining property: mixed cumulants across the family are zero
    rng = random.Random(45)
    spec = random_spec(rng, 6)
    mixed = [
        ("x", "y"),
        ("y", "x", "x"),
        ("x", "y", "x"),
        ("x", "x", "y", "y"),
        ("y", "x", "y", "x", "x"),
    ]
    for args in mixed:
        assert multilinear_free(spec, args) == GQ_ZERO
        assert multilinear_cfree(spec, args) == GQ_ZERO


def test_multilinear_boolean_word_args():
    # boolean cumulants with word entries feed the product machinery
    rng = random.Random(47)
    spec = random_spec(rng, 8)
    got = multilinear_boolean(spec, "psi", ("xy", "yx"))
    direct = spec.moment("psi", "xyyx") - spec.moment("psi", "xy") * spec.moment("psi", 
        "yx"
    )
    assert got == direct


# -- block and letterwise cumulants -------------------------------------------


def test_block_boolean_frozen_shape():
    rng = random.Random(49)
    spec = random_spec(rng, 8)
    w = "xxxyyx"
    assert block_boolean(spec, "psi", w) == multilinear_boolean(
        spec, "psi", ("xxx", "yy", "x")
    )
    assert letterwise_boolean(spec, "psi", w) == multilinear_boolean(
        spec, "psi", tuple(w)
    )
    assert block_boolean(spec, "psi", "") == GQ_ONE
    assert letterwise_boolean(spec, "phi", "") == GQ_ONE


def test_boundary_mismatch_vanishes():
    # c-freeness kills block cumulants whose ends carry different letters
    rng = random.Random(51)
    spec = random_spec(rng, 8)
    for w in ["xy", "xxy", "xyyy", "xyxy", "xxyxyy"]:
        for state in ("psi", "phi"):
            assert block_boolean(spec, state, w) == GQ_ZERO
            assert letterwise_boolean(spec, state, w) == GQ_ZERO


def test_partial_cumulants_split():
    rng = random.Random(53)
    spec = random_spec(rng, 8)
    words = ["x", "y", "xyx", "yxy", "xy", "xxyx", "yxxy", "xyxxyx"]
    for w in words:
        for state in ("psi", "phi"):
            total = block_boolean(spec, state, w)
            x_part = partial_block_boolean(spec, state, "x", w)
            y_part = partial_block_boolean(spec, state, "y", w)
            assert total == x_part + y_part
            lt = letterwise_boolean(spec, state, w)
            lx = letterwise_boolean(spec, state, w, partial="x")
            ly = letterwise_boolean(spec, state, w, partial="y")
            assert lt == lx + ly
    assert partial_block_boolean(spec, "psi", "x", "") == GQ_ONE
    assert partial_block_boolean(spec, "psi", "x", "x") == block_boolean(
        spec, "psi", "x"
    )
    assert partial_block_boolean(spec, "psi", "y", "x") == GQ_ZERO


def test_block_vs_letterwise_products():
    # collapsing maximal runs into products is the interval-product identity
    rng = random.Random(55)
    spec = random_spec(rng, 8)

    def letter_fn(state):
        def fn(args):
            return multilinear_boolean(spec, state, args)

        return fn

    for w in ["xxy", "xxyy", "xyyx", "xxxyx", "xyyyxx"]:
        runs = []
        start = 1
        for _, k in block_factorize(w):
            runs.append(list(range(start, start + k)))
            start += k
        rho = SetPartition(len(w), runs)
        for state in ("psi", "phi"):
            assert block_boolean(spec, state, w) == boolean_products_recursive(
                letter_fn(state), rho, tuple(w)
            )


def test_cumulant_polys():
    rng = random.Random(57)
    spec = random_spec(rng, 8)
    p = parse_poly("x*y*x + 2*x")
    assert block_boolean_poly(spec, "psi", p) == block_boolean(
        spec, "psi", "xyx"
    ) + gq(2) * block_boolean(spec, "psi", "x")
    assert letterwise_boolean_poly(
        spec, "psi", p, partial="x"
    ) == letterwise_boolean(
        spec, "psi", "xyx", partial="x"
    ) + gq(2) * letterwise_boolean(spec, "psi", "x", partial="x")


# -- nested two-state cumulants and vnrp ---------------------------------------


def test_nested_direct_equals_refinement():
    rng = random.Random(59)
    spec = random_spec(rng, 6)
    cases = [
        (SetPartition(3, [[1, 3], [2]]), ("x", "y", "x")),
        (SetPartition(4, [[1, 4], [2, 3]]), ("x", "y", "y", "x")),
        (SetPartition(4, [[1, 2], [3, 4]]), ("x", "x", "y", "y")),
        (SetPartition(5, [[1, 5], [2, 4], [3]]), ("x", "y", "x", "y", "x")),
        (SetPartition(2, [[1], [2]]), ("y", "x")),
    ]
    for p, args in cases:
        direct = nested_two_state_boolean(spec, p, args)
        refined = nested_two_state_refinement(spec, p, args)
        assert direct == refined


def test_vnrp_sum_equals_boolean_phi():
    rng = random.Random(61)
    for trial in range(5):
        spec = random_spec(rng, 6)
        for args in [("x", "y"), ("x", "y", "x"), ("x", "y", "x", "y"),
                     ("y", "x", "y", "x", "y"), ("x", "y", "x", "y", "x", "y")]:
            colors = "".join(args)
            got = vnrp_boolean_phi(spec, args, colors)
            want = multilinear_boolean(spec, "phi", args)
            assert got == want


def test_vnrp_closure_check_with_weights():
    rng = random.Random(63)
    spec = random_spec(rng, 6)
    for colors in ["xyx", "xxyy", "xyxy", "xxxy"]:
        elements = enumerate_nc_colored(colors)

        def weight(p):
            outer, inner = outer_inner(p)
            value = GQ_ONE
            for b in outer:
                letter = colors[b[0] - 1]
                value = value * spec.cfree_cumulants(letter).value(len(b))
            for b in inner:
                letter = colors[b[0] - 1]
                value = value * spec.free_cumulants(letter).value(len(b))
            return value

        def grouped(p):
            outer, inner = outer_inner(p)
            value = GQ_ONE
            for b in outer:
                letter = colors[b[0] - 1]
                value = value * spec.boolean_cumulants(letter, "phi").value(
                    len(b)
                )
            for b in inner:
                letter = colors[b[0] - 1]
                value = value * spec.boolean_cumulants(letter, "psi").value(
                    len(b)
                )
            return value

        assert closure_check(
            elements,
            is_ll,
            lambda p: vnrp_closure(p, colors),
            weight,
            grouped,
        )


# -- construction and JSON -----------------------------------------------------


def test_spec_validation():
    with pytest.raises(DomainError):
        TwoStateSpec(4, semicircle_moments(1, 3), semicircle_moments(1, 4))
    with pytest.raises(DomainError):
        TwoStateSpec(
            4,
            semicircle_moments(1, 4, state="phi"),
            semicircle_moments(1, 4),
        )
    with pytest.raises(DomainError):
        TwoStateSpec(
            4,
            semicircle_moments(1, 4),
            semicircle_moments(1, 4),
            semicircle_moments(1, 4),
        )


def test_random_spec_deterministic():
    a = random_spec(random.Random(99), 6)
    b = random_spec(random.Random(99), 6)
    assert a.marginal("x").values == b.marginal("x").values
    assert a.marginal("y", "phi").values == b.marginal("y", "phi").values


def test_spec_from_json():
    data = {
        "order": 6,
        "x": {"psi": {"kind": "semicircle", "variance": "1"}},
        "y": {
            "psi": {
                "kind": "atoms",
                "atoms": [
                    {"value": "1", "weight": "1/2"},
                    {"value": "-1", "weight": "1/2"},
                ],
            }
        },
    }
    spec = spec_from_json(data)
    assert spec.order == 6
    assert spec.marginal("x").values == semicircle_moments(1, 6).values
    assert spec.marginal("y").moment(2) == GQ_ONE
    # phi omitted: same numbers under the phi tag
    assert spec.marginal("x", "phi").values == spec.marginal("x").values

    explicit = dict(data)
    explicit["x"] = {
        "psi": {"kind": "semicircle"},
        "phi": {"kind": "moments", "moments": ["0", "2", "0", "5", "0", "14"]},
    }
    spec2 = spec_from_json(explicit)
    assert spec2.marginal("x", "phi").moment(2) == gq(2)


def test_spec_from_json_rejects():
    with pytest.raises(ParseError):
        spec_from_json([])
    with pytest.raises(ParseError):
        spec_from_json({"order": 0, "x": {}, "y": {}})
    with pytest.raises(ParseError):
        spec_from_json({"order": 4, "x": {}, "y": {"psi": {"kind": "semicircle"}}})
    base = {
        "order": 2,
        "x": {"psi": {"kind": "moments", "moments": ["0", "1"]}},
        "y": {"psi": {"kind": "moments", "moments": ["0"]}},
    }
    with pytest.raises(ParseError):
        spec_from_json(base)
    with pytest.raises(ParseError):
        dist_moments({"kind": "moments", "moments": [0.5, 1]}, 2, "psi")
    with pytest.raises(ParseError):
        dist_moments({"kind": "moments", "moments": [True, 1]}, 2, "psi")
    with pytest.raises(ParseError):
        dist_moments({"kind": "gaussian"}, 2, "psi")
    with pytest.raises(ParseError):
        dist_moments(
            {"kind": "atoms", "atoms": [{"value": "1", "weight": "1/3"}]},
            2,
            "psi",
        )


def test_hankel_warnings():
    clean = std_spec(6)
    assert hankel_warnings(clean) == []
    bad = TwoStateSpec(
        4,
        MomentSeq((GQ_ZERO, gq(-1), GQ_ZERO, gq(1)), "psi"),
        semicircle_moments(1, 4),
    )
    notes = hankel_warnings(bad)
    assert any("positivity" in note for note in notes)
    imag = TwoStateSpec(
        2,
        MomentSeq((gq(0, 1), GQ_ONE), "psi"),
        semicircle_moments(1, 2),
    )
    assert any("not real" in note for note in hankel_warnings(imag))
