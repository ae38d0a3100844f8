"""End-to-end CLI checks: frozen outputs, exit codes, format variants.

Everything runs in-process through main(argv) for speed; one subprocess
test covers the real interpreter wiring.  JSON outputs are compared as
exact bytes, since determinism is part of the contract.
"""

import json
import pathlib
import re
import subprocess
import sys
import time

import pytest

from cfree import selfcheck
from cfree.cli import main
from cfree.condexp import efree_rec, efree_resolvent, rqce
from cfree.linearize import linearize
from cfree.ncpoly import parse_poly
from cfree.twostate import spec_from_json

SPEC20 = {
    "order": 20,
    "x": {"psi": {"kind": "semicircle", "variance": 1}},
    "y": {
        "psi": {
            "kind": "atoms",
            "atoms": [
                {"value": -1, "weight": "1/2"},
                {"value": 1, "weight": "1/2"},
            ],
        }
    },
}

TWOSTATE = {
    "order": 10,
    "x": {
        "psi": {"kind": "semicircle", "variance": 1},
        "phi": {
            "kind": "atoms",
            "atoms": [
                {"value": 1, "weight": "1/2"},
                {"value": 0, "weight": "1/2"},
            ],
        },
    },
    "y": {
        "psi": {
            "kind": "atoms",
            "atoms": [
                {"value": -1, "weight": "1/2"},
                {"value": 1, "weight": "1/2"},
            ],
        },
        "phi": {"kind": "atoms", "atoms": [{"value": 2, "weight": 1}]},
    },
}

UNIT = {
    "order": 10,
    "x": {"psi": {"kind": "atoms", "atoms": [{"value": 1, "weight": 1}]}},
    "y": {"psi": {"kind": "atoms", "atoms": [{"value": 1, "weight": 1}]}},
}


@pytest.fixture(scope="module")
def spec_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("specs")
    paths = {}
    for name, data in (
        ("spec20", SPEC20),
        ("twostate", TWOSTATE),
        ("unit", UNIT),
    ):
        path = root / ("%s.json" % name)
        path.write_text(json.dumps(data))
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_moments_frozen_example(spec_files, capsys):
    code, out, err = run(
        capsys,
        "moments",
        "--poly",
        "i*(x*y-y*x)",
        "--spec",
        spec_files["spec20"],
        "--state",
        "psi",
        "--order",
        "6",
    )
    assert code == 0
    assert out == '{"moments":["0","2","0","8","0","40"]}\n'
    assert err == ""


def test_moments_formats(spec_files, capsys):
    code, out, _ = run(
        capsys,
        "moments",
        "--poly",
        "x+y",
        "--spec",
        spec_files["twostate"],
        "--order",
        "4",
        "--format",
        "csv",
    )
    assert code == 0
    assert out == "n,value\n1,0\n2,2\n3,0\n4,7\n"
    code, out, _ = run(
        capsys,
        "moments",
        "--poly",
        "x+y",
        "--spec",
        spec_files["twostate"],
        "--order",
        "4",
        "--format",
        "pretty",
    )
    assert code == 0
    assert "0, 2, 0, 7" in out


def test_moments_constant_term_is_domain_error(spec_files, capsys):
    code, out, err = run(
        capsys,
        "moments",
        "--poly",
        "1 + x*y",
        "--spec",
        spec_files["twostate"],
        "--order",
        "3",
    )
    assert code == 3
    assert out == ""
    assert "cfree:" in err


def test_moments_deep_nesting_is_parse_error(spec_files, capsys):
    def moments(poly):
        return run(
            capsys,
            "moments",
            "--poly=" + poly,
            "--spec",
            spec_files["twostate"],
            "--order",
            "2",
        )

    for poly in ("(" * 3000 + "x" + ")" * 3000, "-" * 3000 + "x"):
        code, out, err = moments(poly)
        assert code == 2
        assert out == ""
        assert err.startswith("cfree: nesting deeper than")
        assert err.count("\n") == 1
    code, out, err = moments("(" * 50 + "x" + ")" * 50)
    assert code == 0
    assert out == '{"moments":["0","1"]}\n'
    assert err == ""


def test_poly_values_may_begin_with_minus(spec_files, capsys):
    spec = ["--spec", spec_files["twostate"]]
    denoise = ["denoise", "--degree", "2", "--poly", "x*y"] + spec
    for argv, option, value in (
        (["moments", "--order", "4"] + spec, "--poly", "-x*y"),
        (denoise, "--target", "-x^2"),
        (denoise + ["--target", "x", "--order", "4"], "--weight", "-1+2*x^2"),
    ):
        joined = run(capsys, *argv, option + "=" + value)
        assert joined[0] == 0
        assert run(capsys, *argv, option, value) == joined
        # an abbreviated option binds its value too
        assert run(capsys, *argv, option[:-1], value) == joined
        # so does a value that begins with "--" but names no option
        doubled = run(capsys, *argv, option + "=-" + value)
        assert doubled[0] == 0
        assert run(capsys, *argv, option, "-" + value) == doubled
        assert run(capsys, *argv, option[:4], "-" + value) == doubled
        # a missing value is still a usage error: at the end, before a real
        # or abbreviated option, or before the end-of-options marker
        assert run(capsys, *argv, option)[0] == 2
        assert run(capsys, argv[0], option, *argv[1:])[0] == 2
        assert run(capsys, argv[0], option[:-1], *argv[1:])[0] == 2
        assert run(capsys, *argv, option, "--sp", spec[1])[0] == 2
        assert run(capsys, *argv, option, "--")[0] == 2
        # argparse drops a "--" value given with "=": a parse error, not an
        # empty polynomial
        for spelling in (option, option[:-1]):
            code, out, err = run(capsys, *argv, spelling + "=--")
            assert (code, out) == (2, "")
            assert err == "cfree: argument %s: expected a polynomial\n" % option


def test_cumulants_kinds(spec_files, capsys):
    code, out, _ = run(
        capsys,
        "cumulants",
        "--spec",
        spec_files["spec20"],
        "--letter",
        "x",
        "--kind",
        "boolean",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "boolean-psi"
    # Boolean cumulants of the standard semicircle: shifted Catalans
    assert payload["values"][:8] == ["0", "1", "0", "1", "0", "2", "0", "5"]
    code, out, _ = run(
        capsys,
        "cumulants",
        "--spec",
        spec_files["twostate"],
        "--letter",
        "y",
        "--kind",
        "cfree",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "cfree"
    assert payload["values"][0] == "2"
    code, out, _ = run(
        capsys,
        "cumulants",
        "--spec",
        spec_files["spec20"],
        "--letter",
        "x",
        "--kind",
        "free",
        "--format",
        "csv",
    )
    assert code == 0
    # free cumulants of the semicircle: variance only
    assert out.splitlines()[:3] == ["n,value", "1,0", "2,1"]
    assert all(line.endswith(",0") for line in out.splitlines()[3:])


def test_cumulants_state_flag_is_boolean_only(spec_files, capsys):
    code, out, err = run(
        capsys,
        "cumulants",
        "--spec",
        spec_files["twostate"],
        "--letter",
        "y",
        "--kind",
        "free",
        "--state",
        "phi",
    )
    assert code == 2
    assert out == ""
    assert "Boolean" in err


def test_condexp_word_mode(spec_files, capsys):
    code, out, _ = run(
        capsys,
        "condexp",
        "--spec",
        spec_files["twostate"],
        "--state",
        "psi",
        "--word",
        "yy",
    )
    assert code == 0
    assert out == '{"source":"recursive","terms":[["","1"]]}\n'
    # phi routes to the quasi-conditional expectation
    code, out, _ = run(
        capsys,
        "condexp",
        "--spec",
        spec_files["twostate"],
        "--state",
        "phi",
        "--word",
        "yxy",
    )
    assert code == 0
    spec = spec_from_json(TWOSTATE)
    expected = rqce(spec, "yxy").poly
    payload = json.loads(out)
    terms = expected.terms
    assert payload["terms"] == [[w, str(terms[w])] for w in expected.words()]


def test_condexp_resolvent_mode(spec_files, capsys):
    code, out, _ = run(
        capsys,
        "condexp",
        "--spec",
        spec_files["twostate"],
        "--state",
        "psi",
        "--resolvent",
        "--poly",
        "x*y",
        "--order",
        "4",
    )
    assert code == 0
    spec = spec_from_json(TWOSTATE)
    lin = linearize(parse_poly("x*y"))
    corner = lin.corner(efree_resolvent(spec, lin.a_coeffs, lin.b_coeffs, 4))
    payload = json.loads(out)
    assert len(payload["series"]) == 5
    for k in range(5):
        poly = corner.coeff(k)
        terms = poly.terms
        assert payload["series"][k] == [[w, str(terms[w])] for w in poly.words()]


def test_pencil_reaching_past_the_engine_order_still_answers(spec_files, capsys):
    # a pencil's z^k coefficient first counts at z^(k+1): the completion
    # edges of y in x^2 + y and x^3 + y carry z^1 and z^2, which an engine
    # order at or below them drops instead of refusing the query
    spec = spec_files["twostate"]
    resolvent = ("condexp", "--spec", spec, "--resolvent", "--poly", "x^3 + y")
    for argv, expected in (
        (
            ("moments", "--spec", spec, "--poly", "x^2 + y", "--order", "0"),
            '{"moments":[]}\n',
        ),
        (
            resolvent + ("--state", "psi", "--order", "1"),
            '{"series":[[["","1"]],[]]}\n',
        ),
        (
            resolvent + ("--state", "phi", "--order", "1"),
            '{"series":[[["","1"]],[]]}\n',
        ),
        (
            resolvent + ("--state", "psi", "--order", "2"),
            '{"series":[[["","1"]],[],[]]}\n',
        ),
        (
            (
                "denoise", "--spec", spec, "--poly", "x^2 + y", "--target", "x",
                "--degree", "1", "--weight", "1+x", "--order", "1",
            ),
            '{"coefficients":["0","0"],"rank":2,"residuals":["0","0"],'
            '"normalization":"1","phi_moments":[],"psi_moments":[]}\n',
        ),
    ):
        assert run(capsys, *argv) == (0, expected, ""), argv
    # the answers at order 2 begin the order-3 series, the first to reach x^3
    assert run(capsys, *resolvent, "--state", "psi", "--order", "3") == (
        0,
        '{"series":[[["","1"]],[],[],[["xxx","1"]]]}\n',
        "",
    )


def test_condexp_usage_errors(spec_files, capsys):
    code, _, err = run(
        capsys,
        "condexp",
        "--spec",
        spec_files["twostate"],
        "--state",
        "psi",
        "--resolvent",
    )
    assert code == 2
    assert "--poly" in err
    code, _, _ = run(
        capsys,
        "condexp",
        "--spec",
        spec_files["twostate"],
        "--state",
        "psi",
        "--word",
        "xy",
        "--resolvent",
    )
    assert code == 2
    code, _, _ = run(
        capsys,
        "condexp",
        "--spec",
        spec_files["twostate"],
        "--state",
        "psi",
        "--word",
        "xy",
        "--poly",
        "x*y",
    )
    assert code == 2


def test_condexp_guard(spec_files, capsys):
    long_word = "xy" * 6
    code, _, err = run(
        capsys,
        "condexp",
        "--spec",
        spec_files["twostate"],
        "--state",
        "psi",
        "--word",
        long_word,
    )
    assert code == 3
    # the message names the option and the library keyword
    assert "--guard" in err and "guard=" in err
    # raising the guard trades the limit for an honest order error
    code, _, err = run(
        capsys,
        "condexp",
        "--spec",
        spec_files["twostate"],
        "--state",
        "psi",
        "--word",
        long_word,
        "--guard",
        "12",
    )
    assert code == 3
    assert "order" in err
    # the ceiling holds whatever the guard; a shorter word still answers
    def condexp(state, word):
        spec = spec_files["twostate"]
        return run(
            capsys, "condexp", "--spec", spec, "--state", state,
            "--guard", "5000", "--word", word,
        )

    for word in ("x" * 1100 + "y", "yx" * 1500):
        for state in ("psi", "phi"):
            code, out, err = condexp(state, word)
            assert (code, out) == (3, "")
            assert "ceiling" in err
    answer = '{"source":"recursive","terms":[]}\n'
    assert condexp("psi", "x" * 300 + "y") == (0, answer, "")
    # under phi the word needs x-moments past the spec order; the message
    # names that limit, not the oracle's default guard
    code, out, err = condexp("phi", "x" * 300 + "y")
    assert (code, out) == (3, "")
    assert "spec order 10" in err and "guard" not in err
    # 16 letters framed by y, so the whole word's moment is read; SPEC20
    # has phi = psi, so rqce answers E as well
    word = "yxxyyxxyyxxyyxxy"
    expected = efree_rec(spec_from_json(SPEC20), word, guard=20).poly
    expected_terms = expected.terms
    terms = [[w, str(expected_terms[w])] for w in expected.words()]
    assert terms
    for state in ("psi", "phi"):
        code, out, err = run(
            capsys, "condexp", "--spec", spec_files["spec20"], "--state",
            state, "--word", word, "--guard", "20",
        )
        assert (code, err) == (0, "")
        assert out.count("\n") == 1
        assert json.loads(out) == {"source": "recursive", "terms": terms}


def test_denoise_frozen_example(spec_files, capsys):
    code, out, _ = run(
        capsys,
        "denoise",
        "--poly",
        "i*(x*y-y*x)",
        "--target",
        "x^2",
        "--degree",
        "2",
        "--spec",
        spec_files["spec20"],
    )
    assert code == 0
    assert (
        out
        == '{"coefficients":["1/2","0","1/4"],"rank":3,'
        '"residuals":["0","0","0"]}\n'
    )


def test_denoise_with_weight(spec_files, capsys):
    code, out, _ = run(
        capsys,
        "denoise",
        "--poly",
        "i*(x*y-y*x)",
        "--target",
        "x^2",
        "--degree",
        "2",
        "--spec",
        spec_files["spec20"],
        "--weight",
        "x^2",
        "--order",
        "6",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["normalization"] == "1"
    assert payload["phi_moments"] == ["0", "3", "0"]
    assert payload["psi_moments"] == ["0", "2", "0"]
    assert list(payload) == [
        "coefficients",
        "rank",
        "residuals",
        "normalization",
        "phi_moments",
        "psi_moments",
    ]


def test_denoise_weight_needs_order(spec_files, capsys):
    code, _, err = run(
        capsys,
        "denoise",
        "--poly",
        "i*(x*y-y*x)",
        "--target",
        "x^2",
        "--degree",
        "2",
        "--spec",
        spec_files["spec20"],
        "--weight",
        "x^2",
    )
    assert code == 2
    assert "--order" in err


def test_sigma_unit(spec_files, capsys):
    code, out, _ = run(
        capsys, "sigma", "--spec", spec_files["unit"], "--order", "4"
    )
    assert code == 0
    assert out == (
        '{"sigma_x":["1","0","0","0"],"sigma_y":["1","0","0","0"],'
        '"sigma_xy":["1","0","0","0"],"residual":["0","0","0","0"]}\n'
    )


@pytest.mark.parametrize("order", [0, 4, 5, 8, 9])
def test_sigma_readme_example(order, tmp_path, capsys):
    # README prints this prod.json (order 8) and the order-4 line below;
    # every order up to the spec order answers, none beyond it
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    spec = re.search(r"```json\n(.*?)```", readme.split("prod.json", 1)[1], re.S)
    path = tmp_path / "prod.json"
    path.write_text(spec.group(1), encoding="utf-8")
    code, out, err = run(capsys, "sigma", "--spec", str(path), "--order", str(order))
    if order in (0, 9):
        assert (code, out, err.count("\n")) == (3, "", 1)
        return
    assert (code, err) == (0, "")
    assert json.loads(out)["residual"] == ["0"] * order
    if order == 4:
        assert out == (
            '{"sigma_x":["1","1","0","0"],"sigma_y":["2","1/2","3/8","3/16"],'
            '"sigma_xy":["2","5/2","7/8","9/16"],"residual":["0","0","0","0"]}\n'
        )
        assert "$ cfree sigma --spec prod.json --order 4\n" + out in readme


def test_sigma_zero_mean_is_domain_error(spec_files, capsys):
    code, _, err = run(
        capsys, "sigma", "--spec", spec_files["spec20"], "--order", "3"
    )
    assert code == 3
    assert "mean" in err


def test_partitions_counts(spec_files, capsys):
    code, out, _ = run(capsys, "partitions", "--enumerate", "nc", "--n", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 14
    assert [[1], [2], [3], [4]] in payload["items"]
    assert [[1, 2, 3, 4]] in payload["items"]
    code, out, _ = run(
        capsys, "partitions", "--enumerate", "interval", "--n", "4"
    )
    assert json.loads(out)["count"] == 8
    code, out, _ = run(
        capsys, "partitions", "--enumerate", "irreducible", "--n", "4"
    )
    assert json.loads(out)["count"] == 5
    # xyxy admits the discrete partition plus one pairing per color
    code, out, _ = run(
        capsys, "partitions", "--enumerate", "colored", "--colors", "xyxy"
    )
    assert json.loads(out)["count"] == 3


def test_colored_partitions_cost_only_their_compatible_ones(capsys):
    for word, count in (("xyxyxyxyxyxy", 1428), ("xxyyxyyxxyxy", 2536)):
        code, out, _ = run(
            capsys, "partitions", "--enumerate", "colored", "--colors", word
        )
        assert (code, json.loads(out)["count"]) == (0, count)
    # at the guard: all 2,674,440 noncrossing partitions of 14 points
    # would take minutes, the 7752 compatible ones take well under a second
    started = time.perf_counter()
    code, out, _ = run(
        capsys, "partitions", "--enumerate", "colored", "--colors", "xy" * 7
    )
    assert time.perf_counter() - started < 5
    assert (code, json.loads(out)["count"]) == (0, 7752)
    # README prints this line byte for byte
    code, out, _ = run(
        capsys, "partitions", "--enumerate", "colored", "--colors", "xyxy"
    )
    root = pathlib.Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert out == (
        '{"count":3,"items":[[[1],[2],[3],[4]],[[1],[2,4],[3]],[[1,3],[2],[4]]]}\n'
    )
    assert "$ cfree partitions --enumerate colored --colors xyxy\n" + out in readme


def test_partitions_past_the_enumeration_guard_exit_3(capsys):
    # the command line has no option to raise the guard; the message says
    # so and names the library keyword that does
    for argv in (
        ("--enumerate", "nc", "--n", "15"),
        ("--enumerate", "colored", "--colors", "xy" * 8),
    ):
        code, out, err = run(capsys, "partitions", *argv)
        assert (code, out) == (3, "")
        assert err.startswith("cfree: enumeration size 1")
        assert "outside 1..14" in err and "guard=" in err
        assert "no override" in err and err.count("\n") == 1


def test_partitions_missing_size(spec_files, capsys):
    code, _, err = run(capsys, "partitions", "--enumerate", "nc")
    assert code == 2
    assert "--n" in err


def test_verify_suites(capsys):
    counts = {"vnrp": 58, "sigma": 3, "linearization": 10, "engine": 8}
    for suite, checks in counts.items():
        assert run(capsys, "verify", suite) == (
            0,
            '{"suite":"%s","checks":%d,"failures":[],"status":"pass"}\n'
            % (suite, checks),
            "",
        )


def test_verify_reports_a_failing_check(capsys, monkeypatch):
    results = [(True, "fine"), (False, "boom"), (True, "fine")]
    monkeypatch.setitem(selfcheck.SUITES, "sigma", lambda: iter(results))
    assert run(capsys, "verify", "sigma") == (
        4,
        '{"suite":"sigma","checks":3,"failures":["boom"],"status":"fail"}\n',
        "",
    )


def test_unexpected_failures_exit_4_on_one_line(spec_files, capsys, monkeypatch):
    import cfree.cli

    for exc in (MemoryError(), RecursionError("maximum recursion depth\nexceeded")):
        def boom(args, exc=exc):
            raise exc

        monkeypatch.setattr(cfree.cli, "_cmd_moments", boom)
        code, out, err = run(
            capsys, "moments", "--poly=x", "--spec", spec_files["unit"], "--order=2"
        )
        assert (code, out) == (4, "")
        assert err.startswith("cfree: internal error: %s(" % type(exc).__name__)
        assert err.count("\n") == 1
        assert "Traceback" not in err


def test_huge_inputs_end_in_documented_exits(spec_files, capsys, tmp_path):
    def moments(poly):
        path = spec_files["unit"]
        return run(capsys, "moments", "--poly=" + poly, "--spec", path, "--order=1")

    for poly, code, message in (
        ("x^99999999999", 3, "power 99999999999 of a degree-1 polynomial exceeds"),
        ("(x*y)^251", 3, "power 251 of a degree-2 polynomial exceeds"),
        ("2^99999999999*x", 3, "power 99999999999 of a degree-0 polynomial exceeds"),
        ("x^" + "9" * 5000, 2, "exponent has too many digits"),
        ("1" * 5000 + "*x", 2, "bad rational literal"),
    ):
        got, out, err = moments(poly)
        assert (got, out) == (code, "")
        assert err.startswith("cfree: " + message)
        assert err.count("\n") == 1
    path = tmp_path / "long.json"
    dist = '{"kind": "moments", "moments": [%s]}' % ("7" * 5000)
    path.write_text('{"order": 1, "x": {"psi": %s}}' % dist)
    got, out, err = run(capsys, "moments", "--poly=x", "--spec", str(path), "--order=1")
    assert (got, out) == (2, "")
    assert err == "cfree: spec file holds a number too long to read\n"


def test_long_order_spec_is_read_only_as_far_as_the_query(tmp_path, capsys):
    # order 400: the engine reads the Boolean cumulants to its own order 2
    data = dict(SPEC20, order=400)
    path = tmp_path / "order400.json"
    path.write_text(json.dumps(data))
    code, out, err = run(
        capsys, "moments", "--poly", "x+y", "--spec", str(path), "--order", "2"
    )
    assert (code, out, err) == (0, '{"moments":["0","2"]}\n', "")


def test_spec_order_past_the_word_ceiling_exits_3_before_any_moment(
    tmp_path, capsys
):
    # a moment of order k is a k-letter word: the ceiling is MAX_WORD
    path = tmp_path / "huge_order.json"
    path.write_text(json.dumps(dict(SPEC20, order=10**9)))
    code, out, err = run(
        capsys, "moments", "--poly", "x", "--spec", str(path), "--order", "1"
    )
    assert (code, out) == (3, "")
    assert err == (
        "cfree: spec order 1000000000 exceeds the ceiling of 500 letters per word\n"
    )


def test_power_past_the_term_pair_ceiling_exits_3_at_once(spec_files, capsys):
    started = time.perf_counter()
    code, out, err = run(
        capsys, "moments", "--poly=(x+y)^40", "--spec", spec_files["unit"],
        "--order=1",
    )
    assert time.perf_counter() - started < 30  # (x+y)^40 has 2^40 words
    assert (code, out) == (3, "")
    assert err.startswith("cfree: a product of 65536 by 65536 terms exceeds")
    assert err.count("\n") == 1
    # (x+y)^12, 4096 words, is still read
    code, out, err = run(
        capsys, "denoise", "--spec", spec_files["unit"], "--poly", "(x+y)^12",
        "--target", "x", "--degree", "0",
    )
    assert (code, out, err) == (
        0, '{"coefficients":["1"],"rank":1,"residuals":["0"]}\n', ""
    )


def test_pencil_past_the_state_ceiling_exits_3_at_once(spec_files, capsys):
    # (x+y)^12 parses (4096 words) but its trie pencil has 4095 states;
    # denoise, which reads it through the oracle, answers (test above)
    for argv in (
        ("moments", "--order=1"),
        ("condexp", "--state=psi", "--resolvent", "--order=1"),
    ):
        started = time.perf_counter()
        code, out, err = run(
            capsys, *argv, "--poly=(x+y)^12", "--spec", spec_files["unit"]
        )
        assert time.perf_counter() - started < 30
        assert (code, out) == (3, "")
        assert err == (
            "cfree: the pencil of this polynomial has 4095 states, "
            "past the ceiling 64\n"
        )
    code, out, err = run(
        capsys, "moments", "--poly=(x+y)^5", "--spec", spec_files["unit"],
        "--order=1",
    )
    assert (code, err) == (0, "")  # 31 states


def test_verify_unknown_suite(capsys):
    code, out, err = run(capsys, "verify", "bogus")
    assert code == 2
    assert out == ""
    assert "unknown verify suite" in err


def test_bad_spec_paths(spec_files, capsys, tmp_path):
    code, _, err = run(
        capsys,
        "moments",
        "--poly",
        "x",
        "--spec",
        str(tmp_path / "missing.json"),
        "--order",
        "2",
    )
    assert code == 2
    assert "cannot read" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    code, _, err = run(
        capsys, "moments", "--poly", "x", "--spec", str(broken), "--order", "2"
    )
    assert code == 2
    assert "valid JSON" in err
    for name, data, message in (
        ("latin1.json", b"\xff\xfe", "not UTF-8"),
        ("deep.json", b"[" * 100000, "nests too deeply"),
    ):
        bad = tmp_path / name
        bad.write_bytes(data)
        code, out, err = run(
            capsys, "moments", "--poly=x", "--spec", str(bad), "--order=2"
        )
        assert (code, out) == (2, "")
        assert message in err
        assert err.count("\n") == 1


def test_usage_errors(capsys):
    assert run(capsys, "moments")[0] == 2  # missing required flags
    assert run(capsys)[0] == 2  # no subcommand
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys, "--help")[0] == 0


def test_subprocess_wiring(spec_files):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "cfree.cli",
            "moments",
            "--poly",
            "i*(x*y-y*x)",
            "--spec",
            spec_files["spec20"],
            "--state",
            "psi",
            "--order",
            "6",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == '{"moments":["0","2","0","8","0","40"]}\n'
    # determinism: a second run is byte-identical
    again = subprocess.run(
        [
            sys.executable,
            "-m",
            "cfree.cli",
            "moments",
            "--poly",
            "i*(x*y-y*x)",
            "--spec",
            spec_files["spec20"],
            "--state",
            "psi",
            "--order",
            "6",
        ],
        capture_output=True,
        text=True,
    )
    assert again.stdout == proc.stdout
