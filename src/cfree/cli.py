"""Command-line front end.

Subcommands map one-to-one onto the library: moments (distribution of a
polynomial under either state), cumulants (Boolean, free or c-free
sequences of a marginal), condexp (E or rqce of a word, or the corner
series of a linearized resolvent), denoise (L2 projection plus optional
weighted-state distributions), sigma (the multiplicative symbol and its
multiplicativity residual), partitions (debug enumerations), verify
(built-in self-check suites).

Output is deterministic: JSON with keys in fixed order and every
rational printed as a string; CSV is offered only for single scalar
series; the pretty format is for humans and not stable.  Exit codes:
0 success, 2 usage or parse error, 3 domain or resource-limit error,
4 internal invariant violation, or any other failure (memory or
recursion exhausted), reported on one line of stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .condexp import DEFAULT_GUARD, efree_rec, efree_resolvent, rqce, rqce_resolvent
from .cumulants import free_from_moments
from .denoise import distributions_of_poly, l2_project, weighted_state
from .engine import poly_distribution
from .errors import CFreeError, InternalError, ParseError
from .linearize import linearize
from .multiplicative import sigma_symbols
from .ncpoly import parse_poly
from .partitions import (
    enumerate_interval,
    enumerate_irreducible,
    enumerate_nc,
    enumerate_nc_colored,
)
from .selfcheck import SUITES
from .twostate import spec_from_json

__all__ = ["main"]


def _dump(payload):
    return json.dumps(payload, separators=(",", ":"))


def _strings(values):
    return [str(v) for v in values]


def _poly_terms(p):
    terms = p.terms
    return [[w, str(terms[w])] for w in p.words()]


def _load_spec(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError("cannot read spec file: %s" % exc) from None
    except UnicodeDecodeError as exc:
        raise ParseError("spec file is not UTF-8: %s" % exc) from None
    except json.JSONDecodeError as exc:
        raise ParseError("spec file is not valid JSON: %s" % exc) from None
    except ValueError:  # an integer with more digits than int() converts
        raise ParseError("spec file holds a number too long to read") from None
    except RecursionError:
        raise ParseError("spec file nests too deeply") from None
    return spec_from_json(data)


def _render_series(key, label, values, fmt):
    if fmt == "csv":
        lines = ["n,value"]
        lines.extend("%d,%s" % (n + 1, v) for n, v in enumerate(values))
        return "\n".join(lines)
    if fmt == "pretty":
        return "%s: %s" % (label, ", ".join(values) if values else "(empty)")
    return _dump({key: values})


# -- subcommand handlers ------------------------------------------------------


def _cmd_moments(args):
    spec = _load_spec(args.spec)
    seq = poly_distribution(spec, args.poly, args.state, args.order)
    values = _strings(seq.values)
    label = "%s moments of %s to order %d" % (args.state, args.poly, args.order)
    return 0, _render_series("moments", label, values, args.format)


def _cmd_cumulants(args):
    spec = _load_spec(args.spec)
    if args.kind == "boolean":
        seq = spec.boolean_cumulants(args.letter, args.state or "psi")
    elif args.state is not None:
        raise ParseError("--state applies only to Boolean cumulants")
    elif args.kind == "free":
        # kept: perfbench/test_tracing.py asserts cli.free_from_moments
        seq = free_from_moments(spec.marginal(args.letter, "psi"))
    else:
        seq = spec.cfree_cumulants(args.letter)
    values = _strings(seq.values)
    label = "%s cumulants of %s" % (seq.kind, args.letter)
    if args.format == "json":
        return 0, _dump({"kind": seq.kind, "values": values})
    return 0, _render_series("values", label, values, args.format)


def _cmd_condexp(args):
    spec = _load_spec(args.spec)
    if args.word is not None:
        if args.poly is not None:
            raise ParseError("--poly belongs to --resolvent mode")
        fn = efree_rec if args.state == "psi" else rqce
        result = fn(spec, args.word, guard=args.guard)
        return 0, _dump(
            {"source": result.source, "terms": _poly_terms(result.poly)}
        )
    if args.poly is None or args.order is None:
        raise ParseError("--resolvent needs both --poly and --order")
    lin = linearize(parse_poly(args.poly))
    fn = efree_resolvent if args.state == "psi" else rqce_resolvent
    corner = lin.corner(fn(spec, lin.a_coeffs, lin.b_coeffs, args.order))
    return 0, _dump(
        {"series": [_poly_terms(corner.coeff(k)) for k in range(args.order + 1)]}
    )


def _cmd_denoise(args):
    spec = _load_spec(args.spec)
    result = l2_project(spec, args.target, args.poly, args.degree)
    payload = {
        "coefficients": _strings(result.coefficients),
        "rank": result.rank,
        "residuals": _strings(result.residuals),
    }
    if args.weight is not None:
        if args.order is None:
            raise ParseError("--weight needs --order for the distributions")
        ws = weighted_state(
            spec.marginal("x", "psi"),
            spec.marginal("y", "psi"),
            args.weight,
            args.order,
        )
        deg = parse_poly(args.poly).degree()
        count = args.order // deg if deg > 0 else 0
        phi_m, psi_m = distributions_of_poly(ws, args.poly, count)
        payload["normalization"] = str(ws.normalization)
        payload["phi_moments"] = _strings(phi_m.values)
        payload["psi_moments"] = _strings(psi_m.values)
    return 0, _dump(payload)


def _cmd_sigma(args):
    spec = _load_spec(args.spec)
    s_x, s_y, s_xy = sigma_symbols(spec, args.order)
    residual = s_xy - s_x * s_y
    return 0, _dump(
        {
            "sigma_x": _strings(s_x.coeffs),
            "sigma_y": _strings(s_y.coeffs),
            "sigma_xy": _strings(s_xy.coeffs),
            "residual": _strings(residual.coeffs),
        }
    )


def _cmd_partitions(args):
    if args.enumerate == "colored":
        if args.colors is None:
            raise ParseError("--enumerate colored needs --colors")
        items = enumerate_nc_colored(args.colors)
    else:
        if args.n is None:
            raise ParseError("--enumerate %s needs --n" % args.enumerate)
        fn = {
            "nc": enumerate_nc,
            "interval": enumerate_interval,
            "irreducible": enumerate_irreducible,
        }[args.enumerate]
        items = fn(args.n)
    blocks = [[list(b) for b in p.blocks] for p in items]
    return 0, _dump({"count": len(blocks), "items": blocks})


def _cmd_verify(args):
    suite = SUITES.get(args.suite)
    if suite is None:
        raise ParseError(
            "unknown verify suite %r (choose from %s)"
            % (args.suite, ", ".join(sorted(SUITES)))
        )
    results = list(suite())
    failures = [message for ok, message in results if not ok]
    status = "pass" if not failures else "fail"
    text = _dump(
        {
            "suite": args.suite,
            "checks": len(results),
            "failures": failures,
            "status": status,
        }
    )
    return (0 if not failures else 4), text


# -- parser -------------------------------------------------------------------


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="cfree",
        description="exact distributions of polynomials in c-free variables",
    )
    sub = parser.add_subparsers(dest="command", metavar="subcommand")
    sub.required = True

    p = sub.add_parser(
        "moments", help="distribution of a polynomial under one state"
    )
    p.add_argument("--poly", required=True, help="polynomial in x and y")
    p.add_argument("--spec", required=True, help="two-state spec JSON file")
    p.add_argument("--state", choices=("psi", "phi"), default="psi")
    p.add_argument("--order", type=int, required=True)
    p.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="json"
    )
    p.set_defaults(handler=_cmd_moments)

    p = sub.add_parser("cumulants", help="cumulant sequence of a marginal")
    p.add_argument("--spec", required=True)
    p.add_argument("--letter", choices=("x", "y"), required=True)
    p.add_argument(
        "--kind", choices=("boolean", "free", "cfree"), required=True
    )
    p.add_argument(
        "--state",
        choices=("psi", "phi"),
        default=None,
        help="state for Boolean cumulants (default psi)",
    )
    p.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="json"
    )
    p.set_defaults(handler=_cmd_cumulants)

    p = sub.add_parser(
        "condexp",
        help="free or quasi-conditional expectation onto the x-algebra",
    )
    p.add_argument("--spec", required=True)
    p.add_argument(
        "--state",
        choices=("psi", "phi"),
        required=True,
        help="psi gives E, phi gives rqce",
    )
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--word", help="word over the letters x and y")
    mode.add_argument(
        "--resolvent",
        action="store_true",
        help="corner series of the linearized resolvent of --poly",
    )
    p.add_argument("--poly", help="polynomial for --resolvent mode")
    p.add_argument("--order", type=int, help="series order for --resolvent")
    p.add_argument(
        "--guard",
        type=int,
        default=DEFAULT_GUARD,
        help="raise the word-length guard",
    )
    p.set_defaults(handler=_cmd_condexp)

    p = sub.add_parser(
        "denoise", help="L2 projection of a signal polynomial onto P-powers"
    )
    p.add_argument("--poly", required=True, help="the observable P(x, y)")
    p.add_argument("--target", required=True, help="signal polynomial in x")
    p.add_argument("--degree", type=int, required=True)
    p.add_argument("--spec", required=True)
    p.add_argument("--weight", help="weight polynomial in x for the tilted state")
    p.add_argument(
        "--order",
        type=int,
        help="order of the weighted-state distributions (with --weight)",
    )
    p.set_defaults(handler=_cmd_denoise)

    p = sub.add_parser(
        "sigma", help="multiplicative symbols and their product residual"
    )
    p.add_argument("--spec", required=True)
    p.add_argument(
        "--order",
        type=int,
        required=True,
        help="symbol order; the spec must cover it",
    )
    p.set_defaults(handler=_cmd_sigma)

    p = sub.add_parser("partitions", help="debug partition enumerations")
    p.add_argument(
        "--enumerate",
        choices=("nc", "interval", "irreducible", "colored"),
        required=True,
    )
    p.add_argument("--n", type=int)
    p.add_argument("--colors", help="color word for --enumerate colored")
    p.set_defaults(handler=_cmd_partitions)

    p = sub.add_parser("verify", help="run a built-in self-check suite")
    p.add_argument("suite", help="one of: %s" % ", ".join(sorted(SUITES)))
    p.set_defaults(handler=_cmd_verify)

    return parser, sub.choices


_POLY_OPTIONS = ("--poly", "--target", "--weight")


def _option_named(token, options):
    """The option that token names, in full or by a unique prefix, or None."""
    if token in options:
        return token
    hits = [o for o in options if o.startswith(token)] if token[:2] == "--" else []
    return hits[0] if len(hits) == 1 else None


def _bind_poly_values(argv, commands):
    """Write each polynomial option and its value as one token, --poly=V.

    argparse would refuse a separate value such as "-x*y" or "--x" for an
    option, which may be abbreviated as argparse allows.  A next token
    that names an option of the subcommand, or the end-of-options marker
    "--", is left alone: the value is missing.
    """
    name = next((t for t in argv if t[:1] != "-"), None)
    # argparse resolves options and their prefixes through this table
    options = commands[name]._option_string_actions if name in commands else {}
    out = []
    for token in argv:
        if (
            out
            and _option_named(out[-1], options) in _POLY_OPTIONS
            and token != "--"
            and _option_named(token, options) is None
        ):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    try:
        parser, commands = _build_parser()
        args = parser.parse_args(_bind_poly_values(argv, commands))
    except SystemExit as exc:
        code = exc.code
        if code is None:
            return 0
        return code if isinstance(code, int) else 2
    try:
        for option in _POLY_OPTIONS:  # argparse stores --poly=-- as []
            if getattr(args, option[2:], None) == []:
                raise ParseError("argument %s: expected a polynomial" % option)
        code, text = args.handler(args)
    except CFreeError as exc:
        print("cfree: %s" % exc, file=sys.stderr)
        return exc.exit_code
    except Exception as exc:  # any other failure: one line, no traceback
        print("cfree: internal error: %r" % (exc,), file=sys.stderr)
        return InternalError.exit_code
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
