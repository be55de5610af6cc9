"""Command-line front end.

Subcommands: newton, series, poly, rational, puiseux, normalize, gcrd,
transcendence.  Input operators are JSON documents (path or "-" for
stdin); results go to stdout as JSON (default) or text.  Exit codes:
0 ok, 2 malformed input, 3 unsupported equation, 4 exponent overflow,
5 internal invariant violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import errors as E
from .errors import (
    ExponentOverflowError,
    InputFormatError,
    InternalInvariantError,
    MahlerError,
    UnsupportedEquationError,
)
from .newton import lower_polygon, mu_nu, ramification_bound, upper_polygon
from .normalize import certify_gcrd, gcrd_raw, normalize_l0_raw
from .operator import MahlerOperator, primitive_part
from .poly import format_terms
from .rational import bell_coons_test, rational_basis, transcendence_test
from .serialize import (
    basis_to_json,
    edge_to_json,
    operator_to_json,
    parse_fraction,
    parse_operator,
    poly_to_json,
)
from .solver import (
    certify,
    polynomial_basis,
    puiseux_basis,
    puiseux_basis_all,
    series_basis,
)


def _load_operator(path: str) -> MahlerOperator:
    """The operator on stdin for "-", else in a file, read as strict UTF-8
    by plain `os.read` calls, not through the io layer's objects."""
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            fd, data = os.open(path, os.O_RDONLY), b""
            try:
                while chunk := os.read(fd, 1 << 16):
                    data += chunk
            finally:
                os.close(fd)
            text = data.decode()
        doc = json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    return parse_operator(doc)


def _basis_text(doc: dict) -> str:
    lines = [f"{doc['kind']} (dimension {doc['dimension']})"]
    if doc.get("note"):
        lines.append(f"note: {doc['note']}")
    for i, elem in enumerate(doc.get("elements", []), start=1):
        if "numerator" in elem:
            num = format_terms(elem["numerator"])
            den = format_terms(elem["denominator"])
            pole = f" / x^{elem['x_power']}" if elem["x_power"] else ""
            body = f"({num}) / ({den}){pole}"
            if "ramification" in elem and elem["ramification"] != 1:
                body += f"  in x^(1/{elem['ramification']})"
        else:
            body = format_terms(elem["terms"])
            if "truncation_order" in elem:
                order = elem["truncation_order"]
                if "/" in order or order.startswith("-"):
                    order = f"({order})"
                body += f" + O(x^{order})"
        lines.append(f"[{i}] {body}")
    return "\n".join(lines)


def _basis_doc(op, basis, certified: bool) -> dict:
    """The basis document; with `certified`, every element also carries
    its certificate from `certify`."""
    doc = basis_to_json(basis)
    if certified:
        for order, edoc in zip(certify(op, basis), doc["elements"]):
            if order is None:
                edoc["certified"] = True
            else:
                edoc["certified_order"] = str(order)
    return doc


def _cmd_newton(args) -> dict:
    op = _load_operator(args.file)
    lower = lower_polygon(op)
    doc = {
        "kind": "newton",
        "lower": [edge_to_json(e) for e in lower],
        "upper": [edge_to_json(e) for e in upper_polygon(op)],
    }
    if op.coefficient(0) and op.order >= 1:
        nu, mu = mu_nu(op)
        q_set, n = ramification_bound(lower, op.radix)
        doc.update(nu=str(nu), mu=str(mu), Q=sorted(q_set), N=n)
    return doc


def _cmd_series(args) -> dict:
    op = _load_operator(args.file)
    basis = series_basis(op, args.order, auto_normalize=args.auto_normalize)
    return _basis_doc(op, basis, args.certify)


def _cmd_poly(args) -> dict:
    op = _load_operator(args.file)
    basis = polynomial_basis(op, auto_normalize=args.auto_normalize)
    return _basis_doc(op, basis, args.certify)


def _cmd_rational(args) -> dict:
    op = _load_operator(args.file)
    basis = rational_basis(op, auto_normalize=args.auto_normalize)
    return _basis_doc(op, basis, args.certify)


def _cmd_puiseux(args) -> dict:
    op = _load_operator(args.file)
    if args.ramification is not None:
        basis = puiseux_basis(op, args.ramification, args.order)
    else:
        basis = puiseux_basis_all(op, args.order)
    return _basis_doc(op, basis, args.certify)


def _cmd_normalize(args) -> dict:
    op = _load_operator(args.file)
    content, primitive = primitive_part(normalize_l0_raw(op))
    doc = operator_to_json(primitive)
    doc["kind"] = "normalized_operator"
    doc["content"] = poly_to_json(content)
    return doc


def _cmd_gcrd(args) -> dict:
    ops = [_load_operator(path) for path in args.files]
    raw = gcrd_raw(ops)
    content, primitive = primitive_part(raw)
    if args.certify:
        certify_gcrd(ops, primitive)
    doc = operator_to_json(primitive)
    doc["kind"] = "gcrd"
    doc["content"] = poly_to_json(content)
    return doc


def _cmd_transcendence(args) -> dict:
    op = _load_operator(args.file)
    prefix = [parse_fraction(tok.strip()) for tok in args.initial.split(",")]
    test = bell_coons_test if args.oracle == "bell-coons" else transcendence_test
    verdict = test(op, prefix)
    doc = {
        "kind": "transcendence",
        "method": verdict.method,
        "verdict": verdict.verdict,
        "witness": None,
    }
    if verdict.witness is not None:
        doc["witness"] = {
            "numerator": poly_to_json(verdict.witness.numerator),
            "x_power": verdict.witness.x_power,
            "denominator": poly_to_json(verdict.witness.denominator),
        }
    return doc


_enc = json.encoder.encode_basestring_ascii


def _json(value, indent: str = "") -> str:
    """What `json.dumps` writes with an indent of 2, byte for byte, for the
    values the CLI renders: dicts with str keys, lists, strs, ints, bools
    and None.  A list of [str, str] or [int, str] pairs (the terms of a
    series or of a polynomial) is written with one f-string per pair: the
    indenting encoder makes several generator steps per item."""
    if type(value) is str:
        return _enc(value)
    if not isinstance(value, (dict, list)) or not value:
        return json.dumps(value)
    inner = indent + "  "
    if isinstance(value, dict):
        body = f",\n{inner}".join([f"{_enc(k)}: {_json(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
    if all(
        type(p) is list and len(p) == 2 and type(p[0]) in (str, int) and type(p[1]) is str
        for p in value
    ):
        deeper = inner + "  "
        body = f"\n{inner}],\n{inner}[\n{deeper}".join(
            [f"{_enc(a) if type(a) is str else a},\n{deeper}{_enc(b)}" for a, b in value]
        )
        return f"[\n{inner}[\n{deeper}{body}\n{inner}]\n{indent}]"
    body = f",\n{inner}".join([_json(v, inner) for v in value])
    return f"[\n{inner}{body}\n{indent}]"


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return _json(doc)
    if doc.get("kind") == "newton":
        lines = ["lower polygon:"]
        lines += [
            f"  {e['from']} -> {e['to']}  slope {e['slope']}"
            f"  {'admissible' if e['admissible'] else 'not admissible'}"
            for e in doc["lower"]
        ]
        lines.append("upper polygon:")
        lines += [
            f"  {e['from']} -> {e['to']}  slope {e['slope']}"
            f"  {'admissible' if e['admissible'] else 'not admissible'}"
            for e in doc["upper"]
        ]
        if "nu" in doc:
            lines.append(f"nu = {doc['nu']}, mu = {doc['mu']}, Q = {doc['Q']}, N = {doc['N']}")
        return "\n".join(lines)
    if doc.get("kind") in ("normalized_operator", "gcrd"):
        lines = [f"{doc['kind']}:"]
        for entry in doc["coefficients"]:
            lines.append(f"  M^{entry['order']}: {format_terms(entry['terms'])}")
        lines.append(f"content: {format_terms(doc['content'])}")
        return "\n".join(lines)
    if doc.get("kind") == "transcendence":
        line = f"{doc['verdict']} (method: {doc['method']})"
        if doc.get("witness"):
            w = doc["witness"]
            num = format_terms(w["numerator"])
            den = format_terms(w["denominator"])
            pole = f" / x^{w['x_power']}" if w["x_power"] else ""
            line += f"; witness ({num}) / ({den}){pole}"
        return line
    return _basis_text(doc)


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahlersolve",
        description="Solve linear Mahler equations exactly over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser, for `_parse`

    def common(p, certify=True):
        p.add_argument("--format", choices=("json", "text"), default="json")
        if certify:
            p.add_argument("--certify", action="store_true")

    p = sub.add_parser("newton", help="Newton polygons and ramification data")
    p.add_argument("file")
    common(p, certify=False)
    p.set_defaults(handler=_cmd_newton)

    p = sub.add_parser("series", help="truncated power-series solution basis")
    p.add_argument("file")
    p.add_argument("--order", type=_int_at_least(0), required=True)
    p.add_argument(
        "--auto-normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    common(p)
    p.set_defaults(handler=_cmd_series)

    p = sub.add_parser("poly", help="polynomial solution basis")
    p.add_argument("file")
    p.add_argument(
        "--auto-normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    common(p)
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("rational", help="rational-function solution basis")
    p.add_argument("file")
    p.add_argument(
        "--auto-normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
    )
    common(p)
    p.set_defaults(handler=_cmd_rational)

    p = sub.add_parser("puiseux", help="ramified (Puiseux) solution basis")
    p.add_argument("file")
    p.add_argument("--order", type=_int_at_least(0), required=True)
    p.add_argument("--ramification", type=_int_at_least(1), default=None)
    common(p)
    p.set_defaults(handler=_cmd_puiseux)

    p = sub.add_parser("normalize", help="equivalent equation with nonzero trailing coefficient")
    p.add_argument("file")
    common(p, certify=False)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("gcrd", help="greatest common right divisor of operators")
    p.add_argument("files", nargs="+")
    common(p)
    p.set_defaults(handler=_cmd_gcrd)

    p = sub.add_parser("transcendence", help="rational-or-transcendental test")
    p.add_argument("file")
    p.add_argument("--initial", required=True, help="comma-separated coefficients")
    p.add_argument("--oracle", choices=("rational-basis", "bell-coons"), default="rational-basis")
    common(p, certify=False)
    p.set_defaults(handler=_cmd_transcendence)

    return parser


def _exit_code(exc: MahlerError) -> int:
    if isinstance(exc, InternalInvariantError):
        return E.EXIT_INTERNAL
    if isinstance(exc, ExponentOverflowError):
        return E.EXIT_OVERFLOW
    if isinstance(exc, UnsupportedEquationError):
        return E.EXIT_UNSUPPORTED
    return E.EXIT_BAD_INPUT


def _parse(argv: list[str]) -> argparse.Namespace:
    """`build_parser().parse_args(argv)`, with the same output and exits,
    but a known subcommand's arguments go straight to its own parser."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:])
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    fmt = getattr(args, "format", "json")
    try:
        doc = args.handler(args)
    except MahlerError as exc:
        code = _exit_code(exc)
        if fmt == "json":
            json.dump({"error": code, "message": str(exc)}, sys.stderr)
            sys.stderr.write("\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return code
    print(_render(doc, fmt))
    return 0


if __name__ == "__main__":
    sys.exit(main())
