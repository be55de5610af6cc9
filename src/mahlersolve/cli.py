"""Command-line front end.

Subcommands: newton, series, poly, rational, puiseux, normalize, gcrd,
transcendence.  Input operators are JSON documents (path or "-" for
stdin); results go to stdout as JSON (default) or text.  The exit code
is 0, or the error class's `exit_code`: 2 malformed input, 3
unsupported equation, 4 exponent overflow, 5 internal invariant violation.

`build_parser` declares each subcommand once; the four basis
subcommands share the handler `_cmd_basis` and name their solver as
`solve`.  `_render` writes a handler's document: `_json`, or one text
renderer per kind of document.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import InputFormatError, MahlerError
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
    rational_to_json,
)
from .solver import (
    certify,
    polynomial_basis,
    puiseux_basis,
    puiseux_basis_all,
    series_basis,
)


def _load_operator(path: str) -> MahlerOperator:
    """The operator on stdin for "-", else in a file, read as bytes and
    decoded as strict UTF-8; a file is read by plain `os.read` calls, not
    through the io layer's objects."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            fd, data = os.open(path, os.O_RDONLY), b""
            try:
                while chunk := os.read(fd, 1 << 16):
                    data += chunk
            finally:
                os.close(fd)
        doc = json.loads(data.decode())
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    return parse_operator(doc)


def _rational_text(doc: dict) -> str:
    num = format_terms(doc["numerator"])
    den = format_terms(doc["denominator"])
    pole = f" / x^{doc['x_power']}" if doc["x_power"] else ""
    return f"({num}) / ({den}){pole}"


def _basis_text(doc: dict) -> str:
    lines = [f"{doc['kind']} (dimension {doc['dimension']})"]
    if doc.get("note"):
        lines.append(f"note: {doc['note']}")
    for i, elem in enumerate(doc.get("elements", []), start=1):
        if "numerator" in elem:
            body = _rational_text(elem)
        else:
            body = format_terms(elem["terms"])
            if "truncation_order" in elem:
                order = elem["truncation_order"]
                if "/" in order or order.startswith("-"):
                    order = f"({order})"
                body += f" + O(x^{order})"
        lines.append(f"[{i}] {body}")
    return "\n".join(lines)


def _cmd_basis(args) -> dict:
    """The basis document of `args.solve`, the subcommand's solver; with
    --certify, every element also carries its certificate from `certify`."""
    op = _load_operator(args.file)
    basis = args.solve(op, args)
    doc = basis_to_json(basis)
    if args.certify:
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


def _operator_doc(kind: str, content, primitive: MahlerOperator) -> dict:
    """The document of an operator, content times primitive part."""
    return {**operator_to_json(primitive), "kind": kind, "content": poly_to_json(content)}


def _cmd_normalize(args) -> dict:
    op = _load_operator(args.file)
    return _operator_doc("normalized_operator", *primitive_part(normalize_l0_raw(op)))


def _cmd_gcrd(args) -> dict:
    ops = [_load_operator(path) for path in args.files]
    content, primitive = primitive_part(gcrd_raw(ops))
    if args.certify:
        certify_gcrd(ops, primitive)
    return _operator_doc("gcrd", content, primitive)


def _cmd_transcendence(args) -> dict:
    op = _load_operator(args.file)
    prefix = [parse_fraction(tok.strip()) for tok in args.initial.split(",")]
    test = bell_coons_test if args.oracle == "bell-coons" else transcendence_test
    verdict = test(op, prefix)
    return {
        "kind": "transcendence",
        "method": verdict.method,
        "verdict": verdict.verdict,
        "witness": None if verdict.witness is None else rational_to_json(verdict.witness),
    }


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
        lines = []
        for side in ("lower", "upper"):
            lines.append(f"{side} polygon:")
            lines += [
                f"  {e['from']} -> {e['to']}  slope {e['slope']}"
                f"  {'admissible' if e['admissible'] else 'not admissible'}"
                for e in doc[side]
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
            line += f"; witness {_rational_text(doc['witness'])}"
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
    order = ("--order", dict(type=_int_at_least(0), required=True))
    auto = ("--auto-normalize", dict(action=argparse.BooleanOptionalAction, default=True))

    def command(name, help, handler, *options, operand=("file", {}), certify=True, **defaults):
        """The subparser `name`: its operand, `options`, both as (name,
        keywords) pairs, --format, and --certify unless `certify` is off."""
        p = sub.add_parser(name, help=help)
        for flag, keywords in (operand, *options):
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if certify:
            p.add_argument("--certify", action="store_true")
        p.set_defaults(handler=handler, **defaults)

    # each solver is looked up when called, so replacing it in this module
    # (a trace wrapper, a test's monkeypatch) takes effect
    command("newton", "Newton polygons and ramification data", _cmd_newton, certify=False)
    command(
        "series", "truncated power-series solution basis", _cmd_basis, order, auto,
        solve=lambda op, a: series_basis(op, a.order, auto_normalize=a.auto_normalize),
    )
    command(
        "poly", "polynomial solution basis", _cmd_basis, auto,
        solve=lambda op, a: polynomial_basis(op, auto_normalize=a.auto_normalize),
    )
    command(
        "rational", "rational-function solution basis", _cmd_basis, auto,
        solve=lambda op, a: rational_basis(op, auto_normalize=a.auto_normalize),
    )
    command(
        "puiseux", "ramified (Puiseux) solution basis", _cmd_basis, order,
        ("--ramification", dict(type=_int_at_least(1), default=None)),
        solve=lambda op, a: (
            puiseux_basis_all(op, a.order)
            if a.ramification is None
            else puiseux_basis(op, a.ramification, a.order)
        ),
    )
    command(
        "normalize", "equivalent equation with nonzero trailing coefficient", _cmd_normalize,
        certify=False,
    )
    command(
        "gcrd", "greatest common right divisor of operators", _cmd_gcrd,
        operand=("files", dict(nargs="+")),
    )
    command(
        "transcendence", "rational-or-transcendental test", _cmd_transcendence,
        ("--initial", dict(required=True, help="comma-separated coefficients")),
        ("--oracle", dict(choices=("rational-basis", "bell-coons"), default="rational-basis")),
        certify=False,
    )
    return parser


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
    try:
        doc = args.handler(args)
    except MahlerError as exc:
        if args.format == "json":
            json.dump({"error": exc.exit_code, "message": str(exc)}, sys.stderr)
            sys.stderr.write("\n")
        else:
            sys.stderr.write(f"error: {exc}\n")
        return exc.exit_code
    print(_render(doc, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
