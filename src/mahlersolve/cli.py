"""Command-line front end.

Subcommands: newton, series, poly, rational, puiseux, normalize, gcrd,
transcendence.  Input operators are JSON documents (path or "-" for
stdin); results go to stdout as JSON (default) or text.  The exit code
is 0, or the error class's `exit_code`: 2 malformed input, 3
unsupported equation, 4 exponent overflow, 5 internal invariant violation.

`build_parser` declares each subcommand once, in argparse; the four
basis subcommands share the handler `_cmd_basis` and name their solver
as `solve`.  `_parse` reads plain exact tokens with a reader built from
a subcommand's actions and leaves help, abbreviations and errors to
argparse.  `_render` writes a handler's document: `_json`, which writes
a `Terms` in one step, or one text renderer per kind of document.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from .errors import InputFormatError, MahlerError
from .normalize import certify_gcrd, gcrd, normalize_l0
from .operator import MahlerOperator
from .poly import format_terms
from .rational import bell_coons_test, rational_basis, transcendence_test
from .serialize import (
    Terms,
    basis_to_json,
    newton_to_json,
    operator_to_json,
    parse_operator,
    parse_prefix,
    poly_to_json,
    rational_to_json,
)
from .solver import certify, polynomial_basis, puiseux_basis, series_basis

_READ_DIGITS = sys.get_int_max_str_digits()  # the interpreter's, for what is read


class _max_str_digits:
    """Python's limit on int <-> str digits set to `limit` (0: none) in a
    `with` block, and put back however the block ends.  `main` lifts it,
    since an exact answer may have more digits than its input; what is
    read from outside is read under `_READ_DIGITS`, since int() of a
    10^6-digit string takes seconds."""

    __slots__ = ("limit", "saved")

    def __init__(self, limit: int):
        self.limit = limit

    def __enter__(self) -> None:
        self.saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(self.limit)

    def __exit__(self, *exc) -> None:
        sys.set_int_max_str_digits(self.saved)


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
        with _max_str_digits(_READ_DIGITS):
            return parse_operator(json.loads(data.decode()))
    except (OSError, ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


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
    return newton_to_json(_load_operator(args.file))


def _operator_doc(kind: str, content, primitive: MahlerOperator) -> dict:
    """The document of an operator, content times primitive part."""
    return {**operator_to_json(primitive), "kind": kind, "content": poly_to_json(content)}


def _cmd_normalize(args) -> dict:
    op = _load_operator(args.file)
    return _operator_doc("normalized_operator", *normalize_l0(op))


def _cmd_gcrd(args) -> dict:
    ops = [_load_operator(path) for path in args.files]
    content, primitive = gcrd(ops)
    if args.certify:
        certify_gcrd(ops, primitive)
    return _operator_doc("gcrd", content, primitive)


def _cmd_transcendence(args) -> dict:
    op = _load_operator(args.file)
    with _max_str_digits(_READ_DIGITS):
        prefix = parse_prefix(args.initial)
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
    values the CLI renders (dicts with str keys, lists, strs, ints, bools
    and None), written without `json.dumps`.  A `Terms` is written with one
    f-string per pair, its strings quoted as they are: they hold only
    ASCII digits, "-" and "/"."""
    kind = type(value)
    if kind is str:
        return _enc(value)
    if kind is int:
        return str(value)
    if value is None or kind is bool:
        return "null" if value is None else "true" if value else "false"
    if not value:
        return "{}" if kind is dict else "[]"
    inner = indent + "  "
    if kind is Terms:
        deep = inner + "  "
        body = f"\n{inner}],\n{inner}[\n{deep}".join(
            [f'"{a}",\n{deep}"{b}"' if type(a) is str else f'{a},\n{deep}"{b}"' for a, b in value]
        )
        return f"[\n{inner}[\n{deep}{body}\n{inner}]\n{indent}]"
    if kind is dict:
        body = f",\n{inner}".join([f"{_enc(k)}: {_json(v, inner)}" for k, v in value.items()])
        return f"{{\n{inner}{body}\n{indent}}}"
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


def _token_reader(parser: argparse.ArgumentParser):
    """A reader, from `parser`'s own actions, of exact option strings and
    --option=value for store and store_true actions, with type, choices
    and required options, and one contiguous run of operands.  It
    returns the Namespace of `parser.parse_known_args`, or None for anything
    else (-h, abbreviations, "-", "--", a value that starts with "-", a bad
    value, a leftover), which argparse then parses or rejects."""
    defaults, options, required = {**parser._defaults}, {}, set()
    stores = (argparse._StoreAction, argparse._StoreTrueAction)
    for action in parser._actions:
        if action.dest != argparse.SUPPRESS and action.default != argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if not action.option_strings:
            operand = action  # each subparser has one, nargs None or "+"
        elif action.required:
            required.add(action)
        if type(action) in stores and not action.nargs:
            for flag in action.option_strings:
                options[flag] = (action, action.const)  # None: takes one value

    def read(tokens: list[str]):
        values, seen, operands, after = dict(defaults), set(), [], False
        tokens = iter(tokens)
        for token in tokens:
            if token[:1] != "-":
                if after:  # operands split by an option
                    return None
                operands.append(token)
                continue
            after = bool(operands)
            flag, eq, text = token.partition("=")
            action, value = options.get(flag, (None, None))
            if action is None or eq and value is not None:
                return None
            if value is None:
                if not eq and (text := next(tokens, "-"))[:1] == "-":  # none, or "-..."
                    return None
                try:
                    value = action.type(text) if action.type else text
                except (argparse.ArgumentTypeError, TypeError, ValueError):
                    return None
                if action.choices is not None and value not in action.choices:
                    return None
            values[action.dest] = value
            seen.add(action)
        if not operands or (operand.nargs is None and len(operands) > 1) or required - seen:
            return None
        values[operand.dest] = operands if operand.nargs else operands[0]
        return argparse.Namespace(**values)

    return read


_NEGATIVE_VALUE = re.compile(r"-\d")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahlersolve",
        description="Solve linear Mahler equations exactly over the rationals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices  # subcommand name -> its parser, for `_parse`
    order = ("--order", dict(type=_int_at_least(0), required=True))

    def command(name, help, handler, *options, operand=("file", {}), certify=True, **defaults):
        """The subparser `name`: its operand, `options`, both as (name,
        keywords) pairs, --format, and --certify unless `certify` is off;
        its `read_tokens` is the `_token_reader` of its actions."""
        p = sub.add_parser(name, help=help)
        # "-" and a digit starts a value, never an option: argparse's own
        # pattern takes "-1" and "-0.5" but not "-1,0,0" or "-3/2"
        p._negative_number_matcher = _NEGATIVE_VALUE
        for flag, keywords in (operand, *options):
            p.add_argument(flag, **keywords)
        p.add_argument("--format", choices=("json", "text"), default="json")
        if certify:
            p.add_argument("--certify", action="store_true")
        p.set_defaults(handler=handler, **defaults)
        p.read_tokens = _token_reader(p)

    # each solver is looked up when called, so replacing it in this module
    # (a trace wrapper, a test's monkeypatch) takes effect
    command("newton", "Newton polygons and ramification data", _cmd_newton, certify=False)
    command(
        "series", "truncated power-series solution basis", _cmd_basis, order,
        solve=lambda op, a: series_basis(op, a.order),
    )
    command(
        "poly", "polynomial solution basis", _cmd_basis, solve=lambda op, a: polynomial_basis(op)
    )
    command(
        "rational", "rational-function solution basis", _cmd_basis,
        solve=lambda op, a: rational_basis(op),
    )
    command(
        "puiseux", "ramified (Puiseux) solution basis", _cmd_basis, order,
        ("--ramification", dict(type=_int_at_least(1), default=None)),
        solve=lambda op, a: puiseux_basis(op, a.ramification, a.order),
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
    but a known subcommand's arguments go straight to its own parser:
    first to its exact-token reader, and to argparse when that reader
    returns None."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args = sub.read_tokens(argv[1:])
    if args is None:
        args, extras = sub.parse_known_args(argv[1:])
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    args.command = argv[0]
    return args


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    with _max_str_digits(0):  # the handlers read under _READ_DIGITS
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
