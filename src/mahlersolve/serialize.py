"""JSON wire formats.

Polynomial fragment: a list of [exponent, coefficient] pairs, exponents
nonnegative decimal integers in ascending order, coefficients written as
"num" or "num/den" in lowest terms, no zero coefficients.

Operator document: {"radix": b, "coefficients": [{"order": k, "terms":
<poly fragment>}, ...]} with omitted orders meaning zero.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ExponentOverflowError, InputFormatError
from .newton import PolygonEdge
from .operator import MahlerOperator
from .poly import MAX_EXPONENT, Poly
from .solver import PuiseuxSeries, SolutionBasis

_COEFF_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def _parse_ratio(text) -> tuple[int, int]:
    """(numerator, positive denominator) of a coefficient in lowest terms."""
    if not isinstance(text, str) or not _COEFF_RE.match(text):
        raise InputFormatError(f"bad coefficient {text!r}")
    num, _, den = text.partition("/")
    if not den:
        return int(num), 1
    n, d = int(num), int(den)
    if d == 0:
        raise InputFormatError(f"zero denominator in {text!r}")
    if math.gcd(n, d) != 1:
        raise InputFormatError(f"coefficient {text!r} is not in lowest terms")
    return n, d


def parse_fraction(text) -> Fraction:
    return Fraction(*_parse_ratio(text))


def _ratio(num: int, den: int) -> str:
    """str(Fraction(num, den)) for a positive den, without the Fraction."""
    if den == 1:
        return str(num)
    g = math.gcd(num, den)
    if g == den:
        return str(num // g)
    return f"{num // g}/{den // g}"


def poly_to_json(p: Poly) -> list:
    den = p.den
    return [[e, _ratio(c, den)] for e, c in p.nums]


def parse_poly(doc) -> Poly:
    if not isinstance(doc, list):
        raise InputFormatError("polynomial must be a list of [exponent, coefficient]")
    terms = []  # (exponent, numerator, denominator)
    last = -1
    for item in doc:
        if not isinstance(item, list) or len(item) != 2:
            raise InputFormatError(f"bad polynomial term {item!r}")
        e, c = item
        if not isinstance(e, int) or isinstance(e, bool) or e < 0:
            raise InputFormatError(f"bad exponent {e!r}")
        if e > MAX_EXPONENT:
            raise ExponentOverflowError(f"exponent {e} exceeds {MAX_EXPONENT}")
        if e <= last:
            raise InputFormatError("exponents must be strictly ascending")
        last = e
        n, d = _parse_ratio(c)
        if not n:
            raise InputFormatError("zero coefficients must be omitted")
        terms.append((e, n, d))
    den = math.lcm(*(d for _, _, d in terms))
    return Poly.from_integers(den, [(e, n * (den // d)) for e, n, d in terms])


def operator_to_json(op: MahlerOperator) -> dict:
    return {
        "radix": op.radix,
        "coefficients": [
            {"order": k, "terms": poly_to_json(c)}
            for k, c in op.nonzero_coefficients()
        ],
    }


def parse_operator(doc) -> MahlerOperator:
    if not isinstance(doc, dict):
        raise InputFormatError("operator document must be an object")
    radix = doc.get("radix")
    if not isinstance(radix, int) or isinstance(radix, bool) or radix < 2:
        raise InputFormatError(f"bad radix {radix!r}")
    entries = doc.get("coefficients")
    if not isinstance(entries, list):
        raise InputFormatError("missing coefficient list")
    coeffs: dict[int, Poly] = {}
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise InputFormatError(f"bad coefficient entry {entry!r}")
        k = entry.get("order")
        if not isinstance(k, int) or isinstance(k, bool) or k < 0:
            raise InputFormatError(f"bad order {k!r}")
        if k in seen:
            raise InputFormatError(f"duplicate order {k}")
        seen.add(k)
        p = parse_poly(entry.get("terms"))
        if p:
            coeffs[k] = p
    return MahlerOperator.from_dict(radix, coeffs)


def _series_element_to_json(elem: PuiseuxSeries) -> dict:
    scale, den = elem.scale, elem.den
    return {
        "terms": [[_ratio(e, scale), _ratio(v, den)] for e, v in elem.nums],
        "truncation_order": str(elem.truncation_order),
    }


def rational_to_json(f) -> dict:
    """A RationalFunction numerator / (x^x_power denominator)."""
    return {
        "numerator": poly_to_json(f.numerator),
        "x_power": f.x_power,
        "denominator": poly_to_json(f.denominator),
    }


def basis_to_json(basis: SolutionBasis) -> dict:
    doc: dict = {"kind": basis.kind, "dimension": basis.dimension}
    if basis.note:
        doc["note"] = basis.note
    if basis.kind == "rational_basis":
        doc["elements"] = [rational_to_json(f) for f in basis.elements]
        return doc
    if basis.kind == "ramified_rational_basis":
        doc["elements"] = [
            {"ramification": f.ramification, **rational_to_json(f.function)}
            for f in basis.elements
        ]
        return doc
    if basis.kind == "polynomial_basis":
        doc["elements"] = [{"terms": poly_to_json(p)} for p in basis.elements]
        return doc
    doc["ramification"] = max((e.ramification for e in basis.elements), default=1)
    doc["elements"] = [_series_element_to_json(e) for e in basis.elements]
    return doc


def edge_to_json(edge: PolygonEdge) -> dict:
    return {
        "from": list(edge.start),
        "to": list(edge.end),
        "slope": str(edge.slope),
        "admissible": edge.admissible,
    }
