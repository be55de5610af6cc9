"""JSON wire formats.

Polynomial fragment: a list of [exponent, coefficient] pairs, exponents
nonnegative decimal integers in ascending order, coefficients written as
"num" or "num/den" in lowest terms, no zero coefficients.  The writers
return the pairs of a polynomial or a series as `Terms`; a series'
exponents and truncation order, ints in units of 1/ramification, are
written the same way.

Operator document: {"radix": b, "coefficients": [{"order": k, "terms":
<poly fragment>}, ...]} with omitted orders meaning zero.

Transcendence prefix: comma-separated coefficients, each read as an int
when it is integral and as a Fraction otherwise.

Newton document: both polygons, each edge with its slope, and nu, mu,
Q and N, all written from the ints of `newton`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .errors import ExponentOverflowError, InputFormatError
from .newton import PolygonEdge, lower_polygon, nu_ratio, ramification_bound, upper_polygon
from .operator import MahlerOperator
from .poly import MAX_EXPONENT, Poly, ratio_text
from .solver import PuiseuxSeries, SolutionBasis

_COEFF_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _parse_ratio(text) -> tuple[int, int]:
    """(numerator, positive denominator) of a coefficient in lowest terms."""
    if not isinstance(text, str) or not _COEFF_RE.fullmatch(text):
        raise InputFormatError(f"bad coefficient {text!r}")
    num, _, den = text.partition("/")
    try:
        n, d = int(num), int(den or 1)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        raise InputFormatError(f"{len(text)}-character coefficient has too many digits") from None
    if d == 0:
        raise InputFormatError(f"zero denominator in {text!r}")
    if math.gcd(n, d) != 1:
        raise InputFormatError(f"coefficient {text!r} is not in lowest terms")
    return n, d


def parse_prefix(text: str) -> list[int | Fraction]:
    """The entries of a comma-separated prefix, spaces around each one
    stripped: an int for an integral entry, else a Fraction."""
    prefix = []
    for token in text.split(","):
        n, d = _parse_ratio(token.strip(" "))
        prefix.append(n if d == 1 else Fraction(n, d))
    return prefix


class Terms(list):
    """The [exponent, coefficient] pairs of a polynomial or of a series:
    an int or str exponent and a str coefficient, every str written with
    ASCII digits, "-" and "/" only, so `cli._json` quotes it as it is."""

    __slots__ = ()


def poly_to_json(p: Poly) -> Terms:
    den = p.den
    return Terms([[e, ratio_text(c, den)] for e, c in p.nums])


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
    ram, den = elem.ramification, elem.den
    return {
        "terms": Terms([[ratio_text(e, ram), ratio_text(v, den)] for e, v in elem.nums]),
        "truncation_order": ratio_text(elem.truncation_order, ram),
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


def _edge_to_json(edge: PolygonEdge) -> dict:
    (u1, j1), (u2, j2) = edge.start, edge.end
    return {
        "from": [u1, j1],
        "to": [u2, j2],
        "slope": ratio_text(j2 - j1, u2 - u1),
        "admissible": edge.admissible,
    }


def newton_to_json(op: MahlerOperator) -> dict:
    """The Newton document of op; nu, mu, Q and N only for order >= 1 and
    a nonzero trailing coefficient."""
    lower = lower_polygon(op)
    doc = {
        "kind": "newton",
        "lower": [_edge_to_json(e) for e in lower],
        "upper": [_edge_to_json(e) for e in upper_polygon(op)],
    }
    if op.coefficient(0) and op.order >= 1:
        p, q = nu_ratio(op)
        q_set, n = ramification_bound(lower, op.radix)
        mu = p + op.coeffs[0].valuation * q
        doc.update(nu=ratio_text(p, q), mu=ratio_text(mu, q), Q=sorted(q_set), N=n)
    return doc
