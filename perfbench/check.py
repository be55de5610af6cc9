"""Re-check of the program's answers, outside the timed region.

Series and Puiseux bases are checked with the residual certificate:
the operator applied to the truncation has no term below the certified
order.  Their truncation order must be the one requested, and a basis
must have at least the dimension known from the operator's construction,
with nonzero, linearly independent elements.  Polynomial, rational and
gcrd answers, and transcendence witnesses, are substituted back into the
equation.  All arithmetic is done by `exact.py`, not by mahlersolve.
"""

from __future__ import annotations

import json
from fractions import Fraction

from exact import (
    apply_poly,
    independent,
    kills_rational,
    residual_order,
    right_remainder,
    series_quotient,
)


def _number(text: str):
    """An exact number from its JSON string; int when integral, which keeps
    the re-check of long series fast."""
    return Fraction(text) if "/" in text else int(text)


def _poly(terms) -> dict:
    return {int(e): _number(c) for e, c in terms}


def _operator(doc) -> list:
    order = max((entry["order"] for entry in doc["coefficients"]), default=0)
    op = [{} for _ in range(order + 1)]
    for entry in doc["coefficients"]:
        op[entry["order"]] = _poly(entry["terms"])
    return op


def _basis_shape(doc, min_dim: int, rows: list) -> str:
    if doc["dimension"] != len(doc["elements"]):
        return "dimension does not match the element count"
    if doc["dimension"] < min_dim:
        return f"dimension {doc['dimension']} is below the known {min_dim}"
    if not independent(rows):
        return "elements are zero or linearly dependent"
    return ""


def _truncation(order: int, ramification, truncation: Fraction) -> str:
    """`series --order N` truncates at N + 1; `puiseux --order N` at
    N + 1/n for the ramification n, which `ramification` gives when the
    operator's construction fixes it (0 when it does not)."""
    if ramification is None:
        expected = Fraction(order + 1)
    elif ramification:
        expected = order + Fraction(1, ramification)
    else:
        step = truncation - order
        expected = truncation if 0 < step <= 1 and step.numerator == 1 else None
    if truncation != expected:
        return f"truncated at {truncation}, not at the requested order {order}"
    return ""


def _series(radix, op, doc, order, min_dim, ramification) -> str:
    elements = [
        ([(_number(e), _number(c)) for e, c in elem["terms"]], Fraction(elem["truncation_order"]))
        for elem in doc["elements"]
    ]
    err = _basis_shape(doc, min_dim, [dict(terms) for terms, _ in elements])
    if err:
        return err
    for (terms, truncation), elem in zip(elements, doc["elements"]):
        err = _truncation(order, ramification, truncation)
        if err:
            return err
        low, bound = residual_order(radix, op, terms, truncation)
        if low is not None:
            return f"residual term x^{low} below the certified order {bound}"
        if "certified_order" in elem and Fraction(elem["certified_order"]) != bound:
            return f"certified order {elem['certified_order']} is not {bound}"
    return ""


def _poly_basis(radix, op, doc, min_dim) -> str:
    elements = [_poly(elem["terms"]) for elem in doc["elements"]]
    err = _basis_shape(doc, min_dim, elements)
    if not err and any(apply_poly(radix, op, p) for p in elements):
        err = "polynomial element does not solve the equation"
    return err


def _rational(radix, op, doc) -> str:
    if not doc["elements"]:
        return "the known rational solution is missing"
    for elem in doc["elements"]:
        num, den = _poly(elem["numerator"]), _poly(elem["denominator"])
        if not kills_rational(radix, op, num, elem["x_power"], den):
            return "rational element does not solve the equation"
    return ""


def _normalize(op_in, op_out) -> str:
    if not op_out[0]:
        return "normalized operator has a zero trailing coefficient"
    if len(op_out) > len(op_in):
        return "normalized operator has a larger order"
    return ""


def _gcrd(radix, members, common, g) -> str:
    for member in members:
        if right_remainder(radix, member, g):
            return "gcrd does not right-divide a member"
    if right_remainder(radix, g, common):
        return "the planted common right factor does not divide the gcrd"
    return ""


def _transcendence(radix, op, prefix, doc) -> str:
    witness = doc.get("witness")
    if doc["verdict"] == "rational" and doc["method"] == "rational-basis":
        num, den = _poly(witness["numerator"]), _poly(witness["denominator"])
        if not kills_rational(radix, op, num, witness["x_power"], den):
            return "witness does not solve the equation"
        if witness["x_power"] or series_quotient(num, den, len(prefix)) != prefix:
            return "witness does not expand to the prefix"
    return ""


def verify(corpus, outputs: dict) -> dict:
    """Map each request label to an error message ("" when it checks).

    `outputs` maps labels to (exit code, path of the stdout file); the
    files are read one at a time."""
    errors = {}
    verdicts: dict = {}
    for req in corpus.requests:
        code, path = outputs[req.label]
        if code != 0:
            errors[req.label] = f"exit code {code}"
            continue
        with open(path) as fh:
            doc = json.load(fh)
        kind = req.check[0]
        radix, op = corpus.operators[req.check[1] if kind != "gcrd" else req.check[2]]
        if kind == "series":
            err = _series(radix, op, doc, *req.check[2:])
        elif kind == "poly":
            err = _poly_basis(radix, op, doc, req.check[2])
        elif kind == "rational":
            err = _rational(radix, op, doc)
        elif kind == "normalize":
            err = _normalize(op, _operator(doc))
        elif kind == "gcrd":
            members = [corpus.operators[m][1] for m in req.check[1]]
            err = _gcrd(radix, members, op, _operator(doc))
        else:
            prefix = [Fraction(v) for v in req.check[2]]
            err = _transcendence(radix, op, prefix, doc)
            target = req.check[1]
            if not err and target.startswith("rational") and doc["verdict"] != "rational":
                err = "a rational function was called transcendental"
            if not err and verdicts.setdefault(target, doc["verdict"]) != doc["verdict"]:
                err = "the two transcendence oracles disagree"
        errors[req.label] = err
    return errors
