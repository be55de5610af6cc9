from fractions import Fraction

import pytest

from conftest import pol
from mahlersolve.errors import ExponentOverflowError, InputFormatError
from mahlersolve.poly import Poly
from mahlersolve.serialize import (
    basis_to_json,
    operator_to_json,
    parse_operator,
    parse_poly,
    parse_prefix,
    poly_to_json,
)
from mahlersolve.rational import RamifiedRationalFunction, RationalFunction
from mahlersolve.solver import PuiseuxSeries, SolutionBasis

F = Fraction


def test_fraction_round_trip():
    # an integral entry is read as an int, any other as a Fraction
    prefix = parse_prefix("0,-7, 3/2 ,-11/5,+4")
    assert [repr(c) for c in prefix] == ["0", "-7", repr(F(3, 2)), repr(F(-11, 5)), "4"]
    assert parse_prefix(",".join(map(str, prefix))) == prefix
    for text in ("1.5", "-\u0661", "1\n", "\t1", "1,", "", "2/4", "1/0"):
        with pytest.raises(InputFormatError):
            parse_prefix(text)


def test_poly_round_trip():
    p = Poly([(0, F(1, 2)), (3, F(-2)), (17, F(5))])
    doc = poly_to_json(p)
    assert doc == [[0, "1/2"], [3, "-2"], [17, "5"]]
    assert parse_poly(doc) == p
    assert parse_poly([]) == Poly.zero()


def test_poly_rejects_malformed():
    with pytest.raises(InputFormatError):
        parse_poly([[3, "1"], [1, "1"]])  # not ascending
    with pytest.raises(InputFormatError):
        parse_poly([[0, "0"]])  # explicit zero
    with pytest.raises(InputFormatError):
        parse_poly([[-1, "1"]])
    with pytest.raises(InputFormatError):
        parse_poly([[0]])
    with pytest.raises(InputFormatError):
        parse_poly([[0, 3]])  # a JSON number, not a coefficient string
    with pytest.raises(ExponentOverflowError):
        parse_poly([[2**64, "1"]])


def test_operator_round_trip(running_example):
    doc = operator_to_json(running_example)
    assert doc["radix"] == 3
    assert [entry["order"] for entry in doc["coefficients"]] == [0, 1, 2]
    assert parse_operator(doc) == running_example


def test_operator_rejects_malformed():
    with pytest.raises(InputFormatError):
        parse_operator({"radix": 1, "coefficients": []})
    with pytest.raises(InputFormatError):
        parse_operator({"radix": 2})
    with pytest.raises(InputFormatError):
        parse_operator(
            {"radix": 2, "coefficients": [{"order": 0, "terms": []}, {"order": 0, "terms": []}]}
        )
    with pytest.raises(InputFormatError):
        parse_operator([1, 2])


def test_zero_coefficient_entries_allowed():
    doc = {"radix": 2, "coefficients": [{"order": 1, "terms": []}]}
    assert not parse_operator(doc)


def test_basis_documents():
    series = SolutionBasis(
        "series_basis", (PuiseuxSeries.from_integers(1, 1, [(1, 1), (2, -2)], F(3)),)
    )
    doc = basis_to_json(series)
    assert doc["dimension"] == 1
    assert doc["ramification"] == 1
    assert doc["elements"][0]["terms"] == [["1", "1"], ["2", "-2"]]
    assert doc["elements"][0]["truncation_order"] == "3"

    puiseux = SolutionBasis(
        "puiseux_basis",
        (PuiseuxSeries.from_integers(2, 1, [(-1, 1), (3, -1)], F(5, 2)),),
    )
    doc = basis_to_json(puiseux)
    assert doc["ramification"] == 2
    assert doc["elements"][0]["terms"] == [["-1/2", "1"], ["3/2", "-1"]]
    assert doc["elements"][0]["truncation_order"] == "5/2"

    poly_basis = SolutionBasis("polynomial_basis", (pol(1, 0, 2),))
    doc = basis_to_json(poly_basis)
    assert doc["elements"][0]["terms"] == [[0, "1"], [2, "2"]]


def test_rational_element_key_order():
    # a ramified element is its ramification, then the rational element
    f = RationalFunction.make(pol(1, 1), 2, pol(1, 0, 1))
    rat = basis_to_json(SolutionBasis("rational_basis", (f,)))["elements"][0]
    assert list(rat) == ["numerator", "x_power", "denominator"]
    assert rat["numerator"] == [[0, "1"], [1, "1"]] and rat["x_power"] == 2
    assert rat["denominator"] == [[0, "1"], [2, "1"]]
    basis = SolutionBasis("ramified_rational_basis", (RamifiedRationalFunction(3, f),))
    ram = basis_to_json(basis)["elements"][0]
    assert list(ram) == ["ramification", "numerator", "x_power", "denominator"]
    assert ram == {"ramification": 3, **rat}
