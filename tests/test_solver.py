import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import (
    coefficient,
    count_fraction_arithmetic,
    dense,
    integer_pairs,
    operator,
    pol,
    random_operator,
    random_poly_solvable,
    random_series_solvable_operator,
    terms,
    valuation,
)
from oracles import (
    apply_exact,
    candidate_valuations,
    edge_slope,
    apply_to_fractional,
    polynomial_solution_space,
    same_span,
    series_prefix_space,
)
from mahlersolve.errors import (
    InternalInvariantError,
    InvalidArgumentError,
    MahlerError,
    UnsupportedEquationError,
)
from mahlersolve.newton import lower_polygon, ramification_data, ramification_edge
from mahlersolve.normalize import normalize_l0
from mahlersolve.operator import MahlerOperator
from mahlersolve.poly import Poly
from mahlersolve.rational import (
    RamifiedRationalFunction,
    RationalFunction,
    ramified_rational_basis,
    rational_basis,
    transcendence_test,
)
from mahlersolve.solver import (
    certificate_order,
    certify,
    polynomial_basis,
    polynomial_solutions_bounded,
    PuiseuxSeries,
    SolutionBasis,
    puiseux_basis,
    series_basis,
)

F = Fraction
ONE = Poly.one()
X = Poly.x()


def test_approximate_basis_examples(running_example):
    basis = series_basis(running_example, 0)
    assert [dense(e) for e in basis.elements] == [[F(0), F(0), F(0), F(1)]]
    # M - 2 admits no series solution: the only edge is not admissible
    assert series_basis(operator(2, pol(-2), ONE), 0).dimension == 0
    # negative corner slope rules out series solutions outright
    assert series_basis(operator(2, pol(-1, -1), Poly.monomial(2)), 0).dimension == 0


def test_series_basis_golden(running_example, running_example_series):
    basis = series_basis(running_example, 12)
    assert basis.dimension == 1
    assert dense(basis.elements[0]) == running_example_series
    assert basis.elements[0].truncation_order == 13
    # truncation request below the approximate order keeps the full head
    head = series_basis(running_example, 3)
    assert dense(head.elements[0]) == [F(0), F(0), F(0), F(1)]


def test_series_basis_two_dimensional():
    lop = operator(2, X, -pol(1, 1), ONE)  # (M - x)(M - 1)
    basis = series_basis(lop, 8)
    assert basis.dimension == 2
    coeffs = [dense(e) for e in basis.elements]
    assert [F(1)] + [F(0)] * 8 in coeffs
    assert [F(0), F(1), F(1), F(0), F(1), F(0), F(0), F(0), F(1)] in coeffs


def test_polynomial_solutions(rat_example_transformed, running_example):
    basis = polynomial_solutions_bounded(rat_example_transformed, 6)
    assert basis.dimension == 2
    q1, q2, q3, q4 = pol(-1, 2), pol(-1, -1, 1), pol(-1, 8), pol(-1, -4, 1)
    expected = [q1 * q3 * q4, q2 * q3 * q4]
    got = [[coefficient(p, i) for i in range(7)] for p in basis.elements]
    want = [[coefficient(p, i) for i in range(7)] for p in expected]
    assert same_span(got, want)
    for p in basis.elements:
        assert not apply_exact(rat_example_transformed, p)
    # full-basis variant finds the same space
    full = polynomial_basis(rat_example_transformed)
    got_full = [[coefficient(p, i) for i in range(7)] for p in full.elements]
    assert same_span(got_full, want)
    # the series-only operator has no polynomial solutions up to degree 4
    assert polynomial_solutions_bounded(running_example, 5).dimension == 0
    assert polynomial_solution_space(running_example, 5) == []
    assert polynomial_basis(operator(2, -ONE, ONE)).elements == (ONE,)


def test_puiseux_running_example(running_example):
    basis = puiseux_basis(running_example, None, 5)
    assert basis.dimension == 2
    ramified = [e for e in basis.elements if valuation(e) == F(-1, 2)]
    assert len(ramified) == 1
    elem = ramified[0]
    assert elem.ramification == 2
    assert F(elem.truncation_order, elem.ramification) == F(11, 2)
    assert terms(elem) == (
        (F(-1, 2), F(1)),
        (F(1, 2), F(-1)),
        (F(3, 2), F(1)),
        (F(5, 2), F(-1)),
        (F(7, 2), F(1)),
        (F(9, 2), F(-1)),
    )
    plain = [e for e in basis.elements if valuation(e) == F(3)][0]
    assert terms(plain) == ((F(3), F(1)), (F(4), F(-1)), (F(5), F(1)))


def test_puiseux_one_liners():
    for radix in (2, 3):
        lop = MahlerOperator(radix, [Poly.monomial(1, -1), Poly.zero(), ONE])
        basis = puiseux_basis(lop, None, 2)
        assert basis.dimension == 1
        n = radix**2 - 1
        assert terms(basis.elements[0]) == ((F(1, n), F(1)),)
    # explicit ramification parameter
    lop = MahlerOperator(2, [Poly.monomial(1, -1), Poly.zero(), ONE])
    basis = puiseux_basis(lop, 3, 2)
    assert terms(basis.elements[0]) == ((F(1, 3), F(1)),)


def test_puiseux_unramified_matches_series(running_example, running_example_series):
    basis = puiseux_basis(running_example, 1, 12)
    assert basis.dimension == 1
    expected = [(F(i), c) for i, c in enumerate(running_example_series) if c]
    assert list(terms(basis.elements[0])) == expected


def test_puiseux_excludes_non_puiseux_ramification():
    # (M - x)(M - 1) annihilates x^(1/2) + x^(1/4) + ..., which is not a
    # Puiseux series; the solver must not produce b-power ramifications
    lop = operator(2, X, -pol(1, 1), ONE)
    basis = puiseux_basis(lop, None, 4)
    assert basis.dimension == 2
    assert {valuation(e) for e in basis.elements} == {F(0), F(1)}
    assert any(terms(e) == ((F(0), F(1)),) for e in basis.elements)


def test_puiseux_positive_m_valuation():
    # M^2 - x M: stripping the right factor M gives M - x with solution x,
    # so the original has the ramified solution x^(1/2)
    lop = operator(2, Poly.zero(), -X, ONE)
    basis = puiseux_basis(lop, None, 3)
    assert basis.dimension == 1
    elem = basis.elements[0]
    assert terms(elem) == ((F(1, 2), F(1)),)
    assert elem.ramification == 2
    # but it has no unramified series solutions at all
    assert series_basis(lop, 6).dimension == 0


def test_puiseux_exponents_match_former_formula():
    # each exponent is built as one Fraction((i - ns), ramification * b^w0);
    # it must equal the former (-slope + i/ramification) / b^w0 for an
    # integer i in the prolonged range, on operators with a right factor M^w0
    assert terms(puiseux_basis(operator(2, Poly.zero(), -X, Poly.zero(), ONE), None, 4).elements[0]) == (
        (F(1, 6), F(1)),
    )
    rng = random.Random(2718)
    ops = []
    while len(ops) < 25:
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 6).m_shift(rng.randint(1, 2))
        if ramification_data(op.m_shift(-op.m_valuation))[1] > 1:
            ops.append(op)
    checked = 0
    for op in ops:
        w0 = op.m_valuation
        stripped = op.m_shift(-w0)
        _, ram = ramification_data(stripped)
        slope = edge_slope(ramification_edge(lower_polygon(stripped), ram))
        scale = op.radix**w0
        order = 5
        basis = puiseux_basis(op, ram, order)
        for elem in basis.elements:
            assert elem.ramification == ram * scale
            for e, _ in terms(elem):
                i = (e * scale + slope) * ram
                assert i.denominator == 1 and 0 <= i <= slope * ram + ram * order * scale
                assert repr(e) == repr((-slope + F(int(i), ram)) / scale)
                checked += 1
        certify(op, basis)
    assert checked >= 500


def test_no_admissible_edge_flag():
    basis = puiseux_basis(operator(2, pol(-2), ONE), 1, 4)
    assert basis.dimension == 0
    assert basis.note == "no-admissible-edge"


def test_zero_trailing_coefficient_is_normalized_first(rat_example, reduction_example):
    # an equation with l_0 = 0 gets the bases of its normalize_l0 form
    lop = operator(2, Poly.zero(), -ONE, ONE)  # M(M - 1)
    basis = series_basis(lop, 6)
    assert basis.dimension == 1
    assert dense(basis.elements[0])[0] == 1
    # M L has l_0 = 0 and the solutions of L
    m = {b: MahlerOperator(b, [Poly.zero(), ONE]) for b in (2, 3)}
    ops = [lop, reduction_example, m[3] * rat_example, rat_example * m[3]]
    rng = random.Random(2024)
    for _ in range(8):
        b = rng.choice((2, 3))
        ops.append(m[b] * random_series_solvable_operator(rng, b, rng.randint(1, 2)))
        ops.append(m[b] * random_poly_solvable(rng, b, 2)[0])
    dimensions = [0, 0, 0]
    for op in ops:
        assert not op.coefficient(0)
        normalized = normalize_l0(op)[1]
        assert normalized.coefficient(0)
        for i, solve in enumerate((lambda op: series_basis(op, 8), polynomial_basis, rational_basis)):
            basis = solve(op)
            assert basis == solve(normalized)
            dimensions[i] += basis.dimension
    assert all(dimensions), dimensions


def test_series_oracle_equivalence_random():
    rng = random.Random(90210)
    solvable_hits = 0
    for i in range(120):
        radix = rng.choice((2, 3))
        if i % 2:
            op = random_series_solvable_operator(rng, radix, rng.randint(1, 3))
        else:
            op = random_operator(rng, radix, rng.randint(1, 3), 8)
        length = 12
        expected = series_prefix_space(op, length)
        got = series_basis(op, length - 1)
        vectors = [dense(e) for e in got.elements]
        assert same_span(vectors, expected)
        assert got.dimension <= op.order
        solvable_hits += bool(got.dimension)
        for elem in got.elements:
            if valuation(elem) is not None and valuation(elem) < length - 1:
                assert F(valuation(elem)) in candidate_valuations(op)
    assert solvable_hits >= 30


def test_polynomial_oracle_equivalence_random():
    rng = random.Random(90211)
    solvable_hits = 0
    for i in range(120):
        radix = rng.choice((2, 3))
        if i % 2:
            op, known = random_poly_solvable(rng, radix, rng.randint(1, 3))
        else:
            op, known = random_operator(rng, radix, rng.randint(1, 3), 8), None
        basis = polynomial_basis(op)
        bound = op.degree // (radix**op.order - radix ** (op.order - 1)) + 1
        width = max(bound, (known.degree + 1) if known else 1, 1)
        expected = polynomial_solution_space(op, width)
        got = [[coefficient(p, i) for i in range(width + 1)] for p in basis.elements]
        want = [[coefficient(p, i) for i in range(width + 1)] for p in expected]
        assert same_span(got, want)
        solvable_hits += bool(basis.dimension)
        if known:
            vec = [coefficient(known, i) for i in range(width + 1)]
            assert same_span(got + [vec], got)
        for p in basis.elements:
            assert not apply_exact(op, p)
    assert solvable_hits >= 30


def test_residual_certificates_random():
    rng = random.Random(4242)
    for _ in range(60):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 7)
        n = rng.randint(2, 12)
        basis = series_basis(op, n)
        for elem, order in zip(basis.elements, certify(op, basis)):
            v0 = op.coeffs[0].valuation
            assert order >= v0 + n or elem.truncation_order > n
        puiseux = puiseux_basis(op, None, n)
        assert len(certify(op, puiseux)) == puiseux.dimension
        approx = series_basis(op, 0)
        assert certify(op, approx) == [
            certificate_order(op, e.truncation_order, e.ramification) for e in approx.elements
        ]


def test_valuation_zero_corollary():
    # when the leftmost lower edge sits on the U-axis and is admissible,
    # a series solution of valuation 0 exists
    rng = random.Random(31337)
    found = 0
    for _ in range(400):
        if found >= 30:
            break
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 2), 5)
        c0 = coefficient(op.coeffs[0], 0)
        if not c0:
            continue
        # force an admissible horizontal leftmost edge through (1, 0)
        k = rng.randint(1, op.order)
        adjust = op.coefficient(k) - Poly.monomial(0, coefficient(op.coefficient(k), 0) + c0)
        coeffs = list(op.coeffs)
        coeffs[k] = adjust
        op2 = MahlerOperator(radix, coeffs)
        if not op2 or not op2.coefficient(0) or op2.order < 1:
            continue
        leftmost = lower_polygon(op2)[0]
        if leftmost.end[1] != 0 or leftmost.start[1] != 0 or not leftmost.admissible:
            continue
        found += 1
        basis = series_basis(op2, 0)
        assert any(dense(e)[0] != 0 for e in basis.elements)
    assert found >= 30


def test_certificate_order_formula(running_example):
    assert certificate_order(running_example, 10, 1) == 16
    # in units of 1/ramification: O(x^(11/2)) is certified modulo x^(23/2)
    assert certificate_order(running_example, 11, 2) == 23
    basis = puiseux_basis(running_example, None, 5)
    orders = certify(running_example, basis)
    assert [F(c, e.ramification) for e, c in zip(basis.elements, orders)] == [F(23, 2)] * 2


def _power_series(coeffs):
    """c_0 + c_1 x + ... + O(x^len(coeffs)) as a PuiseuxSeries."""
    den, pairs = integer_pairs([(i, c) for i, c in enumerate(coeffs) if c])
    return PuiseuxSeries.from_integers(1, den, pairs, len(coeffs))


def _certify_one(op, elem, kind="puiseux_basis"):
    return certify(op, SolutionBasis(kind, (elem,)))[0]


def _whole_image_accepts(op, elem):
    """The certificate computed from the whole image: its lowest term
    must not lie below the certified order."""
    image = apply_to_fractional(op, list(terms(elem)))
    bound = certificate_order(op, elem.truncation_order, elem.ramification)
    return not image or min(image) >= F(bound, elem.ramification)


def test_certificates_reject_perturbed_coefficients(running_example):
    series = series_basis(running_example, 12).elements[0]
    coeffs = dense(series)
    coeffs[7] += 1
    with pytest.raises(InternalInvariantError, match="below 19"):
        _certify_one(running_example, _power_series(coeffs), "series_basis")
    puiseux = puiseux_basis(running_example, 2, 5).elements[0]
    nums = list(puiseux.nums)
    nums[2] = (nums[2][0], 2 * nums[2][1])
    bad = PuiseuxSeries.from_integers(
        puiseux.ramification, puiseux.den, nums, puiseux.truncation_order
    )
    with pytest.raises(InternalInvariantError, match="residual has a term"):
        _certify_one(running_example, bad)
    # a truncation order finer than the terms need, in units of 1/6:
    # x^(1/2) - x is not cancelled below O(x^(2/3)) by y(x^2) - y(x)
    shift = operator(2, -ONE, ONE)
    with pytest.raises(InternalInvariantError, match="exponent 1/2 below 2/3"):
        _certify_one(shift, PuiseuxSeries.from_integers(6, 1, [(3, 1)], 4))

    # on random equations, one perturbed coefficient below the truncation
    # is rejected exactly when the whole image has a term below the bound
    rng = random.Random(5150)
    verdicts = {True: 0, False: 0}
    for i in range(40):
        radix = rng.choice((2, 3))
        if i % 2:
            op = random_operator(rng, radix, rng.randint(1, 3), 7)
        else:
            op = random_series_solvable_operator(rng, radix, rng.randint(1, 3))
        n = rng.randint(2, 10)
        for elem in series_basis(op, n).elements:
            coeffs = dense(elem)
            coeffs[rng.randrange(len(coeffs))] += 1
            bad = _power_series(coeffs)
            accepts = _whole_image_accepts(op, bad)
            verdicts[accepts] += 1
            if accepts:
                _certify_one(op, bad, "series_basis")
            else:
                with pytest.raises(InternalInvariantError):
                    _certify_one(op, bad, "series_basis")
        for elem in puiseux_basis(op, None, n).elements:
            # doubled on the integer form: one numerator over the same den
            nums = list(elem.nums)
            k = rng.randrange(len(nums))
            nums[k] = (nums[k][0], 2 * nums[k][1])
            bad = PuiseuxSeries.from_integers(
                elem.ramification, elem.den, nums, elem.truncation_order
            )
            accepts = _whole_image_accepts(op, bad)
            verdicts[accepts] += 1
            if accepts:
                _certify_one(op, bad)
            else:
                with pytest.raises(InternalInvariantError):
                    _certify_one(op, bad)
    assert verdicts[False] >= 30 and verdicts[True] >= 1


def test_certify_polynomials_matches_exact_image(rat_example_transformed):
    basis = polynomial_basis(rat_example_transformed)
    assert certify(rat_example_transformed, basis) == [None, None]
    # a polynomial is certified exactly when its exact image is zero
    rng = random.Random(1234)
    verdicts = {True: 0, False: 0}
    for i in range(60):
        radix = rng.choice((2, 3))
        op, p = random_poly_solvable(rng, radix, rng.randint(1, 3))
        if i % 3 == 0:
            p = p + Poly.monomial(rng.randint(0, 3), rng.choice((-1, 1)))
        solves = not apply_exact(op, p)
        verdicts[solves] += 1
        if solves:
            assert certify(op, SolutionBasis("polynomial_basis", (p,))) == [None]
        else:
            with pytest.raises(InternalInvariantError, match="polynomial certificate failed"):
                certify(op, SolutionBasis("polynomial_basis", (p,)))
    assert verdicts[True] >= 30 and verdicts[False] >= 10


def test_certify_rejects_other_kinds(running_example):
    for kind in ("newton", "no_such_basis"):
        with pytest.raises(InvalidArgumentError, match=f"cannot certify a {kind}"):
            certify(running_example, SolutionBasis(kind, ()))
    assert certify(running_example, SolutionBasis("series_basis", ())) == []
    # every basis kind a solver returns certifies, ramified rational too
    for lop in (running_example, operator(2, -X, Poly.zero(), ONE)):
        basis = ramified_rational_basis(lop)
        assert certify(lop, basis) == [None] * basis.dimension
    assert certify(running_example, SolutionBasis("ramified_rational_basis", ())) == []


def test_certify_zero_operator_accepts_exact_elements():
    # the zero operator annihilates everything: no certificate fails, and
    # clearing its denominators raises no untyped error
    zero = MahlerOperator(2)
    f = RationalFunction.make(pol(1, 1), 2, pol(1, 0, 1))
    bases = (
        SolutionBasis("polynomial_basis", (pol(1, 2),)),
        SolutionBasis("rational_basis", (f,)),
        SolutionBasis("ramified_rational_basis", (RamifiedRationalFunction(3, f),)),
    )
    for basis in bases:
        assert certify(zero, basis) == [None]


def test_puiseux_argument_errors(running_example):
    with pytest.raises(InvalidArgumentError, match="ramification must be >= 1"):
        puiseux_basis(running_example, 0, 5)
    with pytest.raises(InvalidArgumentError, match="order must be >= 0"):
        puiseux_basis(running_example, 2, -1)
    with pytest.raises(MahlerError):
        puiseux_basis(running_example, -1, 5)
    zero = MahlerOperator(2, [])
    with pytest.raises(UnsupportedEquationError):
        puiseux_basis(zero, 1, 5)
    with pytest.raises(UnsupportedEquationError):
        puiseux_basis(zero, None, 5)


def test_order_and_degree_bound_errors(running_example):
    # no silent clamping: series_basis(op, -1) used to return the heads
    with pytest.raises(InvalidArgumentError, match="order must be >= 0"):
        series_basis(running_example, -1)
    with pytest.raises(InvalidArgumentError, match="degree bound must be >= 1"):
        polynomial_solutions_bounded(running_example, 0)


def test_zero_operator_is_unsupported():
    zero = MahlerOperator(2, [])
    solves = (
        lambda: series_basis(zero, 5),
        lambda: series_basis(zero, 0),
        lambda: polynomial_basis(zero),
        lambda: polynomial_solutions_bounded(zero, 3),
        lambda: rational_basis(zero),
    )
    for solve in solves:
        with pytest.raises(UnsupportedEquationError, match="zero operator"):
            solve()


def test_ramification_must_be_coprime_to_the_radix():
    # the check comes before any edge is selected, so every operator gets
    # the same answer: an error that names the ramification
    rng = random.Random(3)
    for _ in range(300):
        op = random_operator(rng, 2, rng.randint(1, 3), 6, nonzero_l0=rng.random() < 0.7)
        for ramification in (2, 4, 6):
            with pytest.raises(InvalidArgumentError, match=f"ramification {ramification} is not coprime"):
                puiseux_basis(op, ramification, 4)
        assert puiseux_basis(op, 3, 4).kind == "puiseux_basis"


def test_solvers_build_no_fraction(monkeypatch, running_example):
    # the window parameters come from the Newton polygon on ints, and a
    # truncation or certified order that is integral is an int: the
    # series, Puiseux at ramification 1 and polynomial solvers and their
    # certificates build no Fraction and compute with none, on the
    # running example and on a sparse product of two factors M - u
    u = Poly.from_integers(1, [(0, 1), (2000, -1), (3100, 1)])
    v = Poly.from_integers(1, [(0, 1), (2500, 1), (4000, -1)])
    product = MahlerOperator(2, [-u, ONE]) * MahlerOperator(2, [-v, ONE])
    calls = count_fraction_arithmetic(monkeypatch)
    dimensions, orders = [], []
    for op, order in ((running_example, 40), (product, 5000)):
        for basis in (series_basis(op, order), puiseux_basis(op, 1, order), polynomial_basis(op)):
            orders += certify(op, basis)
            dimensions.append(basis.dimension)
    monkeypatch.undo()
    assert calls == Counter()
    assert dimensions == [1, 1, 0, 1, 1, 0]
    assert orders == [47, 47, 5001, 5001]
    assert all(type(order) is int for order in orders)


def _count_calls(monkeypatch, names) -> list:
    """Wrap the functions `names` wherever the solver and the recurrence
    module call them; returns the list of (name, first argument, result)
    that the wrappers fill."""
    from mahlersolve import rmatrix, solver

    seen = []
    for module in (solver, rmatrix):
        for name in names:
            if hasattr(module, name):

                def counted(*args, _name=name, _fn=getattr(module, name)):
                    result = _fn(*args)
                    seen.append((_name, args[0], result))
                    return result

                monkeypatch.setattr(module, name, counted)
    return seen


def test_recurrence_data_is_computed_once(monkeypatch, running_example):
    # phi(op), its integer terms and nu, on ints, are computed once per
    # basis, however many heads are prolonged; certify applies op through
    # one integer_terms call, however many elements the basis has
    wrapped = ("phi_apply", "nu_ratio", "integer_terms", "lower_polygon")
    seen = _count_calls(monkeypatch, wrapped)
    lop = operator(2, X, -pol(1, 1), ONE)
    # 1 and x both solve (x + x^2) - (1 + x + x^2) M + M^2
    two_polys = operator(2, pol(0, 1, 1), -pol(1, 1, 1), ONE)
    cases = [
        (lambda op: series_basis(op, 30), lop, 2),
        (lambda op: series_basis(op, 30), running_example, 1),
        (lambda op: puiseux_basis(op, None, 12), lop, 2),
        (lambda op: puiseux_basis(op, None, 12), running_example, 2),
        (lambda op: puiseux_basis(op, 1, 12), running_example, 1),
        (polynomial_basis, lop, 1),
        (polynomial_basis, two_polys, 2),
    ]
    for solve, op, dimension in cases:
        seen.clear()
        basis = solve(op)
        assert basis.dimension == dimension
        names = [name for name, _, _ in seen]
        expected = ["phi_apply", "nu_ratio", "integer_terms"]
        if basis.kind == "puiseux_basis":
            expected.insert(0, "lower_polygon")
        assert names == expected
        transformed = seen[-3][2]
        assert all(arg is transformed for _, arg, _ in seen[-2:])
        seen.clear()
        certify(op, basis)
        assert [(name, arg) for name, arg, _ in seen] == [("integer_terms", op)]
    # with nu = -1 there is no head to solve for: the recurrence stops at
    # nu and never builds its integer terms
    negative = operator(2, ONE + X, X)
    solvers = (
        lambda op: series_basis(op, 30),
        polynomial_basis,
        lambda op: transcendence_test(op, [0]),
    )
    for solve in solvers:
        seen.clear()
        solve(negative)
        assert [name for name, _, _ in seen] == ["phi_apply", "nu_ratio"]
