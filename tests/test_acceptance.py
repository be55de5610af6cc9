"""Acceptance gate: one test per criterion, exact comparisons throughout.

Run `pytest tests/test_acceptance.py -v` for the per-criterion pass/fail
lines.
"""

import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    dense,
    image_fractions,
    operator,
    pol,
    random_operator,
    random_poly,
    random_poly_solvable,
    random_series_solvable_operator,
    recurrence_row,
)
from oracles import (
    apply_exact,
    edge_slope,
    entry_oracle,
    graeffe_monic,
    laurent,
    nu_mu_oracle,
    polynomial_solution_space,
    same_span,
    series_prefix_space,
)
from mahlersolve.newton import lower_polygon, nu_ratio, ramification_data
from mahlersolve.normalize import gcrd, normalize_l0, split
from mahlersolve.operator import (
    IDENTITY_PHI,
    MahlerOperator,
    operator_sections,
    right_remainder,
)
from mahlersolve.poly import Poly, graeffe, mahler_substitute
from mahlersolve.rational import (
    RationalFunction,
    bell_coons_dimensions,
    bell_coons_rank,
    denominator_bound,
    rational_basis,
    transcendence_test,
)
from mahlersolve.solver import (
    certify,
    polynomial_basis,
    puiseux_basis,
    series_basis,
)

F = Fraction
ONE = Poly.one()
X = Poly.x()


def report(name: str) -> None:
    print(f"ACCEPTANCE {name}: PASS")


def test_criterion_1_running_example_series(running_example, running_example_series):
    start = time.perf_counter()
    assert nu_ratio(running_example) == (3, 1)
    assert nu_mu_oracle(running_example) == (F(3), F(9))
    approx = series_basis(running_example, 0)
    assert [dense(e) for e in approx.elements] == [[F(0), F(0), F(0), F(1)]]
    basis = series_basis(running_example, 12)
    assert basis.dimension == 1
    assert dense(basis.elements[0]) == running_example_series
    assert basis.elements[0].truncation_order == 13
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 1 (series golden, %.2fs)" % elapsed)


def test_criterion_2_running_example_puiseux(running_example):
    start = time.perf_counter()
    _, n = ramification_data(running_example)
    assert n == 2
    basis = puiseux_basis(running_example, None, 5)
    assert basis.dimension == 2
    ramified = [e for e in basis.elements if e.valuation == F(-1, 2)]
    assert len(ramified) == 1
    assert ramified[0].terms == (
        (F(-1, 2), F(1)),
        (F(1, 2), F(-1)),
        (F(3, 2), F(1)),
        (F(5, 2), F(-1)),
        (F(7, 2), F(1)),
        (F(9, 2), F(-1)),
    )
    assert ramified[0].truncation_order == F(11, 2)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report("criterion 2 (Puiseux golden, %.2fs)" % elapsed)


def test_criterion_3_recurrence_rows(running_example):
    # row m, column n: the coefficient of x^m in op(x^n)
    assert recurrence_row(running_example, 10, 12) == [(0, F(-1)), (3, F(1)), (4, F(1))]
    assert recurrence_row(running_example, 11, 12) == [(4, F(1)), (5, F(1))]
    assert recurrence_row(running_example, 20, 15) == [(13, F(1)), (14, F(1))]
    assert recurrence_row(running_example, 42, 37) == [
        (4, F(-1)),
        (5, F(-1)),
        (6, F(-1)),
        (14, F(-2)),
        (15, F(-1)),
        (35, F(1)),
        (36, F(1)),
    ]
    rng = random.Random(33033)
    positions = 0
    for _ in range(50):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 8)
        width = rng.randint(5, 15)
        for m in sorted(rng.sample(range(80), 5)):
            for n in range(min(width, 5)):
                entry = image_fractions(op, 1, [(n, 1)], m + 1).get(m, 0)
                assert entry == entry_oracle(op, IDENTITY_PHI, m, n)
                positions += 1
    assert positions >= 1000
    report(f"criterion 3 (matrix rows + {positions} oracle positions)")


def test_criterion_4_rational_solving(rat_example):
    start = time.perf_counter()
    bound = denominator_bound(rat_example)
    u1 = (pol(-1, 2) * pol(-1, -1, 1)).monic()
    assert bound.u_steps == (u1, ONE)
    assert bound.u_tilde == u1
    q_star = (pol(-1, 2) * pol(-1, -1, 1) * pol(-1, 8) * pol(-1, -4, 1)).monic()
    assert bound.q_star == q_star
    basis = rational_basis(rat_example)
    assert basis.dimension == 2
    want = [
        RationalFunction.make(ONE, 0, pol(-1, 2)),
        RationalFunction.make(ONE, 0, pol(-1, -1, 1)),
    ]
    got = [laurent(f, 0, 12) for f in basis.elements]
    expected = [laurent(f, 0, 12) for f in want]
    assert same_span(got, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 4 (denominator bound + rational basis, %.2fs)" % elapsed)


def test_criterion_5_normalization(reduction_example, reduction_example_normalized):
    start = time.perf_counter()
    members = split(reduction_example)
    assert sorted((m.order, m.degree) for m in members) == [
        (2, 12),
        (2, 13),
        (2, 15),
        (3, 49),
    ]
    prim = normalize_l0(reduction_example)[1]
    assert prim == reduction_example_normalized
    composed = operator(3, Poly.zero(), ONE) * prim
    assert not right_remainder(reduction_example, composed)
    basis = rational_basis(prim)
    assert basis.dimension == 2
    want = [
        RationalFunction.constant(1),
        RationalFunction.make(X, 0, pol(-1, 0, 1)),
    ]
    got = [laurent(f, 0, 14) for f in basis.elements]
    expected = [laurent(f, 0, 14) for f in want]
    assert same_span(got, expected)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report("criterion 5 (split/normalize/gcrd goldens, %.2fs)" % elapsed)


def test_criterion_6_one_liners():
    for radix in (2, 3):
        lop = MahlerOperator(radix, [Poly.monomial(1, -1), Poly.zero(), ONE])
        basis = puiseux_basis(lop, None, 2)
        assert basis.dimension == 1
        assert basis.elements[0].terms == ((F(1, radix**2 - 1), F(1)),)

    lop = operator(2, X, -pol(1, 1), ONE)  # (M - x)(M - 1)
    basis = series_basis(lop, 8)
    assert basis.dimension == 2
    assert any(dense(e) == [F(1)] + [F(0)] * 8 for e in basis.elements)

    prefix = [F(0), F(1), F(1), F(0), F(1)]
    verdict = transcendence_test(lop, prefix)
    assert verdict.verdict == "transcendental"
    kappa, bound = bell_coons_dimensions(lop)
    need = kappa + bound + 1
    y = [F(0)] * need
    k = 1
    while k < need:
        y[k] = F(1)
        k *= 2
    assert bell_coons_rank(lop, y) is True
    report("criterion 6 (ramified one-liners + transcendence)")


def test_criterion_7_sparse_stretch(sparse_stretch_example):
    start = time.perf_counter()
    edges = lower_polygon(sparse_stretch_example)
    assert [edge_slope(e) for e in edges] == [
        F(-203, 13),
        F(-3),
        F(0),
        F(1, 1458),
        F(221, 5),
    ]
    _, n = ramification_data(sparse_stretch_example)
    assert n == 65
    basis = puiseux_basis(sparse_stretch_example, None, 20000)
    assert basis.dimension == 2
    leading = sorted(e.terms[0][0] for e in basis.elements)
    assert leading == [F(-221, 5), F(203, 13)]
    by_val = {e.terms[0][0]: e for e in basis.elements}
    assert [t[0] for t in by_val[F(-221, 5)].terms] == [
        F(-221, 5),
        F(1939, 5),
        F(50323, 5),
    ]
    assert [t[0] for t in by_val[F(203, 13)].terms] == [
        F(203, 13),
        F(62411, 13),
        F(68027, 13),
    ]
    for elem in basis.elements:
        assert all(c == 1 for _, c in elem.terms)
    certify(sparse_stretch_example, basis)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report("criterion 7 (sparse stretch, %.1fs)" % elapsed)


def test_criterion_7_sparse_stretch_low_order(sparse_stretch_example):
    """Criterion 7 at order 1000, fast enough for every run."""
    basis = puiseux_basis(sparse_stretch_example, None, 1000)
    assert basis.dimension == 2
    by_val = {e.terms[0][0]: e for e in basis.elements}
    assert [t[0] for t in by_val[F(-221, 5)].terms] == [F(-221, 5), F(1939, 5)]
    assert [t[0] for t in by_val[F(203, 13)].terms] == [F(203, 13)]
    for elem in basis.elements:
        assert elem.ramification == 65
        assert elem.truncation_order == F(1000) + F(1, 65)
    assert len(certify(sparse_stretch_example, basis)) == 2


def test_criterion_8a_residual_certificates():
    rng = random.Random(6001)
    series_checked = puiseux_checked = poly_checked = rational_checked = 0
    for i in range(80):
        radix = rng.choice((2, 3))
        if i % 2:
            op = random_series_solvable_operator(rng, radix, rng.randint(1, 3))
        else:
            op = random_operator(rng, radix, rng.randint(1, 3), 8)
        order = rng.randint(2, 10)
        v0 = op.coeffs[0].valuation
        series = series_basis(op, order)
        for elem, bound in zip(series.elements, certify(op, series)):
            assert bound >= v0 + order or elem.truncation_order > order
            series_checked += 1
        puiseux = puiseux_basis(op, None, order)
        for bound in certify(op, puiseux):
            assert bound >= v0 + order
            puiseux_checked += 1
        polys = polynomial_basis(op)
        assert certify(op, polys) == [None] * polys.dimension
        for p in polys.elements:
            assert not apply_exact(op, p)
            poly_checked += 1
        rationals = rational_basis(op)
        assert certify(op, rationals) == [None] * rationals.dimension
        for f in rationals.elements:
            den = f.denominator.shift(f.x_power)
            total = Poly.zero()
            for k, lk in op.nonzero_coefficients():
                num_k = mahler_substitute(f.numerator, radix, k) if k else f.numerator
                cof = ONE
                for j in range(op.order + 1):
                    if j != k:
                        cof = cof * (mahler_substitute(den, radix, j) if j else den)
                total = total + lk * num_k * cof
            assert not total
            rational_checked += 1
    assert series_checked >= 40 and puiseux_checked >= 40
    report(
        "criterion 8a (residual certificates: %d series, %d puiseux, %d poly, %d rational)"
        % (series_checked, puiseux_checked, poly_checked, rational_checked)
    )


def test_criterion_8b_oracle_equivalence():
    rng = random.Random(6002)
    count = 0
    for i in range(200):
        radix = rng.choice((2, 3))
        style = i % 4
        known = None
        if style == 0:
            op = random_operator(rng, radix, rng.randint(1, 3), 8)
        elif style == 1:
            op = random_series_solvable_operator(rng, radix, rng.randint(1, 3))
        elif style == 2:
            op, known = random_poly_solvable(rng, radix, rng.randint(1, 3))
        else:
            op = random_operator(rng, radix, rng.randint(1, 3), 5)
        count += 1
        length = 12
        expected = series_prefix_space(op, length)
        approx = series_basis(op, 0)
        got_series = series_basis(op, length - 1)
        assert same_span([dense(e) for e in got_series.elements], expected)
        assert got_series.dimension == len(expected) == approx.dimension

        bound = op.degree // (radix**op.order - radix ** (op.order - 1)) + 1
        width = max(bound, 1, (known.degree + 1) if known else 1)
        expect_poly = polynomial_solution_space(op, width)
        got_poly = polynomial_basis(op)
        pg = [[p.coefficient(j) for j in range(width + 1)] for p in got_poly.elements]
        pw = [[p.coefficient(j) for j in range(width + 1)] for p in expect_poly]
        assert same_span(pg, pw)
        if known:
            kv = [known.coefficient(j) for j in range(width + 1)]
            assert same_span(pg + [kv], pg)
    assert count >= 200
    report(f"criterion 8b (oracle equivalence on {count} operators)")


def test_criterion_8c_graeffe_and_sections():
    rng = random.Random(6003)
    graeffe_checked = 0
    while graeffe_checked < 200:
        deg = rng.randint(0, 5)
        p = pol(*[rng.randint(-3, 3) for _ in range(deg + 1)])
        if not p:
            continue
        graeffe_checked += 1
        b = rng.choice((2, 3))
        i = rng.choice((1, 2))
        assert graeffe(mahler_substitute(p, b, i), b, i) == math.prod([p] * b**i, start=ONE)
        assert not mahler_substitute(graeffe_monic(p, b, i), b, i).divmod(p)[1]
        q = random_poly(rng, 3)
        assert not mahler_substitute(p * q, b, i).divmod(mahler_substitute(p, b, i))[1]
        other = p * q + ONE
        if other.divmod(p)[1]:
            assert mahler_substitute(other, b, i).divmod(mahler_substitute(p, b, i))[1]

    section_checked = 0
    for _ in range(200):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 9, nonzero_l0=False)
        if op.coefficient(0):
            op = op.m_shift(1)
        total = MahlerOperator.zero(radix)
        for idx, s in enumerate(operator_sections(op)):
            piece = operator(radix, Poly.monomial(idx)) * operator(radix, Poly.zero(), ONE) * s
            total = total + piece
        assert total == op
        section_checked += 1
    assert graeffe_checked >= 200 and section_checked >= 200
    report("criterion 8c (Graeffe identities and section reconstruction, 200 each)")


def test_criterion_8d_normalization_and_gcrd():
    rng = random.Random(6004)
    preserved = 0
    for _ in range(100):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 4), 27, nonzero_l0=False)
        if op.coefficient(0):
            op = op.m_shift(1)
        reduced = normalize_l0(op)[1]
        from test_normalize import _l0_zero_prefix_space

        lhs = _l0_zero_prefix_space(op, 30)
        if reduced.order == 0:
            assert lhs == []
        else:
            assert same_span(lhs, series_prefix_space(reduced, 30))
        preserved += 1

    divided = 0
    for _ in range(100):
        radix = rng.choice((2, 3))
        common = random_operator(rng, radix, rng.randint(0, 1), 2)
        family = []
        for _ in range(rng.randint(1, 3)):
            left = random_operator(rng, radix, rng.randint(0, 2), 2, nonzero_l0=False)
            if not left:
                left = operator(radix, Poly.one())
            family.append(left * common)
        result = gcrd(family)[1]
        for member in family:
            assert not right_remainder(member, result)
        divided += 1
    assert preserved >= 100 and divided >= 100
    report("criterion 8d (normalization preservation 100, gcrd divisibility 100)")


def test_criterion_8e_degree_guards():
    rng = random.Random(6005)
    guarded = 0
    for _ in range(100):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 2), 9)
        r = op.order
        lead_deg = op.coeffs[-1].degree
        bound = denominator_bound(op)
        if radix == 2:
            assert bound.q_star.degree <= lead_deg
        else:
            assert bound.q_star.degree <= lead_deg // radix ** (r - 1)
        for f in rational_basis(op).elements:
            assert not bound.q_star.divmod(f.denominator)[1]
            assert f.denominator.degree <= 3 * lead_deg // radix**r
            assert (
                f.numerator.degree
                <= f.denominator.degree
                + f.x_power
                + op.degree // (radix**r - radix ** (r - 1))
            )
        guarded += 1

    constants_only = 0
    for _ in range(600):
        if constants_only >= 100:
            break
        radix = rng.choice((2, 3))
        r = rng.randint(2, 3)
        cap = radix ** (r - 1) - 1
        if cap < 1:
            continue
        op = random_operator(rng, radix, r, cap)
        if op.degree >= radix ** (r - 1):
            continue
        for f in rational_basis(op).elements:
            assert f.numerator.degree <= 0 and f.denominator == ONE
        constants_only += 1
    assert guarded >= 100 and constants_only >= 100
    report("criterion 8e (degree guards 100, small-degree constants 100)")
