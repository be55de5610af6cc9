import random
from fractions import Fraction

import pytest

from conftest import (
    dense,
    operator,
    random_operator,
    random_rational_operator,
    random_series_solvable_operator,
)
import oracles
from oracles import entry_oracle, prolong_oracle
from mahlersolve.errors import IncompatiblePrefixError, InternalInvariantError
from mahlersolve import rmatrix
from mahlersolve.newton import mu_nu
from mahlersolve.operator import (
    IDENTITY_PHI,
    MahlerOperator,
    PhiTransform,
    apply_below,
    phi_apply,
)
from mahlersolve.poly import Poly
from mahlersolve.rmatrix import build_submatrix, prolong, solve_prescribed
from mahlersolve.solver import approximate_series_basis

F = Fraction
ONE = Poly.one()
X = Poly.x()


def residual(op, coeffs, limit):
    """Image terms below x^limit of the polynomial with these coefficients."""
    return apply_below(op, [(n, c) for n, c in enumerate(coeffs) if c], limit)


def test_golden_rows(running_example):
    row = list(build_submatrix(running_example, IDENTITY_PHI, 15, [20]).rows[0])
    assert row == [(13, F(1)), (14, F(1))]
    row = list(build_submatrix(running_example, IDENTITY_PHI, 37, [42]).rows[0])
    assert row == [
        (4, F(-1)),
        (5, F(-1)),
        (6, F(-1)),
        (14, F(-2)),
        (15, F(-1)),
        (35, F(1)),
        (36, F(1)),
    ]
    first = build_submatrix(running_example, IDENTITY_PHI, 12, [10, 11]).rows
    # row 10 also touches y_0 through the coefficient of M^2
    assert first[0] == ((0, F(-1)), (3, F(1)), (4, F(1)))
    assert first[1] == ((4, F(1)), (5, F(1)))


def test_empty_selection(running_example):
    m = build_submatrix(running_example, IDENTITY_PHI, 10, [])
    assert m.height == 0


def test_entry_oracle_basics(running_example):
    assert entry_oracle(running_example, IDENTITY_PHI, 20, 14) == 1
    assert entry_oracle(running_example, IDENTITY_PHI, 20, 13) == 1
    assert entry_oracle(running_example, IDENTITY_PHI, 5, 9) == 0


def test_engine_matches_oracle_random():
    rng = random.Random(1234)
    for _ in range(25):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 8)
        if rng.random() < 0.5:
            phi = IDENTITY_PHI
        else:
            beta = rng.choice((1, 5)) if radix == 3 else rng.choice((1, 3, 5))
            phi = PhiTransform(rng.randint(0, 3), beta, -rng.randint(0, 3))
        w = rng.randint(1, 12)
        rows = sorted(rng.sample(range(60), rng.randint(1, 6)))
        matrix = build_submatrix(op, phi, w, rows)
        for i, m in enumerate(rows):
            for n in range(w):
                assert matrix.entry(i, n) == entry_oracle(op, phi, m, n)
        # row-sparse structure: stored entries are nonzero
        for row in matrix.rows:
            assert all(v != 0 for _, v in row)
            assert [c for c, _ in row] == sorted(c for c, _ in row)


def test_row_nonzero_count_bound():
    rng = random.Random(555)
    for _ in range(30):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 8)
        bound = op.order + 2 * op.degree
        matrix = build_submatrix(op, IDENTITY_PHI, 30, sorted(rng.sample(range(90), 5)))
        for row in matrix.rows:
            assert len(row) <= bound


def test_strip_structure():
    # entries of row m contributed by coefficient k live in the window
    # v_k <= m - b^k n <= d_k; check every nonzero entry is explained
    rng = random.Random(9)
    for _ in range(20):
        op = random_operator(rng, 2, 2, 6)
        matrix = build_submatrix(op, IDENTITY_PHI, 20, list(range(0, 25)))
        for i, m in enumerate(matrix.row_labels):
            for n, _ in matrix.rows[i]:
                ok = False
                for k, c in op.nonzero_coefficients():
                    j = m - 2**k * n
                    if j >= 0 and c.valuation <= j <= c.degree:
                        ok = True
                assert ok


def test_solve_prescribed_running_example(running_example):
    nu, mu = mu_nu(running_example)
    w = int(nu) + 1
    h = int(mu) + 1
    rows = [
        min(c.valuation + n * 3**k for k, c in running_example.nonzero_coefficients())
        for n in range(w)
    ]
    assert rows == [0, 3, 6, 9]
    basis = solve_prescribed(running_example, IDENTITY_PHI, h, w, rows, "lower")
    assert basis.vectors == ((F(0), F(0), F(0), F(1)),)


def test_solve_prescribed_upper(rat_example_transformed):
    op = rat_example_transformed
    w = 6
    h = op.degree + (w - 1) * 3**2 + 1
    rows = [
        max(c.degree + n * 3**k for k, c in op.nonzero_coefficients())
        for n in range(w)
    ]
    basis = solve_prescribed(op, IDENTITY_PHI, h, w, rows, "upper")
    assert len(basis) == 2
    for vec in basis.vectors:
        assert not residual(op, vec, h)


def test_solve_prescribed_with_transform(running_example):
    # sheared solve: two families, of valuations 0 and 7 in the new variable
    phi = PhiTransform(-1, 2, -3)
    transformed = phi_apply(running_example, phi)
    nu, mu = mu_nu(transformed)
    assert (nu, mu) == (F(7), F(21))
    w, h = int(nu) + 1, int(mu) + 1
    rows = [
        min(c.valuation + n * 3**k for k, c in transformed.nonzero_coefficients())
        for n in range(w)
    ]
    basis = solve_prescribed(running_example, phi, h, w, rows, "lower")
    assert basis.vectors == (
        (F(1), F(0), F(-1), F(0), F(1), F(0), F(-1), F(0)),
        (F(0), F(0), F(0), F(0), F(0), F(0), F(0), F(1)),
    )


def test_solve_prescribed_constants():
    op = operator(2, -ONE, ONE)  # M - 1
    basis = solve_prescribed(op, IDENTITY_PHI, 1, 1, [0], "lower")
    assert basis.vectors == ((F(1),),)


def test_solve_prescribed_detects_bad_selection():
    op = operator(2, -ONE, ONE)
    # rows 5, 7, 9 are identically zero on columns 0..2, giving three
    # zero diagonal entries for an order-1 operator
    with pytest.raises(InternalInvariantError):
        solve_prescribed(op, IDENTITY_PHI, 10, 3, [5, 7, 9], "lower")


def _same_coefficients(a, b):
    # repr tells Fraction from int, so equal lists serialize identically
    assert [repr(c) for c in a] == [repr(c) for c in b]


def _lower_kernel(op):
    nu, mu = mu_nu(op)
    w = int(nu) + 1
    rows = [
        min(c.valuation + n * op.radix**k for k, c in op.nonzero_coefficients())
        for n in range(w)
    ]
    return solve_prescribed(op, IDENTITY_PHI, int(mu) + 1, w, rows, "lower").vectors


def test_prolong_running_example(running_example, running_example_series):
    approx = [F(0), F(0), F(0), F(1)]
    out = prolong(running_example, IDENTITY_PHI, approx, 9)
    assert out == running_example_series
    assert prolong(running_example, IDENTITY_PHI, approx, 0) == approx
    with pytest.raises(IncompatiblePrefixError):
        prolong(running_example, IDENTITY_PHI, [F(1), F(1), F(1), F(1)], 3)


def test_prolong_prefix_check_reaches_row_floor_mu():
    # prefixes that satisfy every relation row below floor(mu): prolong
    # rejects exactly those that break row floor(mu), as the oracle does
    rng = random.Random(606)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        op = random_operator(rng, rng.choice((2, 3)), rng.randint(1, 3), 6)
        nu, mu = mu_nu(op)
        if nu < 0 or mu < 1:
            continue
        head = int(nu) + 1
        for vec in oracles.kernel(oracles.brute_rows(op, int(mu) - 1, head), head):
            outcomes = []
            for solve in (prolong, prolong_oracle):
                try:
                    solve(op, IDENTITY_PHI, list(vec), 3)
                    outcomes.append(False)
                except IncompatiblePrefixError:
                    outcomes.append(True)
            assert outcomes[0] == outcomes[1]
            verdicts[outcomes[0]] += 1
    assert verdicts[True] >= 30 and verdicts[False] >= 3


def test_prolong_transformed(running_example):
    phi = PhiTransform(-1, 2, -3)
    approx = [F(c) for c in [1, 0, -1, 0, 1, 0, -1, 0]]
    out = prolong(running_example, phi, approx, 5)
    expected = [F(c) for c in [1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1]]
    assert out == expected
    for extra in (0, 1, 5, 40):
        _same_coefficients(
            prolong(running_example, phi, approx, extra),
            prolong_oracle(running_example, phi, approx, extra),
        )
    # residual of the transformed operator vanishes far out
    transformed = phi_apply(running_example, phi)
    assert not residual(transformed, out, 14)


def test_prolong_residual_guarantee():
    rng = random.Random(303)
    checked = 0
    for _ in range(400):
        if checked >= 25:
            break
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 6)
        nu, mu = mu_nu(op)
        if nu < 0:
            continue
        h = int(mu) + 1
        for vec in _lower_kernel(op):
            checked += 1
            # kernel contract: solutions modulo x^h before prolongation
            assert not residual(op, vec, h)
            extra = rng.randint(1, 10)
            out = prolong(op, IDENTITY_PHI, list(vec), extra)
            assert not residual(op, out, int(mu) + extra + 1)
    assert checked >= 25


def test_prolong_matches_oracle_on_random_operators():
    rng = random.Random(404)
    checked = 0
    for _ in range(400):
        if checked >= 30:
            break
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 6)
        if mu_nu(op)[0] < 0:
            continue
        for vec in _lower_kernel(op):
            checked += 1
            extra = rng.randint(0, 60)
            _same_coefficients(
                prolong(op, IDENTITY_PHI, list(vec), extra),
                prolong_oracle(op, IDENTITY_PHI, list(vec), extra),
            )
    assert checked >= 30


def test_prolong_over_common_denominators():
    # prolong runs on ints: the operator scaled by L, the prefix by D, and
    # each new coefficient kept as num / (D d^lev) with d = L diag.  Scaled
    # operators, diagonals other than +-1 and prefixes with denominators
    # exercise L, D and lev, which integer operators with unit diagonals
    # never do.  A left factor keeps the series solutions of the right
    # factor, whose lead puts powers of 1/lead into the coefficients.
    rng = random.Random(707)
    phi = PhiTransform(1, 5, -2)
    checked = transformed_checked = grown = 0
    for i in range(60):
        radix = rng.choice((2, 3))
        op = random_rational_operator(rng, radix, rng.randint(0, 1), 4)
        lead = rng.choice((F(1), F(2), F(-3), F(3, 2)))
        op = op * random_series_solvable_operator(rng, radix, rng.randint(1, 2), lead)
        t = phi if i % 3 == 0 else IDENTITY_PHI
        transformed = phi_apply(op, t)
        if mu_nu(transformed)[0] < 0:
            continue
        for vec in _lower_kernel(transformed):
            checked += 1
            transformed_checked += t is phi
            unit = rng.choice((F(1, 6), F(-5, 6), F(7, 3)))
            approx = [c * unit for c in vec]
            extra = rng.randint(0, 40)
            out = prolong(op, t, approx, extra)
            _same_coefficients(out, prolong_oracle(op, t, approx, extra))
            prefix_den = max(c.denominator for c in approx)
            grown += max(c.denominator for c in out) > prefix_den
    assert checked >= 40 and transformed_checked >= 10 and grown >= 20


def test_prolong_matches_oracle_on_sparse_products():
    # products of first-order factors M - u with u = 1 +- x^e +- ...,
    # e >= 2000: almost every prolonged coefficient is zero
    rng = random.Random(505)
    for _ in range(6):
        radix = rng.choice((2, 3))
        op = None
        for _ in range(rng.randint(1, 2)):
            exps = rng.sample(range(2000, 2400), rng.randint(1, 3))
            u = ONE + Poly([(e, F(rng.choice((-1, 1)))) for e in exps])
            factor = MahlerOperator(radix, [-u, ONE])
            op = factor if op is None else op * factor
        heads = approximate_series_basis(op, auto_normalize=False).elements
        assert heads
        for head in heads:
            approx = dense(head)
            out = prolong(op, IDENTITY_PHI, approx, 2500)
            assert any(out[2000:])
            _same_coefficients(out, prolong_oracle(op, IDENTITY_PHI, approx, 2500))


def test_prolong_invariant_check_matches_oracle(monkeypatch, running_example):
    # An understated mu makes prolongation rows read coefficients they
    # are meant to determine; both forms must notice on the same inputs.
    shift = [0]

    def shifted_mu_nu(op):
        nu, mu = mu_nu(op)
        return nu, mu - shift[0]

    monkeypatch.setattr(rmatrix, "mu_nu", shifted_mu_nu)
    monkeypatch.setattr(oracles, "mu_nu", shifted_mu_nu)

    def raises(fn, op, vec, extra):
        try:
            fn(op, IDENTITY_PHI, list(vec), extra)
        except InternalInvariantError:
            return True
        return False

    shift[0] = 1
    with pytest.raises(InternalInvariantError):
        prolong(running_example, IDENTITY_PHI, [F(0), F(0), F(0), F(1)], 5)

    rng = random.Random(606)
    seen = set()
    for _ in range(150):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 6)
        shift[0] = 0
        if mu_nu(op)[0] < 0:
            continue
        for vec in _lower_kernel(op):
            shift[0] = rng.randint(1, 4)
            extra = rng.randint(0, 20)
            verdict = raises(prolong, op, vec, extra)
            assert verdict == raises(prolong_oracle, op, vec, extra)
            seen.add(verdict)
    assert seen == {True, False}
