import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    count_fraction_arithmetic,
    dense,
    operator,
    random_operator,
    random_poly_solvable,
    random_rational_operator,
    random_series_solvable_operator,
    recurrence_row,
)
import oracles
from oracles import edge_slope, entry_oracle, nu_mu_oracle, prolong_oracle
from mahlersolve.errors import (
    ExponentOverflowError,
    InconsistentPrefixError,
    InsufficientPrefixError,
    InternalInvariantError,
    InvalidArgumentError,
)
from mahlersolve import rmatrix
from mahlersolve.newton import lower_polygon, ramification_edge
from mahlersolve.operator import (
    IDENTITY_PHI,
    MahlerOperator,
    PhiTransform,
    image_below,
    integer_terms,
    phi_apply,
)
from mahlersolve.poly import MAX_EXPONENT, Poly, lowest_terms, mahler_substitute
from mahlersolve.rmatrix import Recurrence, extend_prefix
from mahlersolve.solver import puiseux_basis, series_basis

F = Fraction
ONE = Poly.one()
X = Poly.x()


def test_golden_rows(running_example):
    row = recurrence_row(running_example, 20, 15)
    assert row == [(13, F(1)), (14, F(1))]
    row = recurrence_row(running_example, 42, 37)
    assert row == [
        (4, F(-1)),
        (5, F(-1)),
        (6, F(-1)),
        (14, F(-2)),
        (15, F(-1)),
        (35, F(1)),
        (36, F(1)),
    ]
    # row 10 also touches y_0 through the coefficient of M^2
    assert recurrence_row(running_example, 10, 12) == [(0, F(-1)), (3, F(1)), (4, F(1))]
    assert recurrence_row(running_example, 11, 12) == [(4, F(1)), (5, F(1))]


def test_empty_selection():
    # y(x^2) = 2 y(x): the one tie, at n = 0, has diagonal -2 + 1, so no
    # position is seeded and the window solve returns the empty basis
    op = operator(2, Poly.monomial(0, -2), ONE)
    assert rmatrix._window(Recurrence(op, IDENTITY_PHI), 5, 3, 1) == ()
    assert oracles.kernel(oracles.brute_rows(op, 4, 3), 3) == []


def test_entry_oracle_basics(running_example):
    assert entry_oracle(running_example, IDENTITY_PHI, 20, 14) == 1
    assert entry_oracle(running_example, IDENTITY_PHI, 20, 13) == 1
    assert entry_oracle(running_example, IDENTITY_PHI, 5, 9) == 0


def _random_phi(rng, radix):
    if rng.random() < 0.5:
        return IDENTITY_PHI
    beta = rng.choice((1, 5)) if radix == 3 else rng.choice((1, 3, 5))
    return PhiTransform(rng.randint(0, 3), beta, -rng.randint(0, 3))


def test_engine_matches_oracle_random():
    rng = random.Random(1234)
    for _ in range(25):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 8)
        phi = _random_phi(rng, radix)
        transformed = phi_apply(op, phi)
        w = rng.randint(1, 12)
        for m in sorted(rng.sample(range(60), rng.randint(1, 6))):
            row = recurrence_row(transformed, m, w)
            # sparse rows: stored entries are nonzero, in column order
            assert all(v != 0 for _, v in row)
            assert [c for c, _ in row] == sorted(c for c, _ in row)
            entries = dict(row)
            for n in range(w):
                assert entries.get(n, 0) == entry_oracle(op, phi, m, n)


def test_row_nonzero_count_bound():
    rng = random.Random(555)
    for _ in range(30):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 8)
        bound = op.order + 2 * op.degree
        for m in sorted(rng.sample(range(90), 5)):
            assert len(recurrence_row(op, m, 30)) <= bound


def test_strip_structure():
    # entries of row m contributed by coefficient k live in the window
    # v_k <= m - b^k n <= d_k; check every nonzero entry is explained
    rng = random.Random(9)
    for _ in range(20):
        op = random_operator(rng, 2, 2, 6)
        for m in range(25):
            for n, _ in recurrence_row(op, m, 20):
                ok = False
                for k, c in op.nonzero_coefficients():
                    j = m - 2**k * n
                    if j >= 0 and c.valuation <= j <= c.degree:
                        ok = True
                assert ok


def _coeffs(pairs, length):
    """Dense coefficients 0..length-1 of the nonzero (n, c) pairs."""
    out = [F(0)] * length
    for n, c in pairs:
        out[n] = c
    return out


def test_solve_prescribed_running_example(running_example):
    rec = Recurrence(running_example, IDENTITY_PHI)
    basis = rmatrix._window(rec, rec.mu_floor + 1, rec.nu_floor + 1, 1)
    assert basis == ((1, ((3, 1),)),)


def test_solve_prescribed_upper(rat_example_transformed):
    op = rat_example_transformed
    w = 6
    h = op.degree + (w - 1) * 3**2 + 1
    basis = rmatrix._window(Recurrence(op, IDENTITY_PHI), h, w, -1)
    assert len(basis) == 2
    for vec in basis:
        assert not image_below(integer_terms(op), vec[1], h)[1]


def test_solve_prescribed_with_transform(running_example):
    # sheared solve: two families, of valuations 0 and 7 in the new variable
    rec = Recurrence(running_example, PhiTransform(-1, 2, -3))
    assert (rec.nu_floor, rec.mu_floor, rec.head) == (7, 21, 8)
    assert nu_mu_oracle(rec.op) == (F(7), F(21))
    w, h = rec.nu_floor + 1, rec.mu_floor + 1
    basis = rmatrix._window(rec, h, w, 1)
    assert [_coeffs(_fractions(vec), w) for vec in basis] == [
        [F(1), F(0), F(-1), F(0), F(1), F(0), F(-1), F(0)],
        [F(0), F(0), F(0), F(0), F(0), F(0), F(0), F(1)],
    ]


def test_solve_prescribed_constants():
    op = operator(2, -ONE, ONE)  # M - 1
    assert rmatrix._window(Recurrence(op, IDENTITY_PHI), 1, 1, 1) == ((1, ((0, 1),)),)


def test_solve_prescribed_matches_dense_oracle():
    # {y of degree < w : phi(op) y = 0 mod x^h} against a dense kernel of
    # the rows 0..h-1, whenever h lies above the row of every window
    # position; the two bases must agree as reduced echelon forms
    rng = random.Random(2024)
    seen = {"lower": 0, "upper": 0}
    nontrivial = 0
    for i in range(160):
        radix = rng.choice((2, 3))
        if i % 3 == 0:
            op = random_operator(rng, radix, rng.randint(1, 3), 6)
        elif i % 3 == 1:
            op = random_series_solvable_operator(rng, radix, rng.randint(1, 2))
        else:
            op, _ = random_poly_solvable(rng, radix, rng.randint(1, 2))
        phi = _random_phi(rng, radix)
        transformed = phi_apply(op, phi)
        orientation = rng.choice(("lower", "upper"))
        w = rng.randint(1, 10)
        ends = [
            (c.valuation if orientation == "lower" else c.degree) + radix**k * (w - 1)
            for k, c in transformed.nonzero_coefficients()
        ]
        top = min(ends) if orientation == "lower" else max(ends)
        h = top + 1 + rng.randint(0, 6)
        basis = rmatrix._window(Recurrence(op, phi), h, w, 1 if orientation == "lower" else -1)
        for vec in basis:
            pairs = _fractions(vec)
            assert pairs and [n for n, _ in pairs] == sorted({n for n, _ in pairs})
            assert all(0 <= n < w for n, _ in pairs)
        dense_kernel = oracles.kernel(oracles.brute_rows(transformed, h - 1, w), w)
        expected, _ = oracles.eliminate(dense_kernel)
        assert [_coeffs(_fractions(vec), w) for vec in basis] == expected
        seen[orientation] += 1
        nontrivial += bool(basis)
    assert min(seen.values()) >= 60 and nontrivial >= 40


def test_solve_prescribed_detects_bad_selection(monkeypatch):
    # the zero diagonals of the window are vertices of the envelope of
    # the r + 1 lines, so there are at most r of them; a tie finder that
    # reports more is caught before any substitution
    op = operator(2, -ONE, ONE)
    monkeypatch.setattr(rmatrix, "_ties", lambda lines, lo, hi: {0: 0, 1: 0})
    with pytest.raises(InternalInvariantError, match="exceed the order 1"):
        rmatrix._window(Recurrence(op, IDENTITY_PHI), 10, 3, 1)


def _fractions(out):
    """The (n, Fraction) pairs of a (den, pairs) vector, after checking
    that they are nonzero ints in lowest terms over a positive int den."""
    den, pairs = out
    assert type(den) is int and den > 0
    assert all(type(n) is type(v) is int and v for n, v in pairs)
    assert math.gcd(den, *(v for _, v in pairs)) == 1
    return [(n, F(v, den)) for n, v in pairs]


def _same_as_oracle(out, expected):
    # the nonzero pairs, head first, against the oracle's dense list; repr
    # tells Fraction from int, so equal lists serialize identically
    pairs = _fractions(out)
    assert [n for n, _ in pairs] == [n for n, c in enumerate(expected) if c]
    assert [repr(c) for _, c in pairs] == [repr(c) for c in expected if c]


def _lower_kernel(op):
    rec = Recurrence(op, IDENTITY_PHI)
    return rmatrix._window(rec, rec.mu_floor + 1, rec.nu_floor + 1, 1)


def _extend(op, phi, approx, extra):
    """`extend_prefix` of phi(op) from the dense head `approx` to `extra`
    more coefficients, called as `prolong_oracle` is, as (den, pairs):
    the nonzero (n, int) pairs over den."""
    den, nums = extend_prefix(phi_apply(op, phi), approx, len(approx) + extra)
    return den, tuple((n, v) for n, v in enumerate(nums) if v)


def test_prolong_running_example(running_example, running_example_series):
    rec = Recurrence(running_example, IDENTITY_PHI)
    assert rec.head == 4
    head = [0, 0, 0, 1]
    _same_as_oracle(_extend(running_example, IDENTITY_PHI, head, 9), running_example_series)
    assert extend_prefix(running_example, head, 0) == (1, [0, 0, 0, 1])
    assert extend_prefix(running_example, [0, 0, 0, F(4, 6)], 4) == (3, [0, 0, 0, 2])
    with pytest.raises(InconsistentPrefixError, match=r"coefficient of x\^0$"):
        extend_prefix(running_example, [1, 1, 1, 1], 7)


def test_prolong_past_the_exponent_range():
    # an extension past MAX_EXPONENT coefficients raises the typed error
    # of series_basis before it allocates anything, on order 0 and for
    # nu < 0 too; a prefix shorter than the head fails first
    op = MahlerOperator(2, [X - ONE, ONE])
    for extra in (MAX_EXPONENT, 2**63, 2**64):
        with pytest.raises(ExponentOverflowError, match="exceeds"):
            extend_prefix(op, [1], extra + 1)
        with pytest.raises(ExponentOverflowError, match="exceeds"):
            series_basis(op, extra)
    for coeffs in ([ONE, X], [ONE + X]):
        with pytest.raises(ExponentOverflowError, match="exceeds"):
            extend_prefix(MahlerOperator(2, coeffs), [0], MAX_EXPONENT + 1)
    with pytest.raises(InsufficientPrefixError):
        extend_prefix(op, [], MAX_EXPONENT + 1)
    # MAX_EXPONENT coefficients pass, but the walk's zeros for l_0's tail
    # term x would take its list one entry past them
    padded = f"padded truncation order {MAX_EXPONENT + 1} exceeds"
    with pytest.raises(ExponentOverflowError, match=padded):
        extend_prefix(op, [1], MAX_EXPONENT)
    with pytest.raises(ExponentOverflowError, match=padded):
        series_basis(op, MAX_EXPONENT - 1)
    assert extend_prefix(op, [1], 4) == (1, [1, 1, 2, 2])


def test_extend_prefix_faults(running_example):
    # each prefix fault raises its own error, checked in this order:
    # entries, length, the head's relation rows, then the tail
    faults = [
        ([0, 0, 0, 1.0], InvalidArgumentError, "must be int or Fraction, got 1.0"),
        ([1, 1, "1"], InvalidArgumentError, "must be int or Fraction"),
        ([0, 0, 1], InsufficientPrefixError, "need at least 4 coefficients, got 3"),
        ([1, 1, 1, 1, 0], InconsistentPrefixError, r"relation for the coefficient of x\^0$"),
        ([0, 0, 0, 1, 0, 0], InconsistentPrefixError, "prefix extends to no series solution"),
    ]
    for prefix, error, message in faults:
        with pytest.raises(error, match=message):
            extend_prefix(running_example, prefix, 8)
    # order 0 checks the entries and the tail alone
    op = MahlerOperator(2, [ONE + X])
    assert extend_prefix(op, [], 2) == (1, [0, 0])
    with pytest.raises(InvalidArgumentError):
        extend_prefix(op, [True], 2)
    with pytest.raises(InconsistentPrefixError, match="extends to no series solution"):
        extend_prefix(op, [0, F(1, 2)], 2)


def test_prolong_prefix_check_reaches_row_floor_mu():
    # prefixes that satisfy every relation row below floor(mu): extend_prefix
    # rejects exactly those that break row floor(mu), as the oracle does
    rng = random.Random(606)
    verdicts = {True: 0, False: 0}
    for _ in range(200):
        op = random_operator(rng, rng.choice((2, 3)), rng.randint(1, 3), 6)
        nu, mu = nu_mu_oracle(op)
        if nu < 0 or mu < 1:
            continue
        head = int(nu) + 1
        for vec in oracles.kernel(oracles.brute_rows(op, int(mu) - 1, head), head):
            outcomes = []
            for solve in (_extend, prolong_oracle):
                try:
                    solve(op, IDENTITY_PHI, list(vec), 3)
                    outcomes.append(False)
                except InconsistentPrefixError:
                    outcomes.append(True)
            assert outcomes[0] == outcomes[1]
            verdicts[outcomes[0]] += 1
    assert verdicts[True] >= 30 and verdicts[False] >= 3


def test_prolong_transformed(running_example):
    phi = PhiTransform(-1, 2, -3)
    approx = [F(c) for c in [1, 0, -1, 0, 1, 0, -1, 0]]
    out = _extend(running_example, phi, approx, 5)
    expected = [F(c) for c in [1, 0, -1, 0, 1, 0, -1, 0, 1, 0, -1, 0, 1]]
    _same_as_oracle(out, expected)
    for extra in (0, 1, 5, 40):
        _same_as_oracle(
            _extend(running_example, phi, approx, extra),
            prolong_oracle(running_example, phi, approx, extra),
        )
    # residual of the transformed operator vanishes far out
    transformed = phi_apply(running_example, phi)
    assert not image_below(integer_terms(transformed), out[1], 14)[1]


def test_prolong_residual_guarantee():
    rng = random.Random(303)
    checked = 0
    for _ in range(400):
        if checked >= 25:
            break
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 6)
        nu, mu = nu_mu_oracle(op)
        if nu < 0:
            continue
        h = int(mu) + 1
        for vec in _lower_kernel(op):
            checked += 1
            # kernel contract: solutions modulo x^h before prolongation
            assert not image_below(integer_terms(op), vec[1], h)[1]
            extra = rng.randint(1, 10)
            out = _extend(op, IDENTITY_PHI, _coeffs(_fractions(vec), int(nu) + 1), extra)
            assert not image_below(integer_terms(op), out[1], int(mu) + extra + 1)[1]
    assert checked >= 25


def test_prolong_matches_oracle_on_random_operators():
    rng = random.Random(404)
    checked = 0
    for _ in range(400):
        if checked >= 30:
            break
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 6)
        nu = nu_mu_oracle(op)[0]
        if nu < 0:
            continue
        for vec in _lower_kernel(op):
            checked += 1
            extra = rng.randint(0, 60)
            approx = _coeffs(_fractions(vec), int(nu) + 1)
            _same_as_oracle(
                _extend(op, IDENTITY_PHI, approx, extra),
                prolong_oracle(op, IDENTITY_PHI, approx, extra),
            )
    assert checked >= 30


def test_prolong_over_common_denominators():
    # prolongation runs on ints: the operator scaled by L, the prefix by D, and
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
        nu = nu_mu_oracle(transformed)[0]
        if nu < 0:
            continue
        for vec in _lower_kernel(transformed):
            checked += 1
            transformed_checked += t is phi
            unit = rng.choice((F(1, 6), F(-5, 6), F(7, 3)))
            approx = [(n, c * unit) for n, c in _fractions(vec)]
            extra = rng.randint(0, 40)
            head = _coeffs(approx, int(nu) + 1)
            out = _extend(op, t, head, extra)
            _same_as_oracle(out, prolong_oracle(op, t, head, extra))
            prefix_den = max(c.denominator for _, c in approx)
            grown += max(c.denominator for _, c in _fractions(out)) > prefix_den
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
        heads = series_basis(op, 0).elements
        assert heads
        for head in heads:
            out = _extend(op, IDENTITY_PHI, dense(head), 2500)
            assert any(n >= 2000 for n, _ in out[1])
            _same_as_oracle(out, prolong_oracle(op, IDENTITY_PHI, dense(head), 2500))


def test_prolong_invariant_check_matches_oracle(monkeypatch, running_example):
    # An understated mu makes prolongation rows read coefficients they
    # are meant to determine; both forms must notice on the same inputs.
    # The Recurrence keeps floor(mu) as the int `mu_floor`; the oracle
    # reads mu from nu_mu_oracle.
    shift = [0]

    def shifted_nu_mu(op):
        nu, mu = nu_mu_oracle(op)
        return nu, mu - shift[0]

    init = Recurrence.__init__

    def understated(rec, op, phi):
        init(rec, op, phi)
        rec.mu_floor -= shift[0]

    monkeypatch.setattr(Recurrence, "__init__", understated)
    monkeypatch.setattr(oracles, "nu_mu_oracle", shifted_nu_mu)

    def raises(fn, op, approx, extra):
        try:
            fn(op, IDENTITY_PHI, approx, extra)
        except InternalInvariantError:
            return True
        return False

    shift[0] = 1
    with pytest.raises(InternalInvariantError):
        extend_prefix(running_example, [0, 0, 0, 1], 9)

    rng = random.Random(606)
    seen = set()
    for _ in range(150):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 6)
        shift[0] = 0
        nu = nu_mu_oracle(op)[0]
        if nu < 0:
            continue
        for vec in _lower_kernel(op):
            shift[0] = rng.randint(1, 4)
            extra = rng.randint(0, 20)
            approx = _coeffs(_fractions(vec), int(nu) + 1)
            verdict = raises(_extend, op, approx, extra)
            assert verdict == raises(prolong_oracle, op, approx, extra)
            seen.add(verdict)
    assert seen == {True, False}


def test_window_solve_runs_on_ints(monkeypatch, running_example):
    # seeds, push, residuals and the one rref all run on ints, and the
    # basis comes back as (den, pairs): no Fraction is built or used
    recs = [Recurrence(running_example, phi) for phi in (IDENTITY_PHI, PhiTransform(-1, 2, -3))]
    sizes = [(rec.mu_floor + 1, rec.nu_floor + 1) for rec in recs]
    calls = count_fraction_arithmetic(monkeypatch)
    basis, sheared = [rmatrix._window(rec, h, w, 1) for rec, (h, w) in zip(recs, sizes)]
    assert calls == Counter()
    monkeypatch.undo()
    assert basis == ((1, ((3, 1),)),)
    assert sheared == ((1, ((0, 1), (2, -1), (4, 1), (6, -1))), (1, ((7, 1),)))


K = rmatrix._NEAR_TAIL


def _kernel_calls(monkeypatch) -> Counter:
    """Count the calls of `_walk` under "walk" and of `_push` under
    "push", from now on."""
    calls = Counter()
    for name in ("_walk", "_push"):
        original = getattr(rmatrix, name)

        def counted(*args, _original=original, _key=name[1:], **kwargs):
            calls[_key] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(rmatrix, name, counted)
    return calls


def _walks(op, phi) -> bool:
    """The kernel rule, read off the transformed operator's coefficients:
    l_0's trailing coefficient is +-1 over the lcm of all denominators,
    and the next term of l_0 lies at most K above it."""
    transformed = phi_apply(op, phi)
    l0 = transformed.coeffs[0]
    lcm = math.lcm(*(lk.den for lk in transformed.coeffs))
    (v0, c0), rest = l0.terms[0], l0.terms[1:]
    return abs(c0 * lcm) == 1 and bool(rest) and rest[0][0] - v0 <= K


def _tail_product(radix, d, tail, left=None) -> MahlerOperator:
    """left * (d M - u), u = d + (c x^o for the (o, c) pairs in tail):
    the right factor has a power-series solution 1 + ..., and a left
    factor with a monomial l_0 keeps l_0's tail and |d|."""
    u = Poly.from_integers(1, [(0, d), *tail])
    right = MahlerOperator(radix, [-u, Poly.monomial(0, d)])
    return right if left is None else left * right


def _factors(radix, factors) -> MahlerOperator:
    """The product of the factors d M - u, u = d + (the tail's terms),
    for the (d, tail) pairs in `factors`, the first one on the right."""
    op = _tail_product(radix, *factors[0])
    for d, tail in factors[1:]:
        op = _tail_product(radix, d, tail) * op
    return op


def _heads(op, phi):
    """The window-solve basis of phi(op) for prolongation, nu >= 0."""
    rec = Recurrence(op, phi)
    return rmatrix._window(rec, rec.mu_floor + 1, rec.nu_floor + 1, 1)


def _combine(heads, weights):
    """sum w_i head_i as (den, pairs); nonzero weights on an echelon
    basis give a nonzero head."""
    den = math.lcm(*(h[0] for h in heads))
    acc = Counter()
    for (hd, pairs), w in zip(heads, weights):
        for n, v in pairs:
            acc[n] += w * v * (den // hd)
    return den, tuple(sorted((n, v) for n, v in acc.items() if v))


coefficients = st.sampled_from((-2, -1, 1, 2))


@st.composite
def walk_cases(draw):
    """(op, phi, extra, weights): o_min from 1 to K + 1, diagonals +-1 and
    2, left factors x^a + l_1 M that lengthen the head, and the Puiseux
    transforms `puiseux_basis` prolongs under, which multiply o_min by
    the ramification; and, one case in four, a product of two or three
    factors d M - u with d = +-1 and o_min <= 2 prolonged 300 to 400
    rows, whose coefficients are dense and whose terms mix +1, -1 and
    other coefficients in l_0's tail and in the M^k blocks."""
    radix = draw(st.sampled_from((2, 3)))
    weights = draw(st.lists(st.sampled_from((1, -1, 2, -3)), min_size=4, max_size=4))

    def tail(o_min):
        above = sorted(draw(st.sets(st.integers(o_min + 1, 3 * K), max_size=3)))
        return [(o, draw(coefficients)) for o in [o_min, *above]]

    if draw(st.integers(0, 3)) == 0:
        factors = [
            (draw(st.sampled_from((1, -1))), tail(draw(st.integers(1, 2))))
            for _ in range(draw(st.integers(2, 3)))
        ]
        return _factors(radix, factors), IDENTITY_PHI, draw(st.integers(300, 400)), weights
    d = draw(st.sampled_from((1, -1, 2)))
    left = None
    if draw(st.booleans()):
        l0 = Poly.monomial(draw(st.integers(0, 8)), draw(st.sampled_from((1, -1))))
        exps = sorted({0} | draw(st.sets(st.integers(1, 3), max_size=2)))
        l1 = Poly.from_integers(1, [(e, draw(coefficients)) for e in exps])
        left = MahlerOperator(radix, [l0, l1])
    op = _tail_product(radix, d, tail(draw(st.integers(1, K + 1))), left)
    phi = IDENTITY_PHI
    ramification = draw(st.sampled_from((1, 3, 5) if radix == 2 else (1, 2, 5)))
    if ramification > 1:
        edge = ramification_edge(lower_polygon(op), ramification)
        slope, (u1, j1) = edge_slope(edge), edge.start
        intercept = j1 - slope * u1
        phi = PhiTransform(-int(slope * ramification), ramification, int(intercept * ramification))
    return op, phi, draw(st.integers(1, 60)), weights


# l_0's tail and the M^k blocks of this product each have coefficients
# +1, -1 and others, and it is prolonged 320 rows
THREE_FACTORS = _factors(2, [(1, [(1, 2), (2, 2)]), (-1, [(1, 1)]), (-1, [(2, -1), (4, 2)])])


@example((THREE_FACTORS, IDENTITY_PHI, 320, [1, -1, 2, -3]))
@given(walk_cases())
def test_walk_matches_oracle(case):
    # each prolongation takes the kernel the rule names, and both give
    # the oracle's coefficients, repr for repr
    op, phi, extra, weights = case
    heads = _heads(op, phi)
    assert heads  # the right factor's series solution, at least
    head = _combine(heads, weights)
    nu = nu_mu_oracle(phi_apply(op, phi))[0]
    den, pairs = head
    approx = _coeffs([(n, F(v, den)) for n, v in pairs], math.floor(nu) + 1)
    with pytest.MonkeyPatch.context() as mp:
        calls = _kernel_calls(mp)
        out = _extend(op, phi, approx, extra)
    assert calls == Counter({"walk" if _walks(op, phi) else "push": 1})
    _same_as_oracle(out, prolong_oracle(op, phi, approx, extra))
    if _walks(op, phi):
        # where the walk runs, the push gives the same (scale, pairs) result
        assert [lowest_terms(den * s, p) for s, p in _both_kernels(op, phi, pairs, extra)] == [out] * 2


def _both_kernels(op, phi, support, extra) -> list:
    """(scale, pairs) of `_walk` and of `_push`, called as `_prolong` calls
    them, on phi(op), a head's support and `extra` rows past floor(mu)."""
    rec = Recurrence(op, phi)
    (_, tv0, d), *terms = rec.integer_terms[1]
    mu_floor = rec.mu_floor
    args = (terms, support, d, mu_floor, mu_floor + extra, tv0)
    return [rmatrix._walk(*args), rmatrix._push(*args)]


def test_kernels_return_the_head_with_no_row_to_solve(running_example):
    # with no row past floor(mu) both kernels return the support over
    # scale 1, and `extend_prefix` returns the head in lowest terms; a
    # diagonal of 2 pushes
    assert _both_kernels(running_example, IDENTITY_PHI, [(3, 6)], 0) == [(1, [(3, 6)])] * 2
    assert extend_prefix(running_example, [0, 0, 0, F(6, 6)], 0) == (1, [0, 0, 0, 1])
    op = _tail_product(3, 2, [(1, 1), (2, -1)])
    (head,) = _heads(op, IDENTITY_PHI)
    rec = Recurrence(op, IDENTITY_PHI)
    (_, tv0, d), *terms = rec.integer_terms[1]
    mu_floor = rec.mu_floor
    scaled = [(n, 4 * v) for n, v in head[1]]
    scale, pairs = rmatrix._push(terms, scaled, d, mu_floor, mu_floor, tv0)
    assert d == -2 and scale == 1 and lowest_terms(4 * head[0], pairs) == head


def test_prolong_kernel_choice(monkeypatch, running_example, sparse_stretch_example):
    # the transformed operator alone picks the kernel: o_min = K walks and
    # K + 1 pushes, as do a diagonal of 2 (also from scaling by 2/3, which
    # puts 3 into the lcm) and l_0 without a tail
    cases = [
        (_tail_product(2, 1, [(K, 1), (K + 1, -1)]), "walk"),
        (_tail_product(3, -1, [(K, -1), (2 * K, 2)]), "walk"),
        (_tail_product(2, 1, [(K + 1, 1), (K + 2, -1)]), "push"),
        (_tail_product(3, 2, [(1, 1)]), "push"),
        (Poly.monomial(0, F(2, 3)) * _tail_product(2, 1, [(1, -1), (2, 1)]), "push"),
        (-_tail_product(2, -1, [(1, 1)]), "walk"),
        (MahlerOperator(2, [Poly.monomial(1, -1), ONE + X]), "push"),
        (running_example, "walk"),
    ]
    for op, kernel in cases:
        assert _walks(op, IDENTITY_PHI) == (kernel == "walk")
        (head,) = _heads(op, IDENTITY_PHI)
        approx = _coeffs(_fractions(head), int(nu_mu_oracle(op)[0]) + 1)
        calls = _kernel_calls(monkeypatch)
        out = _extend(op, IDENTITY_PHI, approx, 300)
        monkeypatch.undo()
        assert calls == Counter({kernel: 1})
        _same_as_oracle(out, prolong_oracle(op, IDENTITY_PHI, approx, 300))
    # nu = -1 leaves only the empty head, which extends to zero with no
    # kernel, and so do nu = -3, on an operator that walks and on one that
    # pushes, and nu = -1/4; the kernels never start below position 0
    x3 = Poly.monomial(3)
    assert _walks(MahlerOperator(2, [ONE + X, X]), IDENTITY_PHI)
    assert _walks(MahlerOperator(2, [ONE + X, x3]), IDENTITY_PHI)
    negative = [(2, [ONE + X, X]), (2, [ONE + X, x3]), (2, [ONE, x3]), (5, [ONE, X])]
    for (radix, coeffs), nu in zip(negative, (-1, -3, -3, F(-1, 4))):
        op = MahlerOperator(radix, coeffs)
        assert nu_mu_oracle(op)[0] == nu
        calls = _kernel_calls(monkeypatch)
        for length in (1, 2, 6, 8):
            assert extend_prefix(op, [0], length) == (1, [0] * length)
        with pytest.raises(InconsistentPrefixError, match="extends to no series solution"):
            extend_prefix(op, [1], 8)
        monkeypatch.undo()
        assert not calls

    # the window solve pushes; the sparse products M - (1 +- x^e), e >= 2000,
    # at order 10^4 and the stretch operator push everywhere
    calls = _kernel_calls(monkeypatch)
    series_basis(running_example, 40)
    assert calls == Counter({"push": 1, "walk": 1})
    calls.clear()
    rng = random.Random(505)
    for _ in range(3):
        exps = rng.sample(range(2000, 2400), rng.randint(1, 2))
        u = ONE + Poly([(e, F(rng.choice((-1, 1)))) for e in exps])
        assert len(series_basis(MahlerOperator(rng.choice((2, 3)), [-u, ONE]), 10**4).elements) == 1
    puiseux_basis(sparse_stretch_example, None, 100)
    assert calls["walk"] == 0 and calls["push"] >= 6


def test_walk_runs_on_ints(monkeypatch, running_example):
    # the walk builds no Fraction, on a dense sheared prolongation and on
    # finite solutions: p M - p(x^b) has the polynomial solution p, and
    # l_0 = -p(x^b) has the diagonal -1 and o_min = b <= K, so every row
    # past deg p solves to zero
    p = Poly.from_integers(1, [(0, 1), (1, -2), (3, 5)])
    cases = [(running_example, PhiTransform(-1, 2, -3))]
    for radix in (2, 3):
        left = MahlerOperator(radix, [ONE, X - ONE])
        op = left * MahlerOperator(radix, [-mahler_substitute(p, radix), p])
        cases.append((op, IDENTITY_PHI))
    heads = [_heads(op, phi)[0] for op, phi in cases]
    approxes = [
        _coeffs(_fractions(head), int(nu_mu_oracle(phi_apply(op, phi))[0]) + 1)
        for (op, phi), head in zip(cases, heads)
    ]
    calls = count_fraction_arithmetic(monkeypatch)
    walked = []
    original = rmatrix._walk

    def counted(*args):
        before = calls.copy()
        out = original(*args)
        walked.append(calls - before)
        return out

    monkeypatch.setattr(rmatrix, "_walk", counted)
    results = [_extend(op, phi, approx, 60) for (op, phi), approx in zip(cases, approxes)]
    monkeypatch.undo()
    assert walked == [Counter()] * 3
    assert len(results[0][1]) > 30 and results[1] == results[2] == (1, p.nums)
    for (op, phi), approx, out in zip(cases, approxes, results):
        _same_as_oracle(out, prolong_oracle(op, phi, approx, 60))
