import math
import random
from collections import Counter
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from conftest import count_fraction_arithmetic, from_terms, mono
from oracles import eliminate
from mahlersolve.linalg import independent, rref
from mahlersolve.operator import MahlerOperator, integer_terms
from mahlersolve.poly import gcd, poly_sections

F = Fraction
DENOMINATORS = (1, 2, 3, 7)


def random_matrix(rng: random.Random, nrows: int, ncols: int) -> list[list[Fraction]]:
    """Sparse-ish entries with denominators 1/2/3/7, some rows repeated as
    combinations of others, some rows and columns zeroed."""

    def entry():
        return F(rng.randint(-4, 4), rng.choice(DENOMINATORS)) if rng.random() < 0.6 else F(0)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    for i in range(nrows):
        roll = rng.random()
        if roll < 0.15 and i >= 2:
            a, b = F(rng.randint(-3, 3), rng.choice(DENOMINATORS)), F(rng.randint(-3, 3))
            rows[i] = [a * x + b * y for x, y in zip(rows[i - 1], rows[i - 2])]
        elif roll < 0.25:
            rows[i] = [F(0)] * ncols
    if rng.random() < 0.3:
        j = rng.randrange(ncols)
        for r in rows:
            r[j] = F(0)
    return rows


def hankel(series: list[Fraction], nrows: int, ncols: int) -> list[list[Fraction]]:
    """The matrix (y_{i+j}) of bell_coons_rank."""
    return [[series[i + j] for j in range(ncols)] for i in range(nrows)]


def matrices():
    rng = random.Random(2024)
    shapes = [(1, 1), (1, 7), (7, 1), (3, 3), (4, 9), (9, 4), (6, 6), (2, 12)]
    for nrows, ncols in shapes:
        for _ in range(60):
            yield random_matrix(rng, nrows, ncols)
    yield [[F(0)] * 5 for _ in range(3)]
    yield [[F(0)]]
    # a rational series (rank 2) and a random one (full rank), in
    # bell_coons_rank's shapes
    fib = [F(1, 3), F(1, 3)]
    while len(fib) < 166:
        fib.append(fib[-1] + fib[-2])
    noise = [F(rng.randint(-5, 5), rng.choice(DENOMINATORS)) for _ in range(166)]
    for series in (fib, noise):
        for nrows, ncols in [(4, 20), (8, 40), (20, 146)]:
            yield hankel(series, nrows, ncols)


def rref_fractions(rows):
    """rref's int rows over its den as Fractions, after checking the form:
    a positive int den, int entries, and den on every pivot."""
    den, reduced, pivots = rref(rows)
    assert type(den) is int and den > 0
    assert all(type(v) is int for r in reduced for v in r)
    assert all(r[p] == den for r, p in zip(reduced, pivots))
    return [[F(v, den) for v in r] for r in reduced], pivots


def test_rref_matches_oracle():
    count = 0
    for rows in matrices():
        assert repr(rref_fractions(rows)) == repr(eliminate(rows))
        count += 1
    assert count > 480


def test_rref_accepts_int_entries():
    rows = [[2, 4, 1], [1, 2, F(1, 2)], [0, 0, 3]]
    assert repr(rref_fractions(rows)) == repr(eliminate([[F(v) for v in r] for r in rows]))
    # a negative last pivot still gives a positive den
    assert rref([[2, 1], [0, -3]]) == (6, [[6, 0], [0, 6]], [0, 1])
    assert rref([[0, 0]]) == (1, [], [])


def full_row_rank(rows) -> bool:
    return len(eliminate([[F(v) for v in r] for r in rows])[0]) == len(rows)


def test_rank_matches_oracle():
    for rows in matrices():
        assert independent(rows) == full_row_rank(rows)


entries = st.one_of(
    st.integers(-4, 4),
    st.builds(F, st.integers(-4, 4), st.sampled_from(DENOMINATORS)),
    st.builds(F, st.integers(-(10**20), 10**20), st.sampled_from((1, 3, 10**12))),
)


@st.composite
def row_lists(draw):
    """Rows of ints and Fractions; some zero, some combinations of the
    rows before them."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(1, 7))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("free", "free", "zero", "combination")))
        if kind == "zero":
            rows.append([0] * ncols)
        elif kind == "combination" and rows:
            weights = draw(st.lists(entries, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((w * r[j] for w, r in zip(weights, rows)), F(0)) for j in range(ncols)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows


@given(row_lists())
def test_independent_matches_oracle(rows):
    assert independent(rows) == full_row_rank(rows)
    assert independent(iter(rows)) == full_row_rank(rows)
    # rref's back-substitution on the same rows, whose minors grow large
    assert repr(rref_fractions(rows)) == repr(eliminate([[F(v) for v in r] for r in rows]))


def test_independent_shapes():
    assert independent([]) is True
    assert independent([[F(0), F(0), F(0)]]) is False
    assert independent([[0, F(1, 3), 2]]) is True
    assert independent([[F(2, 3)], [F(5)]]) is False
    assert independent([[F(2, 3)]]) is True
    assert independent([[F(0)], [F(1)]]) is False
    # a row that combines earlier rows, after a row with another pivot column
    a, b = [0, 1, F(1, 2), 3], [2, 0, 5, F(-1, 7)]
    assert independent([a, b]) is True
    assert independent([a, b, [F(1, 3) * x - 4 * y for x, y in zip(a, b)]]) is False


def recurrence_series(rng: random.Random, rho: int, length: int) -> list[Fraction]:
    """A rational series p/q with deg q = rho (order-rho recurrence)."""
    coeffs = [F(rng.randint(-5, 5), rng.choice(DENOMINATORS)) for _ in range(rho - 1)]
    coeffs.append(F(rng.choice((-3, -1, 1, 2)), rng.choice(DENOMINATORS)))
    series = [F(rng.randint(-5, 5), rng.choice(DENOMINATORS)) for _ in range(rho)]
    while len(series) < length:
        series.append(sum((c * series[-1 - i] for i, c in enumerate(coeffs)), F(0)))
    return series


def test_independent_hankel_of_rational_series_and_noise():
    rng = random.Random(11)
    for rho in range(1, 7):
        series = recurrence_series(rng, rho, 24 + 170)
        matrix = hankel(series, 24, 170)
        assert independent(matrix) is False
        assert full_row_rank(matrix[:rho]) == independent(matrix[:rho])
    noise = [F(rng.randint(-5, 5), rng.choice(DENOMINATORS)) for _ in range(24 + 170)]
    assert independent(hankel(noise, 24, 170)) is True


def test_independent_stops_at_first_dependent_row():
    rng = random.Random(12)
    for rho in range(1, 7):
        series = recurrence_series(rng, rho, 40 + 120)
        rank = len(eliminate(hankel(series, 40, 120))[0])
        assert rank <= rho
        read = [0]

        def rows():
            for i in range(40):
                read[0] += 1
                yield series[i : i + 120]

        assert independent(rows()) is False
        assert read[0] <= rank + 1


def test_kernels_run_on_ints(monkeypatch):
    rng = random.Random(3)
    series = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(20 + 146)]
    matrix = hankel(series, 20, 146)
    p = from_terms((e, F(rng.randint(-9, 9), rng.randint(1, 7))) for e in range(0, 40, 3))
    q = from_terms((e, F(rng.randint(-9, 9), rng.randint(1, 7))) for e in range(0, 30, 2))
    rational = hankel(recurrence_series(rng, 4, 20 + 146), 20, 146)
    calls = count_fraction_arithmetic(monkeypatch)
    den, reduced, pivots = rref(matrix)
    verdicts = independent(matrix), independent(rational)
    product = p * q
    assert calls == Counter()
    monkeypatch.undo()
    assert len(pivots) == 20 and verdicts == (True, False)
    identity = [[den * (i == j) for j in range(20)] for i in range(20)]
    assert [r[:20] for r in reduced] == identity
    assert product.degree == p.degree + q.degree


def test_poly_arithmetic_runs_on_ints(monkeypatch):
    rng = random.Random(5)

    def draw(top):
        return from_terms((e, F(rng.randint(-9, 9), rng.randint(1, 7))) for e in range(0, top, 2))

    p, q, common = draw(40), draw(30), draw(8)
    a, b = p * common, q * common
    op = MahlerOperator(3, [p, q, common])
    c = F(-3, 5)
    calls = count_fraction_arithmetic(monkeypatch)
    results = [
        p + q,
        p - q,
        -p,
        p * q,
        *p.divmod(q),
        a.exact_div(common),
        gcd(a, b),
        p.monic(),
        p * mono(0, c),
        p * mono(0, 7),
        *poly_sections(p, 3),
        integer_terms(op),
    ]
    assert calls == Counter()
    monkeypatch.undo()
    # the results are right, too
    assert results[6] == p and results[7] == common.monic() * gcd(p, q)
    assert results[-1][0] == math.lcm(p.den, q.den, common.den)
