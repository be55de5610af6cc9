import math
import random
import signal
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import settings

from mahlersolve.operator import MahlerOperator, image_below, integer_terms
from mahlersolve.poly import Poly

# Property tests draw the same examples on every run and keep no example
# database, so the suite stays deterministic.
settings.register_profile("deterministic", derandomize=True, database=None, deadline=None)
settings.load_profile("deterministic")

# Seconds a test may run before it fails; the slowest takes about 2 s, so
# only a hang (say, a kernel loop that stops advancing) reaches this.
TEST_TIME_LIMIT_S = 120


class TimeLimitExceeded(BaseException):
    """Not an Exception, so that neither `except Exception` nor
    Hypothesis, which would rerun the example to shrink it, catches it."""


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the test that runs past TEST_TIME_LIMIT_S, so that a hang
    fails one test instead of stalling the suite."""

    def expire(signum, frame):
        raise TimeLimitExceeded(f"test ran past its {TEST_TIME_LIMIT_S} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def from_terms(pairs) -> Poly:
    """The polynomial sum of c x^e over the (e, c) pairs, c an int or a
    Fraction; repeated exponents add up and zero sums drop out."""
    acc = Counter()
    for e, c in pairs:
        acc[e] += Fraction(c)
    return Poly.from_integers(*integer_pairs(sorted((e, c) for e, c in acc.items() if c)))


def terms(x) -> tuple:
    """The (exponent, Fraction coefficient) pairs of a Poly, or of a
    PuiseuxSeries with Fraction exponents."""
    ram = getattr(x, "ramification", None)
    return tuple((e if ram is None else Fraction(e, ram), Fraction(n, x.den)) for e, n in x.nums)


def coefficient(p: Poly, e: int) -> Fraction:
    return dict(terms(p)).get(e, Fraction(0))


def valuation(series):
    """The least exponent of a PuiseuxSeries as a Fraction; None for 0."""
    return Fraction(series.nums[0][0], series.ramification) if series.nums else None


def rational_valuation(f) -> int:
    """The least exponent of the Laurent expansion of a nonzero
    RationalFunction numerator / (x^x_power denominator)."""
    return f.numerator.valuation - f.x_power


def pol(*coeffs) -> Poly:
    """Dense helper: pol(c0, c1, ...) = c0 + c1 x + ..."""
    return from_terms(enumerate(coeffs))


def evaluate(p: Poly, point) -> Fraction:
    """p(point), term by term."""
    return sum((c * Fraction(point) ** e for e, c in terms(p)), Fraction(0))


def derivative(p: Poly) -> Poly:
    return from_terms((e - 1, e * c) for e, c in terms(p) if e)


def mono(e, c=1) -> Poly:
    return Poly.monomial(e, c)


def signed(plus, minus=()) -> Poly:
    """Polynomial with +1 coefficients at `plus` and -1 at `minus`."""
    return from_terms([(e, 1) for e in plus] + [(e, -1) for e in minus])


def operator(radix, *coeffs) -> MahlerOperator:
    return MahlerOperator(radix, list(coeffs))


def image_fractions(op, den: int, nums, limit: int, scale: int = 1) -> dict[int, Fraction]:
    """op applied to sum(v x^(e/scale)) / den below x^(limit/scale), as
    `image_below` gives it, each nonzero coefficient s over the
    operator's lcm L read as Fraction(s, den L)."""
    lcm, image = image_below(integer_terms(op), nums, limit, scale)
    return {m: Fraction(s, den * lcm) for m, s in image.items()}


def recurrence_row(op, m: int, width: int) -> list[tuple[int, Fraction]]:
    """Nonzero entries (n, value) of row m of the recurrence of op on the
    columns 0..width-1: the coefficient of x^m in op(x^n), read from the
    library's one operator application."""
    return [(n, v) for n in range(width) if (v := image_fractions(op, 1, [(n, 1)], m + 1).get(m))]


def dense(elem) -> list[Fraction]:
    """Coefficients 0..T-1 of a power series c_0 + c_1 x + ... + O(x^T),
    given as a PuiseuxSeries of ramification 1."""
    assert elem.ramification == 1
    out = [Fraction(0)] * elem.truncation_order
    for e, c in terms(elem):
        out[int(e)] = c
    return out


def integer_pairs(pairs) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(den, pairs): (n, c) pairs with int or Fraction c as the (n, int)
    pairs over their lowest common denominator, the form the window solve
    and prolongation pass around."""
    den = math.lcm(*(c.denominator for _, c in pairs))
    return den, tuple((n, c.numerator * (den // c.denominator)) for n, c in pairs)


def count_fraction_arithmetic(monkeypatch) -> Counter:
    """Count every Fraction + - * / (as the perfbench tracer does) under
    "arithmetic" and every Fraction built, `Fraction(n, d)` included,
    under "new", from now on."""
    calls = Counter()
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"):
        original = getattr(Fraction, name)

        def counted(*args, _original=original):
            calls["arithmetic"] += 1
            return _original(*args)

        monkeypatch.setattr(Fraction, name, counted)
    original_new = Fraction.__new__

    def counted_new(cls, *args, **kwargs):
        calls["new"] += 1
        return original_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    return calls


def forbid_basis_solve(monkeypatch) -> None:
    """Make the rational basis solver, its window solve and its echelon
    form raise when `rational` calls them, from now on."""
    from mahlersolve import rational

    def unreachable(*args):
        raise AssertionError("solved for a rational basis")

    for name in ("rational_basis", "polynomial_solutions_bounded", "_echelon"):
        monkeypatch.setattr(rational, name, unreachable)


@pytest.fixture(scope="session")
def running_example() -> MahlerOperator:
    """Order-2 radix-3 operator whose Newton polygon has slopes -3 and 1/2."""
    one = Poly.one()
    l2 = mono(3) * pol(1, 0, 0, -1, 0, 0, 1) * (one - mono(7) - mono(10))
    l1 = -(one - mono(28) - mono(31) - mono(37) - mono(40))
    l0 = mono(6) * pol(1, 1) * (one - mono(21) - mono(30))
    return MahlerOperator(3, [l0, l1, l2])


@pytest.fixture(scope="session")
def running_example_series() -> list[Fraction]:
    """Coefficients 0..12 of the power-series solution of the operator above."""
    return [Fraction(c) for c in [0, 0, 0, 1, -1, 1, -2, 2, -2, 3, -3, 3, -5]]


@pytest.fixture(scope="session")
def rat_example() -> MahlerOperator:
    """Order-2 radix-3 operator with rational solutions 1/(2x-1), 1/(x^2-x-1)."""
    one = Poly.one()
    l2 = pol(3, -1, 0, -1, 2) * pol(-1, *[0] * 8, 2) * (mono(18) - mono(9) - one)
    l1 = -(
        pol(1, 0, 1)
        * pol(-1, 0, 0, 2)
        * (mono(4) + one)
        * (mono(6) - mono(3) - one)
        * (pol(3, -1) + mono(9, -1) + mono(10, 2))
    )
    l0 = (
        mono(2)
        * pol(-1, 2)
        * pol(1, 1, 1)
        * pol(1, -1, 1)
        * pol(-1, -1, 1)
        * (pol(3) + mono(3, -1) + mono(9, -1) + mono(12, 2))
    )
    return MahlerOperator(3, [l0, l1, l2])


@pytest.fixture(scope="session")
def rat_example_transformed() -> MahlerOperator:
    """The same equation after the change of unknown y = q_star * y~."""
    one = Poly.one()
    q1, q2, q3, q4 = pol(-1, 2), pol(-1, -1, 1), pol(-1, 8), pol(-1, -4, 1)
    f2x4 = pol(3, -1, 0, -1, 2)
    f12 = pol(1, 0, 0, -1, 0, 0, 2, 0, 0, 1, 0, 0, 1)
    tl2 = q1 * q3 * q2 * q4 * pol(1, 2, 4) * f2x4 * pol(1, -1, 2, 1, 1)
    tl1 = -(
        q3
        * pol(1, 0, 1)
        * q4
        * pol(-1, 0, 0, 2)
        * (mono(4) + one)
        * (mono(6) - mono(3) - one)
        * (pol(1) + mono(3, 2) + mono(6, 4))
        * (pol(3, -1) + mono(9, -1) + mono(10, 2))
        * f12
    )
    tl0 = (
        mono(2)
        * q1
        * pol(1, 1, 1)
        * pol(1, -1, 1)
        * q2
        * pol(1, 2, 4)
        * pol(-1, 0, 0, 2)
        * pol(1, -1, 2, 1, 1)
        * (mono(6) - mono(3) - one)
        * (pol(1) + mono(3, 2) + mono(6, 4))
        * f12
        * (pol(3) + mono(3, -1) + mono(9, -1) + mono(12, 2))
    )
    return MahlerOperator(3, [tl0, tl1, tl2])


@pytest.fixture(scope="session")
def reduction_example() -> MahlerOperator:
    """Order-4 radix-3 operator with zero trailing coefficient."""
    l1 = mono(9) * signed([0, 51, 54, 108], [15, 87]) * signed([0, 24], [12])
    l2 = -(
        mono(3)
        * signed(
            [0, 6, 30, 32, 33, 36, 54, 56, 57, 60, 80, 81, 84, 90, 104, 105, 108, 114, 138, 144],
            [20, 21, 44, 45, 68, 69, 92, 93, 116, 117],
        )
    )
    l3 = signed(
        [0, 3, 17, 18, 21, 35, 36, 39, 54, 57, 72, 75, 90, 93, 107, 108, 111, 125, 126, 129, 144, 147],
        [5, 23, 29, 47, 95, 113, 119, 137],
    )
    l4 = -(
        signed([0, 27, 54])
        * signed([0, 54], [27])
        * signed([0, 17, 18, 36], [5, 29])
    )
    return MahlerOperator(3, [Poly.zero(), l1, l2, l3, l4])


@pytest.fixture(scope="session")
def reduction_example_normalized() -> MahlerOperator:
    """The primitive order-2 operator the reduction example collapses to."""
    e0 = mono(2) * signed([0, 8], [4])
    e1 = -(signed([0, 4, 8], [2, 6]) * pol(1, 0, 2, 0, 1))
    e2 = signed([0, 3, 6]) * signed([0, 6], [3])
    return MahlerOperator(3, [e0, e1, e2])


@pytest.fixture(scope="session")
def sparse_stretch_example() -> MahlerOperator:
    """Order-11 radix-3 operator with exponents in the millions; exercises
    the sparse representation end to end."""
    data = [
        [(568, 1)],
        [(1218, -1), (1705, -1)],
        [(3655, 1)],
        [(162, -1), (10962, 1)],
        [(0, 1), (487, 1), (4104, -1), (4536, -1), (32887, -1)],
        [(1, -1), (11826, 1), (12313, 1), (13122, 1), (13609, 1)],
        [(0, -1), (35479, -1), (39367, -1)],
        [(1, 1), (95634, 1), (106434, -1), (118098, -1)],
        [(286416, -1), (286903, -1), (319303, 1), (354295, 1)],
        [(859249, 1)],
        [(2577744, 1)],
        [(7733233, -1)],
    ]
    return MahlerOperator(3, [from_terms(t) for t in data])


def random_poly(rng: random.Random, max_degree: int, min_terms=1, zero_ok=False) -> Poly:
    if zero_ok and rng.random() < 0.15:
        return Poly.zero()
    nterms = rng.randint(min_terms, max(min_terms, min(max_degree + 1, 4)))
    exps = rng.sample(range(max_degree + 1), min(nterms, max_degree + 1))
    pairs = []
    for e in exps:
        c = 0
        while c == 0:
            c = rng.randint(-3, 3)
        pairs.append((e, c))
    return from_terms(pairs)


def random_operator(
    rng: random.Random,
    radix: int,
    order: int,
    max_degree: int,
    nonzero_l0: bool = True,
) -> MahlerOperator:
    coeffs = [random_poly(rng, max_degree, zero_ok=True) for _ in range(order + 1)]
    while not coeffs[order]:
        coeffs[order] = random_poly(rng, max_degree)
    if nonzero_l0:
        while not coeffs[0]:
            coeffs[0] = random_poly(rng, max_degree)
    return MahlerOperator(radix, coeffs)


def random_rational_operator(
    rng: random.Random, radix: int, order: int, max_degree: int
) -> MahlerOperator:
    """random_operator with the trailing coefficient of l_0 drawn from
    +-2, +-3 and 3/2, then scaled by 2/3 or 5/7: coefficients with
    denominators and a recurrence diagonal other than +-1."""
    op = random_operator(rng, radix, order, max_degree)
    l0 = op.coeffs[0]
    diag = rng.choice((Fraction(2), Fraction(-2), Fraction(3), Fraction(-3), Fraction(3, 2)))
    l0 = from_terms([(l0.valuation, diag), *terms(l0)[1:]])
    scale = rng.choice((Fraction(2, 3), Fraction(5, 7)))
    return mono(0, scale) * MahlerOperator(radix, (l0, *op.coeffs[1:]))


def random_series_solvable_operator(
    rng: random.Random, radix: int, order: int, lead=1
) -> MahlerOperator:
    """Product of first-order factors lead*M - u where u has the trailing
    term lead*x^v, v divisible by radix-1; the rightmost factor then
    guarantees a nonempty power-series solution space.  A lead other
    than +-1 puts its powers into the denominators of the solutions."""
    result = None
    for _ in range(order):
        val = (radix - 1) * rng.randint(0, 1)
        u = Poly.monomial(val, lead) + random_poly(rng, 3, zero_ok=True).shift(val + 1)
        factor = MahlerOperator(radix, [-u, Poly.monomial(0, lead)])
        result = factor if result is None else result * factor
    return result


def random_poly_solvable(rng: random.Random, radix: int, order: int):
    """(operator, known polynomial solution p), built by composing a
    random left factor with the annihilator p(x) M - p(x^radix)."""
    from mahlersolve.poly import mahler_substitute

    p = random_poly(rng, 2)
    right = MahlerOperator(radix, [-mahler_substitute(p, radix), p])
    left = random_operator(rng, radix, max(0, order - 1), 2, nonzero_l0=True)
    return left * right, p
