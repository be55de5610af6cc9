import random
from fractions import Fraction

import pytest

from conftest import (
    from_terms,
    image_fractions,
    integer_pairs,
    mono,
    operator,
    pol,
    random_operator,
    random_poly,
    random_rational_operator,
    terms,
)
from oracles import (
    apply_exact,
    apply_to_fractional,
    interreduce_oracle,
    poly_sections_oracle,
    right_divide_oracle,
)
from mahlersolve.errors import (
    InternalInvariantError,
    InvalidArgumentError,
    MixedRadixError,
    NegativeExponentError,
    UnsupportedEquationError,
)
import mahlersolve.operator as operator_module
from mahlersolve.operator import (
    IDENTITY_PHI,
    MahlerOperator,
    PhiTransform,
    image_below,
    integer_terms,
    interreduce,
    operator_sections,
    phi_apply,
    primitive_part,
    right_remainder,
)
from mahlersolve.poly import Poly

F = Fraction
ONE = Poly.one()
X = Poly.x()


def test_structure():
    op = operator(2, pol(0, 1), Poly.zero(), pol(1))
    assert op.order == 2
    assert op.degree == 1
    assert op.m_valuation == 0
    assert operator(2, Poly.zero(), pol(1)).m_valuation == 1
    assert not MahlerOperator(3)
    with pytest.raises(UnsupportedEquationError):
        MahlerOperator(3).m_valuation


def test_multiply_commutation():
    # M * x = x^b M
    m = operator(3, Poly.zero(), ONE)
    xop = operator(3, X)
    assert m * xop == operator(3, Poly.zero(), Poly.monomial(3))
    # (M - x)(M - 1) = M^2 - (1+x) M + x
    a = operator(2, -X, ONE)
    b = operator(2, -ONE, ONE)
    assert a * b == operator(2, X, -pol(1, 1), ONE)
    # identity element
    e = operator(2, Poly.one())
    assert a * e == a and e * a == a


def test_multiply_properties_random():
    rng = random.Random(31)
    for _ in range(60):
        b = rng.choice((2, 3))
        a1 = random_operator(rng, b, rng.randint(0, 3), 6, nonzero_l0=False)
        a2 = random_operator(rng, b, rng.randint(0, 3), 6, nonzero_l0=False)
        a3 = random_operator(rng, b, rng.randint(0, 3), 6, nonzero_l0=False)
        assert (a1 * a2) * a3 == a1 * (a2 * a3)
        assert a1 * (a2 + a3) == a1 * a2 + a1 * a3
        if a1 and a2:
            assert (a1 * a2).order == a1.order + a2.order


def test_mixed_radix_rejected():
    with pytest.raises(MixedRadixError):
        operator(2, ONE) * operator(3, ONE)


def test_image_below_solutions(running_example, running_example_series):
    y = [(n, c) for n, c in enumerate(running_example_series[:10]) if c]
    assert image_below(integer_terms(running_example), integer_pairs(y)[1], 16)[1] == {}
    assert image_below(integer_terms(running_example), [], 5)[1] == {}
    lop = operator(2, X, -pol(1, 1), ONE)
    assert image_below(integer_terms(lop), [(0, 1)], 12)[1] == {}


def test_image_below_matches_whole_image(running_example, monkeypatch):
    # the reference forms the whole image with rational exponents;
    # image_below, read over den * lcm, must agree with it on every
    # exponent below the limit, as the same canonical Fractions.
    # Operators with denominators and supports with denominators such
    # as 6 exercise the lcms by which the integer kernel scales both.
    # Short sparse supports sum into a dict.  Runs of 40-200 nonzero
    # coefficients, with negative exponents under a scale > 1, and
    # supports on either side of the cutover (more pairs than terms, and
    # a span and an image window under 2 len(nums)) reach the list path
    # too, the one path that calls add_scaled.  limit 10**6 stands for
    # math.inf.
    listed = []  # the coefficients add_scaled took during one call
    units = set()  # 1, -1, and 0 for any other coefficient, over all calls
    add_scaled = operator_module.add_scaled

    def counted(acc, pairs, c):
        listed.append(c)
        units.add(c if c in (1, -1) else 0)
        add_scaled(acc, pairs, c)

    monkeypatch.setattr(operator_module, "add_scaled", counted)

    def check(op, scale, support, limits) -> list[bool]:
        """Compare every limit with the reference; whether each ran on lists."""
        whole = apply_to_fractional(op, [(F(e, scale), c) for e, c in support])
        den, nums = integer_pairs(support)
        paths = []
        for limit in limits:
            want = sorted((int(e * scale), c) for e, c in whole.items() if e * scale < limit)
            listed.clear()
            # nonzero ints over the operator's lcm, read over den * lcm
            lcm, ints = image_below(integer_terms(op), nums, limit, scale)
            assert all(type(v) is int and v for v in ints.values())
            image = {m: F(v, den * lcm) for m, v in ints.items()}
            assert repr(sorted(image.items())) == repr(want)
            paths.append(bool(listed))
        return paths

    rng = random.Random(9090)
    phi = PhiTransform(1, 5, -2)  # 5 is coprime to both radices

    def random_case(i):
        radix = rng.choice((2, 3))
        if i % 2:
            op = random_operator(rng, radix, rng.randint(1, 3), 6, nonzero_l0=False)
        else:
            op = random_rational_operator(rng, radix, rng.randint(1, 3), 6)
        return phi_apply(op, phi) if i % 3 == 0 else op, rng.choice((1, 2, 5))

    def value():
        return F(rng.choice((-5, -2, -1, 1, 2, 7)), rng.choice((1, 2, 3, 6)))

    cases = [(phi_apply(running_example, PhiTransform(-1, 2, -3)), 1)]
    cases += [random_case(i) for i in range(90)]
    for op, scale in cases:
        exps = sorted(rng.sample(range(-8 if scale > 1 else 0, 30), rng.randint(0, 8)))
        support = [(e, value()) for e in exps]
        check(op, scale, support, (rng.randint(-5, 40), rng.randint(40, 200), 10**6))
    runs = []
    for i in range(24):
        op, scale = random_case(i)
        n = rng.randint(40, 200)
        first = rng.randint(-8, 0) if scale > 1 else rng.randint(0, 5)
        support = [(first + k, value()) for k in range(n)]
        limits = (rng.randint(0, n), rng.randint(n, 3 * n), 10**6)
        runs += check(op, scale, support, limits)
    # at the cutover: n pairs against the number of terms, a span of
    # 2n - 1 or 2n exponents, and a limit 2n - 1 or 2n above the least
    # image exponent
    cutover = []
    for i in range(12):
        op, scale = random_case(i)
        terms = integer_terms(op)[1]
        for n in (len(terms), len(terms) + 1 + i % 3):
            for span in (2 * n - 1, 2 * n):
                first = rng.randint(-3, 3)
                last = first + span - 1
                inner = sorted(rng.sample(range(first + 1, last), n - 2))
                support = [(e, value()) for e in (first, *inner, last)]
                base = min(j * scale + bk * first for bk, j, _ in terms)
                top = max(j * scale + bk * last for bk, j, _ in terms) + 1
                limits = (base + 2 * n - 1, base + 2 * n)
                dense = [
                    n > len(terms) and span < 2 * n and min(limit, top) - base < 2 * n
                    for limit in limits
                ]
                assert check(op, scale, support, limits) == dense
                cutover += dense
    # the zero operator has no terms and no image, however dense its input
    run = [(e, value()) for e in range(60)]
    assert check(MahlerOperator(2, []), 1, run, (30, 10**6)) == [False, False]
    assert any(runs) and not all(runs) and any(cutover) and not all(cutover)
    assert units == {1, -1, 0}


def test_apply_composition():
    # (a1 a2)(y) = a1(a2(y)) below t: no operator lowers an exponent, so
    # the terms of a2(y) from t on never reach below t
    rng = random.Random(8)
    for _ in range(30):
        b = rng.choice((2, 3))
        a1 = random_operator(rng, b, rng.randint(0, 2), 5, nonzero_l0=False)
        a2 = random_operator(rng, b, rng.randint(0, 2), 5, nonzero_l0=False)
        y = [(n, F(c)) for n in range(6) if (c := rng.randint(-3, 3))]
        t = 12
        inner = sorted(image_fractions(a2, *integer_pairs(y), t).items())
        assert image_fractions(a1 * a2, *integer_pairs(y), t) == image_fractions(
            a1, *integer_pairs(inner), t
        )


def test_image_below_matches_exact_polynomial_image():
    rng = random.Random(17)
    for _ in range(20):
        op = random_operator(rng, 2, 2, 5, nonzero_l0=False)
        p = random_poly(rng, 4, zero_ok=True)
        img = apply_exact(op, p)
        for limit in (img.degree + 2 if img else 8, rng.randint(0, 12)):
            want = {e: c for e, c in terms(img) if e < limit}
            assert image_fractions(op, p.den, p.nums, limit) == want


def test_right_divide_examples():
    a = operator(2, X, -pol(1, 1), ONE)
    b = operator(2, -ONE, ONE)
    c, q, r = right_divide_oracle(a, b)
    assert not r and not right_remainder(a, b)
    # quotient is the matching associate of M - x
    assert q == c * operator(2, -X, ONE)
    c2, q2, r2 = right_divide_oracle(a, a)
    assert not r2 and not right_remainder(a, a) and q2.order == 0


def test_right_divide_identity_random():
    rng = random.Random(23)
    for _ in range(40):
        radix = rng.choice((2, 3))
        a = random_operator(rng, radix, rng.randint(1, 3), 4, nonzero_l0=False)
        b = random_operator(rng, radix, rng.randint(0, 2), 3, nonzero_l0=False)
        if not b:
            continue
        c, q, r = right_divide_oracle(a, b)
        assert c
        assert c * a == q * b + r
        assert not r or r.order < b.order
        assert right_remainder(a, b) == r


def test_right_divide_invariant_is_typed(monkeypatch):
    # a step that leaves the order unreduced is a bug in the library:
    # a typed error, not an AssertionError; here the fused remainder step
    # forms g r_j and drops the subtraction of top b_(j-k)(x^(b^k))
    monkeypatch.setattr(operator_module, "mul_sub", lambda a, p, b, q: a * p)
    with pytest.raises(InternalInvariantError, match="failed to reduce the order"):
        right_remainder(operator(2, X, -pol(1, 1), ONE), operator(2, -ONE, ONE))


def test_phi_apply_running_example(running_example):
    transformed = phi_apply(running_example, PhiTransform(-1, 2, -3))
    t2 = (ONE - mono(6) + mono(12)) * (ONE - mono(14) - mono(20))
    t1 = -(ONE - mono(56) - mono(62) - mono(74) - mono(80))
    t0 = mono(14) * (ONE + mono(2)) * (ONE - mono(42) - mono(60))
    assert transformed == MahlerOperator(3, [t0, t1, t2])
    assert phi_apply(running_example, IDENTITY_PHI) == running_example


def test_phi_apply_sparse_stretch(sparse_stretch_example):
    big = phi_apply(sparse_stretch_example, PhiTransform(-2873, 65, -6283186))
    expected = [
        mono(6317233),
        -(mono(6353737) + mono(6385392)),
        mono(6494904),
        -(mono(6216145) - mono(6918145)),
        mono(6050473) + mono(6082128) - mono(6317233) - mono(6345313) - mono(8188128),
        -(mono(5585112) - mono(6353737) - mono(6385392) - mono(6437977) - mono(6469632)),
        # the exponent map preserves coefficients, so this one inherits the
        # all-negative signs of -(1 + x^35479 + x^39367)
        -(mono(4188769) + mono(6494904) + mono(6747624)),
        ONE + mono(6216145) - mono(6918145) - mono(7676305),
        -(mono(6050473) + mono(6082128) - mono(8188128) - mono(10462608)),
        mono(5585112),
        mono(4188769),
        -ONE,
    ]
    assert big == MahlerOperator(3, expected)


def test_phi_apply_negative_exponent():
    op = operator(2, ONE, ONE)
    with pytest.raises(NegativeExponentError):
        phi_apply(op, PhiTransform(0, 1, 1))
    with pytest.raises(InvalidArgumentError):
        phi_apply(operator(2, ONE), PhiTransform(0, 2, 0))  # beta not coprime


def test_operator_sections():
    m = operator(2, Poly.zero(), ONE)
    assert operator_sections(m)[0] == operator(2, Poly.one())
    assert not operator_sections(m)[1]
    # reconstruction: sum of x^i M S_i(L) = L for positive M-valuation
    rng = random.Random(3)
    for _ in range(200):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 3), 8, nonzero_l0=False)
        shifted = op.m_shift(1) if op.coefficient(0) else op
        total = MahlerOperator(radix)
        for i, s in enumerate(operator_sections(shifted)):
            total = total + operator(radix, Poly.monomial(i)) * operator(radix, Poly.zero(), ONE) * s
        assert total == shifted


def test_operator_sections_split_each_coefficient_once(monkeypatch):
    calls = []
    real = operator_module.poly_sections
    monkeypatch.setattr(operator_module, "poly_sections", lambda p, b: calls.append(p) or real(p, b))
    rng = random.Random(8)
    for _ in range(80):
        radix = rng.choice((2, 3, 5))
        op = random_operator(rng, radix, rng.randint(0, 3), 8, nonzero_l0=False)
        calls.clear()
        sections = operator_sections(op)
        assert len(calls) == sum(1 for k, _ in op.nonzero_coefficients() if k >= 1)
        expected = [{} for _ in range(radix)]
        for k, lk in op.nonzero_coefficients():
            for i, pairs in enumerate(poly_sections_oracle(terms(lk), radix) if k else ()):
                if pairs:
                    expected[i][k - 1] = from_terms(pairs)
        assert sections == [MahlerOperator.from_dict(radix, e) for e in expected]


def test_section_right_factor_compatibility():
    # S_i(P1 M P2) = S_i(P1 M) P2
    rng = random.Random(41)
    for _ in range(40):
        radix = rng.choice((2, 3))
        p1 = random_operator(rng, radix, rng.randint(0, 2), 4, nonzero_l0=False)
        p2 = random_operator(rng, radix, rng.randint(0, 2), 4, nonzero_l0=False)
        m = operator(radix, Poly.zero(), ONE)
        lhs = operator_sections(p1 * m * p2)
        rhs = [s * p2 for s in operator_sections(p1 * m)]
        assert lhs == rhs


def test_interreduce():
    op = operator(2, pol(1, 1), ONE)
    assert not interreduce(op, op)
    other = operator(2, pol(2), X)
    red = interreduce(op, other)
    assert not red or red.m_valuation >= 1
    with pytest.raises(UnsupportedEquationError):
        interreduce(op.m_shift(1), op)


def test_interreduce_matches_ring_formula():
    # the coefficient-wise mul_sub against c2*op1 - c1*op2 built from
    # operator products, on operators with and without denominators
    rng = random.Random(71)
    for _ in range(60):
        radix = rng.choice((2, 3))
        make = rng.choice((random_operator, random_rational_operator))
        op1 = make(rng, radix, rng.randint(0, 3), 4)
        op2 = make(rng, radix, rng.randint(0, 3), 4)
        for first, second in ((op1, op2), (op2, op1), (op1, op1)):
            assert interreduce(first, second) == interreduce_oracle(first, second)


def test_interreduce_right_factor_compatibility():
    # R(P1 P, P2 P) = c R(P1, P2) P with c the M^0 coefficient of P
    rng = random.Random(67)
    done = 0
    while done < 30:
        radix = rng.choice((2, 3))
        p1 = random_operator(rng, radix, rng.randint(0, 2), 3)
        p2 = random_operator(rng, radix, rng.randint(0, 2), 3)
        p = random_operator(rng, radix, rng.randint(0, 2), 3)
        done += 1
        c = p.coeffs[0]
        lhs = interreduce(p1 * p, p2 * p)
        rhs = operator(radix, c) * interreduce(p1, p2) * p
        assert lhs == rhs


def test_primitive_part():
    content = X * pol(1, 1)
    base = operator(3, pol(1, 2), pol(3), ONE)
    scaled = operator(3, content) * base
    c, prim = primitive_part(scaled)
    assert c == content and prim == base
    assert operator(3, content) * prim == scaled
    cop, pop = primitive_part(base)
    assert cop == ONE and pop == base
