import random
from fractions import Fraction

import pytest

from conftest import mono, operator, pol, random_operator, terms
from oracles import gcrd_oracle, qx_monic, same_span, series_prefix_space, sort_key_oracle
from mahlersolve.errors import (
    InternalInvariantError,
    InvalidArgumentError,
    MixedRadixError,
    UnsupportedEquationError,
)
from mahlersolve import normalize
from mahlersolve.normalize import (
    certify_gcrd,
    gcrd,
    normalize_l0,
    split,
)
from mahlersolve.operator import (
    MahlerOperator,
    operator_sections,
    right_remainder,
)
from mahlersolve.poly import Poly

F = Fraction
ONE = Poly.one()
X = Poly.x()


def test_split_examples(reduction_example):
    keep = operator(2, pol(1, 1), ONE)
    assert split(keep) == [keep]
    assert split(operator(2, Poly.zero(), ONE)) == [operator(2, Poly.one())]
    members = split(reduction_example)
    assert sorted((m.order, m.degree) for m in members) == [
        (2, 12),
        (2, 13),
        (2, 15),
        (3, 49),
    ]
    with pytest.raises(UnsupportedEquationError):
        split(MahlerOperator(2))
    with pytest.raises(UnsupportedEquationError):
        normalize_l0(MahlerOperator(2))


def test_split_rejects_a_wrong_section(monkeypatch, reduction_example):
    # split checks op = sum_i x^i M section_i coefficient by coefficient
    right = operator_sections(reduction_example)
    b, r = reduction_example.radix, reduction_example.order
    swapped = [right[1], right[0], *right[2:]]
    bumped = [right[0] + operator(b, Poly.zero(), X), *right[1:]]
    # a term above the order of op, which no coefficient of op can match
    longer = [*right[:2], right[2] + operator(b, ONE).m_shift(r), *right[3:]]
    # the same numerators over another denominator, which only a
    # comparison across denominators tells from the right section
    first = right[0].coeffs
    halved = Poly.from_integers(2 * first[0].den, first[0].nums)
    assert halved.nums == first[0].nums
    rescaled = [MahlerOperator(b, [halved, *first[1:]]), *right[1:]]
    for wrong in (swapped, bumped, longer, rescaled):
        # wrong sections for op itself, right ones for its sections
        monkeypatch.setattr(
            normalize,
            "operator_sections",
            lambda op: wrong if op == reduction_example else operator_sections(op),
        )
        with pytest.raises(InternalInvariantError, match="section reconstruction failed"):
            split(reduction_example)
    monkeypatch.undo()
    assert split(reduction_example)


def test_split_bounds_random():
    rng = random.Random(1777)
    for _ in range(200):
        radix = rng.choice((2, 3))
        op = random_operator(rng, radix, rng.randint(1, 4), 27, nonzero_l0=False)
        if op.coefficient(0):
            op = op.m_shift(rng.randint(1, 2))
        w = op.m_valuation
        members = split(op)
        assert members
        for m in members:
            assert m.m_valuation == 0
            assert m.order <= op.order - w
            assert m.degree <= op.degree // radix**w


def test_normalize_golden(reduction_example, reduction_example_normalized):
    content, prim = normalize_l0(reduction_example)
    assert prim == reduction_example_normalized
    expected_content = (mono(3) * pol(1, 1, 1) * pol(1, -1, 1)).monic()
    assert content.monic() == expected_content
    # the original lies in the left ideal generated by the primitive part
    assert not right_remainder(reduction_example, prim)
    # and the factorization through the stripped M also divides exactly
    composed = operator(3, Poly.zero(), ONE) * prim
    assert not right_remainder(reduction_example, composed)


def test_normalize_identity_and_degenerate():
    keep = operator(2, pol(1, 1), ONE)
    assert normalize_l0(keep)[1] == keep
    collapsed = normalize_l0(operator(2, Poly.zero(), -X, ONE))[1]  # M^2 - xM
    assert collapsed == operator(2, Poly.one())


def test_normalize_preserves_series_solutions():
    rng = random.Random(4321)
    for _ in range(100):
        radix = rng.choice((2, 3))
        order = rng.randint(1, 4)
        op = random_operator(rng, radix, order, 27, nonzero_l0=False)
        if op.coefficient(0):
            op = op.m_shift(1)
        w = op.m_valuation
        reduced = normalize_l0(op)[1]
        assert reduced.m_valuation == 0
        assert reduced.order <= op.order - w
        assert reduced.degree <= op.degree // radix**w
        if reduced.order == 0:
            # only the zero series solves the original equation
            space = _l0_zero_prefix_space(op, 30)
            assert space == []
            continue
        lhs = _l0_zero_prefix_space(op, 30)
        rhs = series_prefix_space(reduced, 30)
        assert same_span(lhs, rhs)


def _l0_zero_prefix_space(op, length):
    """Prefix space of an operator with zero trailing coefficient.

    The series solutions are the common solutions of the split members;
    each member has a nonzero trailing coefficient, so its own system is
    exact over a small window.  Stacking the member windows therefore
    carves out the common prefix space."""
    from oracles import brute_rows, eliminate, kernel

    radix = op.radix
    specs = []
    ncols = length
    for member in split(op):
        if member.order == 0:
            return []  # a nonzero constant member forces y = 0
        v0 = member.coeffs[0].valuation
        nu = max(
            (v0 - c.valuation) / Fraction(radix**k - 1)
            for k, c in member.nonzero_coefficients()
            if k
        )
        width = max(length, int(nu) + 2)
        specs.append((member, v0 + width - 1))
        ncols = max(ncols, width)
    rows = []
    for member, max_row in specs:
        rows.extend(r for r in brute_rows(member, max_row, ncols) if any(r))
    vecs = kernel(rows, ncols)
    reduced, _ = eliminate([v[:length] for v in vecs])
    return reduced


def test_gcrd_singleton(reduction_example):
    keep = operator(2, pol(1, 1), ONE)
    assert gcrd([keep])[1] == keep
    single = gcrd([reduction_example])[1]
    assert single.m_valuation == 1
    assert not right_remainder(reduction_example, single)


def test_gcrd_common_factor():
    g = operator(2, -ONE, ONE)  # M - 1
    a = operator(2, -X, ONE) * g
    b = operator(2, pol(0, 0, 1), ONE) * g
    result = gcrd([a, b])[1]
    assert result.order == 1
    assert not right_remainder(a, result) and not right_remainder(b, result)
    assert not right_remainder(result, g)


def test_gcrd_with_composed_family(reduction_example):
    shifted = reduction_example * operator(3, -ONE, ONE)
    result = gcrd([reduction_example, shifted])[1]
    for member in (reduction_example, shifted):
        assert not right_remainder(member, result)


def _planted_families(seed: int, count: int):
    """(common, family) pairs: one to three random left factors of order
    at most 2 times a random right factor of order at most 1."""
    rng = random.Random(seed)
    for _ in range(count):
        radix = rng.choice((2, 3))
        common = random_operator(rng, radix, rng.randint(0, 1), 2)
        family = []
        for _ in range(rng.randint(1, 3)):
            left = random_operator(rng, radix, rng.randint(0, 2), 2, nonzero_l0=False)
            if not left:
                left = operator(radix, Poly.one())
            family.append(left * common)
        yield common, family


def test_gcrd_right_divides_random_families():
    for common, family in _planted_families(515, 100):
        result = gcrd(family)[1]
        assert result.order <= max(op.order for op in family)
        assert result.degree <= max(op.degree for op in family)
        assert result.m_valuation == min(op.m_valuation for op in family)
        certify_gcrd(family, result)
        for op in family:
            assert not right_remainder(op, result)
        # the common right factor still right-divides the gcrd
        assert not right_remainder(result, common)


def test_gcrd_matches_euclid_oracle():
    # divisibility does not show that the gcrd is greatest; left Euclid
    # in Q(x)[M] does, and its monic result must be the library's
    # primitive part divided by its leading coefficient
    pytest.importorskip("sympy")
    larger = shared = with_m = 0
    for common, family in _planted_families(515, 100):
        result = gcrd(family)[1]
        assert qx_monic(result) == gcrd_oracle(family)
        if result.order > common.order:
            larger += 1
            shared += len(family) > 1
            with_m += result.m_valuation > 0
    # gcrds above the planted factor, some of several members, some with
    # a right factor M
    assert larger >= 3 and shared >= 1 and with_m >= 1


def test_certify_gcrd_forms_no_quotient(monkeypatch):
    # certification needs only the remainders: no quotient or multiplier
    # is built, so no Poly product and no operator sum is formed
    family = next(
        f for _, f in _planted_families(515, 100) if len(f) > 1 and min(op.order for op in f) >= 2
    )
    result = gcrd(family)[1]
    counts = {"mul": 0, "add": 0}

    def counting(name, method):
        def wrapper(*args):
            counts[name] += 1
            return method(*args)

        return wrapper

    monkeypatch.setattr(Poly, "__mul__", counting("mul", Poly.__mul__))
    monkeypatch.setattr(MahlerOperator, "__add__", counting("add", MahlerOperator.__add__))
    certify_gcrd(family, result)
    assert counts == {"mul": 0, "add": 0}


def test_gcrd_errors():
    with pytest.raises(InvalidArgumentError):
        gcrd([])
    with pytest.raises(UnsupportedEquationError):
        gcrd([MahlerOperator(2)])
    with pytest.raises(MixedRadixError):
        gcrd([operator(2, ONE), operator(3, ONE)])


def test_certify_gcrd_names_the_failing_input():
    common = operator(2, pol(1, 1), ONE)
    family = [operator(2, ONE, X) * common, operator(2, X, ONE) * common, common]
    certify_gcrd(family, gcrd(family)[1])
    certify_gcrd(family, common)
    wrong = operator(2, pol(2, 1), ONE)
    with pytest.raises(InternalInvariantError, match="input 0"):
        certify_gcrd(family, wrong)
    family[1] = operator(2, X, ONE) * wrong
    with pytest.raises(InternalInvariantError, match="input 1"):
        certify_gcrd(family, common)


def _variants(rng: random.Random, op: MahlerOperator) -> list[MahlerOperator]:
    """op with one coefficient changed in one term's value, by one extra
    term, or negated, and op itself twice, so that keys tie far into
    the term data."""
    out = [op, MahlerOperator(op.radix, op.coeffs)]
    for _ in range(4):
        coeffs = list(op.coeffs)
        k = rng.randrange(len(coeffs))
        c = coeffs[k]
        roll = rng.random()
        if roll < 0.4 and c:
            e, v = rng.choice(terms(c))
            delta = F(rng.choice((-1, 1)), rng.choice((1, 2, 3, 10**9)))
            coeffs[k] = c + Poly.monomial(e, delta) if v + delta else c
        elif roll < 0.7:
            coeffs[k] = c + Poly.monomial(rng.randint(0, 6), F(rng.randint(-3, 3), rng.choice((1, 2, 7))))
        else:
            coeffs[k] = -c
        if any(coeffs):
            out.append(MahlerOperator(op.radix, coeffs))
    return out


def test_sort_key_orders_like_the_fraction_key():
    rng = random.Random(4242)
    for _ in range(60):
        radix = rng.choice((2, 3))
        family = []
        for _ in range(rng.randint(1, 3)):
            base = random_operator(rng, radix, rng.randint(0, 2), 4, nonzero_l0=rng.random() < 0.5)
            family.extend(_variants(rng, base))
        rng.shuffle(family)
        assert sorted(family, key=MahlerOperator.sort_key) == sorted(family, key=sort_key_oracle)
        for a in family:
            ka, oa = a.sort_key(), sort_key_oracle(a)
            for b in family:
                kb, ob = b.sort_key(), sort_key_oracle(b)
                assert (ka == kb, ka < kb, ka > kb, ka <= kb, ka >= kb) == (
                    oa == ob,
                    oa < ob,
                    oa > ob,
                    oa <= ob,
                    oa >= ob,
                )
