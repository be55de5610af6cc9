"""Brute-force reference computations used to cross-check the solvers.

Everything here goes through plain Fraction term arithmetic and a
self-contained Gaussian elimination, independent of the library's
integer kernels (`linalg.rref` and `independent`, the integer `Poly`
arithmetic, `apply_below`) and of the push loop behind its window solve
and prolongation (`rmatrix`): the oracles build dense recurrence rows
and visit every row, zero or not.  The polynomial oracles take and
return term tuples, sorted (exponent, nonzero Fraction) pairs, as
`Poly.terms`.  `graeffe_monic` and `alt_denominator_bound` are the
exception: they are built on the library's `Poly` and `graeffe` and
serve as cross-checks of the denominator bound.
"""

import math
from fractions import Fraction

from mahlersolve.errors import (
    IncompatiblePrefixError,
    InternalInvariantError,
    UnsupportedEquationError,
    ZeroTrailingCoefficientError,
)
from mahlersolve.newton import mu_nu
from mahlersolve.operator import MahlerOperator, PhiTransform, phi_apply
from mahlersolve.poly import Poly, graeffe

ZERO = Fraction(0)


def entry_oracle(op: MahlerOperator, phi: PhiTransform, m: int, n: int) -> Fraction:
    """Single entry of the recurrence matrix of phi(op), by direct
    summation over the operator support."""
    phi.validate_for(op.radix)
    total = ZERO
    for k, lk in op.nonzero_coefficients():
        bk = op.radix**k
        for j, c in lk.terms:
            if phi.alpha * bk + phi.beta * j - phi.gamma + bk * n == m:
                total += c
    return total


def brute_rows(op: MahlerOperator, max_row: int, ncols: int) -> list[list[Fraction]]:
    """Dense rows 0..max_row of the recurrence system on y_0..y_{ncols-1},
    built directly from the definition: row m collects the coefficient of
    x^m in l_k(x) * x^(b^k n) for every k and n."""
    rows = [[ZERO] * ncols for _ in range(max_row + 1)]
    for k, lk in op.nonzero_coefficients():
        bk = op.radix**k
        for j, c in lk.terms:
            for n in range(ncols):
                m = j + bk * n
                if m > max_row:
                    break
                rows[m][n] += c
    return rows


def eliminate(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Self-contained reduced row echelon form."""
    work = [row[:] for row in rows if any(row)]
    out: list[list[Fraction]] = []
    pivots: list[int] = []
    if not work:
        return out, pivots
    ncols = len(work[0])
    for col in range(ncols):
        idx = next((i for i, r in enumerate(work) if r[col]), None)
        if idx is None:
            continue
        row = work.pop(idx)
        inv = 1 / row[col]
        row = [v * inv for v in row]
        for r in work + out:
            f = r[col]
            if f:
                for j in range(col, ncols):
                    r[j] -= f * row[j]
        out.append(row)
        pivots.append(col)
        work = [r for r in work if any(r)]
    order = sorted(range(len(pivots)), key=lambda i: pivots[i])
    return [out[i] for i in order], sorted(pivots)


def poly_mul_oracle(a: Poly, b: Poly) -> Poly:
    """Schoolbook product, one Fraction multiply-add per pair of terms."""
    acc: dict[int, Fraction] = {}
    for e1, c1 in a.terms:
        for e2, c2 in b.terms:
            e = e1 + e2
            s = acc.get(e, ZERO) + c1 * c2
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
    return Poly(sorted(acc.items()))


def _sorted_terms(acc: dict) -> tuple:
    return tuple(sorted((e, c) for e, c in acc.items() if c))


def poly_add_oracle(a: tuple, b: tuple) -> tuple:
    acc = dict(a)
    for e, c in b:
        acc[e] = acc.get(e, ZERO) + c
    return _sorted_terms(acc)


def poly_divmod_oracle(a: tuple, b: tuple) -> tuple[tuple, tuple]:
    """Euclidean division, one Fraction division per quotient term."""
    q: dict[int, Fraction] = {}
    rem = dict(a)
    db, lead = b[-1]
    while rem:
        e = max(rem)
        if e < db:
            break
        c = rem[e] / lead
        q[e - db] = c
        for be, bc in b:
            k = e - db + be
            s = rem.get(k, ZERO) - c * bc
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return _sorted_terms(q), _sorted_terms(rem)


def poly_monic_oracle(a: tuple) -> tuple:
    if not a:
        return a
    lead = a[-1][1]
    return tuple((e, c / lead) for e, c in a)


def poly_gcd_oracle(a: tuple, b: tuple) -> tuple:
    """Monic Euclid over Q; gcd(0, 0) = 0."""
    a, b = poly_monic_oracle(a), poly_monic_oracle(b)
    while b:
        a, b = b, poly_monic_oracle(poly_divmod_oracle(a, b)[1])
    return a


def poly_content_oracle(a: tuple) -> Fraction:
    num, den = 0, 1
    for _, c in a:
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    return Fraction(num, den)


def poly_primitive_oracle(a: tuple) -> tuple:
    if not a:
        return a
    content = poly_content_oracle(a)
    return tuple((e, c / content) for e, c in a)


def poly_sections_oracle(a: tuple, radix: int) -> list[tuple]:
    buckets: list[list] = [[] for _ in range(radix)]
    for e, c in a:
        buckets[e % radix].append((e // radix, c))
    return [tuple(b) for b in buckets]


def sort_key_oracle(op: MahlerOperator):
    """The interreduction order on the Fraction view of the coefficients:
    order descending, degree ascending, then the (k, terms) pairs."""
    return (
        -op.order,
        op.degree,
        tuple((k, c.terms) for k, c in op.nonzero_coefficients()),
    )


def graeffe_monic(p: Poly, radix: int, power: int = 1) -> Poly:
    """Monic associate of graeffe()."""
    return graeffe(p, radix, power).monic()


def _integer_log(base: int, value: int) -> int:
    """Largest e with base**e <= value (value >= 1)."""
    e = 0
    acc = base
    while acc <= value:
        acc *= base
        e += 1
    return e


def alt_denominator_bound(op: MahlerOperator) -> Poly:
    """Coarser denominator bound, a cross-check of
    `rational.denominator_bound`: a product of iterated Gräffe images of
    the leading coefficient.  Returns 1 outright when the leading degree
    rules out nonconstant rational solutions."""
    if not op:
        raise UnsupportedEquationError("zero operator")
    if not op.coefficient(0):
        raise ZeroTrailingCoefficientError("denominator bound needs a nonzero trailing coefficient")
    r = op.order
    if r < 1:
        raise UnsupportedEquationError("denominator bound requires order >= 1")
    b = op.radix
    lead = op.coeffs[r]
    if lead.degree < b ** (r - 1):
        return Poly.one()
    cap = _integer_log(b, 3 * lead.degree) - r
    result = Poly.one()
    image = graeffe(lead, b, r) if cap >= 0 else None
    for k in range(cap + 1):
        result = result * image
        if k < cap:
            image = graeffe(image, b)
    return result.monic()


def kernel(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    reduced, pivots = eliminate(rows)
    pivot_set = set(pivots)
    basis = []
    for j in range(ncols):
        if j in pivot_set:
            continue
        vec = [ZERO] * ncols
        vec[j] = Fraction(1)
        for row, pc in zip(reduced, pivots):
            vec[pc] = -row[j]
        basis.append(vec)
    return basis


def same_span(a: list[list[Fraction]], b: list[list[Fraction]]) -> bool:
    ra = eliminate(a)
    rb = eliminate(b)
    return ra == rb


def series_prefix_space(op: MahlerOperator, length: int) -> list[list[Fraction]]:
    """All length-`length` prefixes of power-series solutions, by solving
    the dense system with enough rows to pin every prefix coefficient.

    For an operator with nonzero trailing coefficient, rows up to
    v_0 + length determine coefficients beyond the Newton corner, so the
    kernel projects exactly onto the true prefix space.
    """
    if not op.coefficient(0):
        raise ValueError("oracle needs a nonzero trailing coefficient")
    v0 = op.coeffs[0].valuation
    nu = max(
        (v0 - c.valuation) / Fraction(op.radix**k - 1)
        for k, c in op.nonzero_coefficients()
        if k
    )
    ncols = max(length, int(nu) + 2) + 1
    # Row v0 + n pins y_n once n is past the Newton corner; rows beyond
    # v0 + ncols - 1 would touch coefficients outside the window.
    max_row = v0 + ncols - 1
    vecs = kernel(brute_rows(op, max_row, ncols), ncols)
    return [v[:length] for v in vecs]


def polynomial_solution_space(op: MahlerOperator, bound: int) -> list[Poly]:
    """All polynomial solutions of degree < bound by undetermined
    coefficients over the full (finite) system."""
    max_row = op.degree + op.radix**op.order * (bound - 1)
    vecs = kernel(brute_rows(op, max_row, bound), bound)
    return [Poly.from_coeffs(v) for v in vecs]


def apply_exact(op: MahlerOperator, p: Poly) -> Poly:
    from mahlersolve.poly import mahler_substitute

    total = Poly.zero()
    for k, lk in op.nonzero_coefficients():
        img = mahler_substitute(p, op.radix, k) if k else p
        total = total + lk * img
    return total


def apply_to_fractional(
    op: MahlerOperator, terms: list[tuple[Fraction, Fraction]]
) -> dict[Fraction, Fraction]:
    """Whole image of a finite sum of terms c x^e (e rational) under op,
    term by term, with no truncation."""
    acc: dict[Fraction, Fraction] = {}
    for k, lk in op.nonzero_coefficients():
        bk = op.radix**k
        for j, c in lk.terms:
            for e, v in terms:
                key = j + bk * e
                s = acc.get(key, ZERO) + c * v
                if s:
                    acc[key] = s
                elif key in acc:
                    del acc[key]
    return acc


def prolong_oracle(
    op: MahlerOperator, phi: PhiTransform, approx: list[Fraction], extra: int
) -> list[Fraction]:
    """Prolongation row by row: every row from floor(mu)+1 on determines
    one coefficient, pulled from all operator terms, zero or not."""
    transformed = phi_apply(op, phi)
    nu, mu = mu_nu(transformed)
    if len(approx) != math.floor(nu) + 1:
        raise ValueError("approximate solution has the wrong length")
    mu_floor = math.floor(mu)
    image = apply_to_fractional(transformed, list(enumerate(approx)))
    if any(m <= mu_floor for m in image):
        raise IncompatiblePrefixError("prefix violates a relation row")
    l0 = transformed.coeffs[0]
    tv0 = l0.valuation
    diag = l0.trailing_coefficient
    terms = [
        (transformed.radix**k, j, c)
        for k, lk in transformed.nonzero_coefficients()
        for j, c in lk.terms
        if k or j != tv0
    ]
    y = list(approx)
    for m in range(mu_floor + 1, mu_floor + extra + 1):
        target = m - tv0
        acc = ZERO
        for bk, j, c in terms:
            t = m - j
            if t < 0 or t % bk:
                continue
            n = t // bk
            if n >= target:
                raise InternalInvariantError(
                    "prolongation row touched an undetermined coefficient"
                )
            acc += c * y[n]
        y.append(-acc / diag)
    return y
