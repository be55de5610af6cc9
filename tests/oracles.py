"""Brute-force reference computations used to cross-check the solvers.

Everything here goes through plain Fraction term arithmetic and a
self-contained Gaussian elimination, independent of the library's
integer kernels (`linalg.rref` and `independent`, the integer `Poly`
arithmetic, `image_below`) and of the push loop behind its window solve
and prolongation (`rmatrix`): the oracles build dense recurrence rows
and visit every row, zero or not.  The polynomial oracles take and
return term tuples, sorted (exponent, nonzero Fraction) pairs, as
conftest's `terms` reads them off a `Poly`; `series_oracle` builds a `PuiseuxSeries` record from
such pairs.  The Gräffe and orbit oracles are the exception: they
are built on the library's `Poly` and serve as cross-checks of the
denominator bound.  `graeffe_oracle` is the determinant route the
library took before it computed Gräffe steps by power sums, a
`bareiss_determinant` of multiplication by p(y) modulo y^b = x;
`lcm_orbit_oracle` folds the orbit M^k a into its lcm one image at a
time, where the library recurses on L_k = lcm(a, M L_(k-1));
`graeffe_monic` and `alt_denominator_bound` use the library's
`graeffe` itself.  `candidate_valuations`
and `candidate_degrees` read the library's Newton polygons and bound
the exponents the solvers may return.  The rational and
transcendence oracles at the end take the routes the library took
before it read its answers off echelon bases: elimination on the
`RationalFunction`s themselves, and exact solves of dense systems of
expansions.  They start from the library's denominator bound, its
polynomial solutions of the auxiliary equation and its series basis.
`interreduce_oracle` and `right_divide_oracle` form the library's
operator ring products where it runs the fused `mul_sub` kernel;
`gcrd_oracle` runs Euclid on sympy rational functions and shares no
code with the library.
"""

import math
from fractions import Fraction

from conftest import coefficient, from_terms, mono, rational_valuation, terms
from mahlersolve.errors import (
    InconsistentPrefixError,
    InternalInvariantError,
    UnsupportedEquationError,
    ZeroTrailingCoefficientError,
)
from mahlersolve.newton import lower_polygon, upper_polygon
from mahlersolve.operator import MahlerOperator, PhiTransform, phi_apply
from mahlersolve.poly import Poly, graeffe, lcm, mahler_substitute, poly_sections

ZERO = Fraction(0)


def entry_oracle(op: MahlerOperator, phi: PhiTransform, m: int, n: int) -> Fraction:
    """Single entry of the recurrence matrix of phi(op), by direct
    summation over the operator support."""
    phi.validate_for(op.radix)
    total = ZERO
    for k, lk in op.nonzero_coefficients():
        bk = op.radix**k
        for j, c in terms(lk):
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
        for j, c in terms(lk):
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
    for e1, c1 in terms(a):
        for e2, c2 in terms(b):
            e = e1 + e2
            s = acc.get(e, ZERO) + c1 * c2
            if s:
                acc[e] = s
            elif e in acc:
                del acc[e]
    return from_terms(sorted(acc.items()))


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
        tuple((k, terms(c)) for k, c in op.nonzero_coefficients()),
    )


def interreduce_oracle(op1: MahlerOperator, op2: MahlerOperator) -> MahlerOperator:
    """c2*op1 - c1*op2 (c1, c2 the M^0 coefficients) by the operator ring
    operations: two coefficient-wise products, a negation and a sum."""
    return (op2.coeffs[0] * op1) - (op1.coeffs[0] * op2)


def right_divide_oracle(
    a: MahlerOperator, b: MahlerOperator
) -> tuple[Poly, MahlerOperator, MahlerOperator]:
    """Fraction-free right pseudo-division by the operator ring
    operations: (c, q, r) with c a nonzero polynomial, c*a = q*b + r and
    order(r) < order(b).  A step with top = r_(order r), k = order r -
    order b and g = M^k(lead b) sets r <- g r - (top M^k) b, q <- g q +
    top M^k and c <- g c, with operator products where
    `operator.right_remainder` updates r alone on the integer forms."""
    radix = a.radix
    c = Poly.one()
    q = MahlerOperator(radix)
    r = a
    nb = b.order
    lead_b = b.coeffs[-1]
    while r and r.order >= nb:
        k = r.order - nb
        g = mahler_substitute(lead_b, radix, k) if k else lead_b
        step = MahlerOperator.from_dict(radix, {k: r.coeffs[-1]})
        r = (g * r) - (step * b)
        q = (g * q) + step
        c = g * c
        assert not r or r.order < nb + k
    return c, q, r


def qx_monic(op: MahlerOperator) -> list:
    """The coefficients of op as sympy rational functions, elements of
    the field Q(x), divided by the leading one."""
    from sympy import QQ
    from sympy.polys.fields import field

    K, x = field("x", QQ)
    coeffs = [
        sum((QQ(c.numerator, c.denominator) * x**e for e, c in terms(lk)), K.zero)
        for lk in op.coeffs
    ]
    return [c / coeffs[-1] for c in coeffs]


def gcrd_oracle(ops: list[MahlerOperator]) -> list:
    """The gcrd of the family, monic in M, by left Euclid in Q(x)[M].

    An operator is the list of its coefficients in Q(x), as `qx_monic`
    gives them; M f(x) = f(x^b) M.  Right division by order subtracts
    (top / M^k(lead b)) M^k b until the order drops below that of b;
    Euclid replaces (a, b) by (b, a mod b) until the remainder is zero.
    Nothing is shared with the library's split and interreduction;
    sympy is a test-only dependency."""
    radix = ops[0].radix

    def substitute(f, k):
        # f(x^(b^k)): every exponent of numerator and denominator times b^k
        n = radix**k
        return f.field.new(f.numer.inflate([n]), f.denom.inflate([n]))

    def remainder(a, b):
        r = list(a)
        while r and len(r) >= len(b):
            k = len(r) - len(b)
            shifted = [0] * k + [substitute(bj, k) for bj in b]
            t = r[-1] / shifted[-1]
            r = [rj - t * sj for rj, sj in zip(r, shifted)]
            while r and not r[-1]:
                r.pop()
        return r

    g = qx_monic(ops[0])
    for op in ops[1:]:
        a, b = g, qx_monic(op)
        while b:
            a, b = b, remainder(a, b)
        g = [c / a[-1] for c in a]
    return g


def graeffe_monic(p: Poly, radix: int, power: int = 1) -> Poly:
    """Monic associate of graeffe()."""
    return graeffe(p, radix, power).monic()


def bareiss_determinant(mat: list[list[Poly]]) -> Poly:
    """Fraction-free determinant of a square matrix of polynomials."""
    n = len(mat)
    if n == 0:
        return Poly.one()
    m = [row[:] for row in mat]
    sign = 1
    prev = Poly.one()
    for k in range(n - 1):
        if not m[k][k]:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return Poly.zero()
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = num.exact_div(prev)
            m[i][k] = Poly.zero()
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def graeffe_oracle(p: Poly, radix: int, power: int = 1) -> Poly:
    """`graeffe` as a determinant: each step is the determinant of
    multiplication by p(y) on the free Q[x]-module with basis
    1, y, ..., y^(radix-1), modulo y^radix = x."""
    for _ in range(power):
        sections = poly_sections(p, radix)
        mat = [[Poly.zero()] * radix for _ in range(radix)]
        for j in range(radix):
            for i, f in enumerate(sections):
                if f:
                    row = (i + j) % radix
                    mat[row][j] = mat[row][j] + (f if i + j < radix else f.shift(1))
        p = bareiss_determinant(mat)
    return p


def lcm_orbit_oracle(a: Poly, radix: int, order: int) -> Poly:
    """lcm(a, Ma, ..., M^(order-1) a), monic, folding in one image at a
    time, so the gcds reach degree about radix^order deg a."""
    result = a.monic()
    image = a
    for _ in range(1, order):
        image = mahler_substitute(image, radix)
        result = lcm(result, image)
    return result


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


def edge_slope(edge) -> Fraction:
    """The slope of a `PolygonEdge`, from its ends."""
    (u1, j1), (u2, j2) = edge.start, edge.end
    return Fraction(j2 - j1, u2 - u1)


def laurent(f, lo: int, hi: int) -> list[Fraction]:
    """`f.laurent_coefficients(lo, hi)` as Fractions."""
    den, nums = f.laurent_coefficients(lo, hi)
    return [Fraction(v, den) for v in nums]


def candidate_valuations(op: MahlerOperator) -> set[Fraction]:
    """Possible valuations of Puiseux-series solutions: the opposites of
    the slopes of admissible lower edges."""
    return {-edge_slope(e) for e in lower_polygon(op) if e.admissible}


def candidate_degrees(op: MahlerOperator) -> set[Fraction]:
    """Possible top exponents of finite solutions, reported raw; callers
    filter for nonnegative integers when looking for polynomials."""
    return {-edge_slope(e) for e in upper_polygon(op) if e.admissible}


def _hull_oracle(points: list[tuple[int, int]], lower: bool) -> list[tuple[int, int]]:
    """Vertices of the lower (upper) hull of points with distinct u, by gift
    wrapping on Fraction slopes: from each vertex the next one is, among
    the points to its right, the one of least (greatest) slope, the
    farthest one on a tie."""
    hull = [min(points)]
    while True:
        u0, j0 = hull[-1]
        right = [(Fraction(j - j0, u - u0), (u, j)) for u, j in points if u > u0]
        if not right:
            return hull
        best = (min if lower else max)(slope for slope, _ in right)
        hull.append(max(p for slope, p in right if slope == best))


def newton_oracle(op: MahlerOperator) -> dict:
    """The `newton` subcommand's JSON document, on Fractions: each edge's
    slope, and its admissibility from the Fraction coefficients of the
    diagram points on its line; nu and mu the opposite slope and the
    V-intercept of the leftmost lower edge; Q and N from the slopes'
    denominators."""
    doc = {"kind": "newton"}
    for side, lower in (("lower", True), ("upper", False)):
        points = {}  # (b^k, exponent) -> coefficient of the extreme term of l_k
        for k, c in op.nonzero_coefficients():
            j = c.valuation if lower else c.degree
            points[(op.radix**k, j)] = coefficient(c, j)
        hull = _hull_oracle(list(points), lower)
        edges = []
        for (u1, j1), (u2, j2) in zip(hull, hull[1:]):
            slope = Fraction(j2 - j1, u2 - u1)
            on_line = [
                c for (u, j), c in points.items() if u1 <= u <= u2 and j == j1 + slope * (u - u1)
            ]
            edge = {"from": [u1, j1], "to": [u2, j2], "slope": str(slope)}
            edges.append({**edge, "admissible": sum(on_line) == 0})
        doc[side] = edges
    if op.coefficient(0) and op.order >= 1:
        first = doc["lower"][0]
        slope = Fraction(first["slope"])
        u1, j1 = first["from"]
        slopes = [Fraction(e["slope"]) for e in doc["lower"] if e["admissible"]]
        q_set = {s.denominator for s in slopes if math.gcd(s.denominator, op.radix) == 1}
        doc.update(nu=str(-slope), mu=str(j1 - slope * u1), Q=sorted(q_set), N=math.lcm(*q_set))
    return doc


def nu_mu_oracle(op: MahlerOperator) -> tuple[Fraction, Fraction]:
    """(nu, mu) of `newton_oracle`, as Fractions."""
    doc = newton_oracle(op)
    return Fraction(doc["nu"]), Fraction(doc["mu"])


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
    return [from_terms((i, c) for i, c in enumerate(v) if c) for v in vecs]


def apply_exact(op: MahlerOperator, p: Poly) -> Poly:
    from mahlersolve.poly import mahler_substitute

    total = Poly.zero()
    for k, lk in op.nonzero_coefficients():
        img = mahler_substitute(p, op.radix, k) if k else p
        total = total + lk * img
    return total


def series_oracle(ramification: int, terms, truncation_order):
    """The PuiseuxSeries of the (exponent, coefficient) pairs `terms`,
    exponents in (1/ramification)Z and strictly increasing, coefficients
    nonzero, built from Fractions: the numerators over the lcm of the
    coefficients' denominators, the exponents and the truncation order
    times the ramification."""
    from mahlersolve.solver import PuiseuxSeries

    terms = [(Fraction(e), Fraction(c)) for e, c in terms]
    den = math.lcm(*(c.denominator for _, c in terms))
    nums = []
    for e, c in terms:
        units = e * ramification
        if units.denominator != 1:
            raise ValueError(f"exponent {e} is not in (1/{ramification})Z")
        nums.append((units.numerator, c.numerator * (den // c.denominator)))
    t = Fraction(truncation_order) * ramification
    if t.denominator != 1:
        raise ValueError(f"truncation order {truncation_order} is not in (1/{ramification})Z")
    return PuiseuxSeries(ramification, den, tuple(nums), t.numerator)


def apply_to_fractional(
    op: MahlerOperator, pairs: list[tuple[Fraction, Fraction]]
) -> dict[Fraction, Fraction]:
    """Whole image of a finite sum of terms c x^e (e rational) under op,
    term by term, with no truncation."""
    acc: dict[Fraction, Fraction] = {}
    for k, lk in op.nonzero_coefficients():
        bk = op.radix**k
        for j, c in terms(lk):
            for e, v in pairs:
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
    nu, mu = nu_mu_oracle(transformed)
    if len(approx) != math.floor(nu) + 1:
        raise ValueError("approximate solution has the wrong length")
    mu_floor = math.floor(mu)
    image = apply_to_fractional(transformed, list(enumerate(approx)))
    if any(m <= mu_floor for m in image):
        raise InconsistentPrefixError("prefix violates a relation row")
    l0 = transformed.coeffs[0]
    tv0 = l0.valuation
    diag = terms(l0)[0][1]
    entries = [
        (transformed.radix**k, j, c)
        for k, lk in transformed.nonzero_coefficients()
        for j, c in terms(lk)
        if k or j != tv0
    ]
    y = list(approx)
    for m in range(mu_floor + 1, mu_floor + extra + 1):
        target = m - tv0
        acc = ZERO
        for bk, j, c in entries:
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


def solve_oracle(rows: list[list[Fraction]], rhs: list[Fraction]):
    """One solution of rows * x = rhs with the free variables at zero,
    or None when the system is inconsistent."""
    ncols = len(rows[0]) if rows else 0
    reduced, pivots = eliminate([list(r) + [b] for r, b in zip(rows, rhs)])
    sol = [ZERO] * ncols
    for row, pc in zip(reduced, pivots):
        if pc == ncols:
            return None
        sol[pc] = row[ncols]
    return sol


def rational_sum(f, g):
    """f + g for RationalFunctions, over the product of their denominators."""
    from mahlersolve.rational import RationalFunction

    da = f.denominator.shift(f.x_power)
    db = g.denominator.shift(g.x_power)
    return RationalFunction.make(f.numerator * db + g.numerator * da, 0, da * db)


def rational_scale(f, c):
    """c f for a RationalFunction f and a number c."""
    from mahlersolve.rational import RationalFunction

    if not c:
        return RationalFunction.constant(0)
    return RationalFunction.make(f.numerator * mono(0, c), f.x_power, f.denominator)


def canonicalize_rational_oracle(elements) -> tuple:
    """Echelon form of RationalFunctions on their expansions by
    elimination on the functions themselves: distinct valuations
    ascending, leading coefficient one, each valuation cleared from the
    other elements.  Every step goes through `rational_sum`."""
    work = [e for e in elements if e.numerator]
    done = []
    while work:
        work.sort(key=rational_valuation)
        head = work.pop(0)
        hv = rational_valuation(head)
        head = rational_scale(head, 1 / laurent(head, hv, hv + 1)[0])
        reduced = []
        for f in work:
            if rational_valuation(f) == hv:
                c = laurent(f, hv, hv + 1)[0]
                g = rational_sum(f, rational_scale(head, -c))
                if g.numerator:
                    reduced.append(g)
            else:
                reduced.append(f)
        done.append(head)
        work = reduced
    # back-substitution: clear each pivot exponent from the earlier rows
    for i in range(len(done)):
        for j in range(i + 1, len(done)):
            pv = rational_valuation(done[j])
            c = laurent(done[i], pv, pv + 1)[0]
            if c:
                done[i] = rational_sum(done[i], rational_scale(done[j], -c))
    return tuple(done)


def rational_basis_oracle(op: MahlerOperator) -> tuple:
    """Rational solutions of op (order >= 1, nonzero trailing
    coefficient): the library's denominator bound x^v_bar q_star and
    polynomial solutions p of the auxiliary equation, and the functions
    p / (x^v_bar q_star) put in canonical form by
    `canonicalize_rational_oracle`."""
    from mahlersolve.poly import mahler_substitute
    from mahlersolve.rational import RationalFunction, denominator_bound
    from mahlersolve.solver import polynomial_solutions_bounded

    b, r, delta = op.radix, op.order, op.degree
    if delta < b ** (r - 1):
        total = Poly.zero()
        for _, c in op.nonzero_coefficients():
            total = total + c
        return () if total else (RationalFunction.constant(1),)
    bound = denominator_bound(op)
    q_star, v_bar = bound.q_star, bound.v_bar
    orbit = [mahler_substitute(q_star, b, i) if i else q_star for i in range(r + 1)]
    coeffs = []
    for k in range(r + 1):
        cofactor = Poly.one()
        for i in range(r + 1):
            if i != k:
                cofactor = cofactor * orbit[i]
        lk = op.coefficient(k)
        coeffs.append(lk.shift(b * delta // (b - 1) - b**k * v_bar) * cofactor if lk else lk)
    aux = MahlerOperator(b, coeffs)
    numerators = polynomial_solutions_bounded(aux, q_star.degree + 2 * v_bar + 1)
    return canonicalize_rational_oracle(
        [RationalFunction.make(p, v_bar, q_star) for p in numerators.elements]
    )


def consistent_extension_oracle(op: MahlerOperator, prefix, length: int) -> list[Fraction]:
    """The series solution starting with the prefix, to max(length,
    len(prefix)) coefficients, by solving the prefix against the dense
    expansions of the library's series basis; raises like the library."""
    from mahlersolve.errors import InsufficientPrefixError
    from mahlersolve.solver import series_basis

    target = max(length, len(prefix))
    expanded = []
    if op.order >= 1:
        nu, _ = nu_mu_oracle(op)
        head = math.floor(nu) + 1 if nu >= 0 else 0
        if len(prefix) < max(head, 1):
            raise InsufficientPrefixError(f"need at least {max(head, 1)} coefficients")
        for elem in series_basis(op, target - 1).elements:
            dense = [ZERO] * target
            for e, c in terms(elem):
                dense[int(e)] = c
            expanded.append(dense)
    rows = [[exp[i] for exp in expanded] for i in range(len(prefix))]
    combo = solve_oracle(rows, [Fraction(c) for c in prefix])
    if combo is None:
        raise InconsistentPrefixError("prefix extends to no series solution")
    return [sum((c * exp[i] for c, exp in zip(combo, expanded)), ZERO) for i in range(target)]


def transcendence_oracle(op: MahlerOperator, prefix, candidates) -> tuple:
    """(verdict, witness) of the rational-basis transcendence test with
    the rational solutions `candidates`: the series solution is solved
    against their expansions, the solution checked, and the witness
    summed from it."""
    from mahlersolve.rational import RationalFunction

    series = consistent_extension_oracle(op, prefix, len(prefix))
    if not any(series):
        return "rational", RationalFunction.constant(0)
    if not candidates:
        return "transcendental", None
    lo = min(0, min(map(rational_valuation, candidates)))
    hi = len(series)
    expansions = [laurent(f, lo, hi) for f in candidates]
    rhs = [ZERO] * -lo + series
    rows = [[exp[i] for exp in expansions] for i in range(hi - lo)]
    combo = solve_oracle(rows, rhs)
    if combo is None:
        return "transcendental", None
    witness = RationalFunction.constant(0)
    for c, f in zip(combo, candidates):
        if c:
            witness = rational_sum(witness, rational_scale(f, c))
    return "rational", witness


def bell_coons_oracle(op: MahlerOperator, prefix) -> str:
    """Bell-Coons verdict from the full rank of the Hankel matrix of the
    extended series."""
    from mahlersolve.rational import bell_coons_dimensions

    kappa, bound = bell_coons_dimensions(op)
    series = consistent_extension_oracle(op, prefix, kappa + bound + 1)
    matrix = [series[i : i + bound + 1] for i in range(kappa + 1)]
    return "transcendental" if len(eliminate(matrix)[0]) == kappa + 1 else "rational"
