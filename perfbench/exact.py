"""Small exact algebra kept independent of mahlersolve.

The benchmark builds its operators and re-checks the program's answers
with this module, so a defect in the library cannot hide itself by
also producing the inputs or the checks.

A polynomial is a dict {exponent: coefficient}, coefficients int or
Fraction, with no zero entries.  An operator is a list of polynomials
[l_0, l_1, ..., l_r] for a given radix b, meaning sum l_k(x) M^k with
M y(x) = y(x^b).
"""

from __future__ import annotations

from fractions import Fraction


def padd(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + sign * c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pmul(a: dict, b: dict) -> dict:
    out: dict = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = e1 + e2
            s = out.get(e, 0) + c1 * c2
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def psubst(p: dict, m: int) -> dict:
    """p(x^m)."""
    return {e * m: c for e, c in p.items()}


def omul(radix: int, a: list, b: list) -> list:
    """Operator product a*b, using M^i c(x) = c(x^(b^i)) M^i."""
    out = [{} for _ in range(len(a) + len(b) - 1)]
    for i, ai in enumerate(a):
        if not ai:
            continue
        for j, bj in enumerate(b):
            if bj:
                out[i + j] = padd(out[i + j], pmul(ai, psubst(bj, radix**i)))
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


def apply_poly(radix: int, op: list, p: dict) -> dict:
    """op applied to the polynomial p."""
    out: dict = {}
    for k, lk in enumerate(op):
        if lk:
            out = padd(out, pmul(lk, psubst(p, radix**k)))
    return out


def kills_rational(radix: int, op: list, num: dict, x_power: int, den: dict) -> bool:
    """True when num / (x^x_power * den) solves op: the image, multiplied by
    the product of all the Mahler images of the denominator, is zero."""
    dens = [
        pmul({x_power * radix**i: 1}, psubst(den, radix**i)) for i in range(len(op))
    ]
    total: dict = {}
    for k, lk in enumerate(op):
        if not lk:
            continue
        term = pmul(lk, psubst(num, radix**k))
        for i, d in enumerate(dens):
            if i != k:
                term = pmul(term, d)
        total = padd(total, term)
    return not total


def right_remainder(radix: int, a: list, g: list) -> list:
    """Pseudo-remainder of a on the right by g: each step multiplies the
    running operator on the left by a polynomial and subtracts a left
    multiple of g, so g right-divides a over Q(x) exactly when the
    result is zero."""
    r = [dict(c) for c in a]
    s = len(g) - 1
    lead = g[-1]
    while r and len(r) - 1 >= s:
        k = len(r) - 1 - s
        top = r[-1]
        shifted = [{} for _ in range(k)] + [psubst(c, radix**k) for c in g]
        glead = psubst(lead, radix**k)
        r = [padd(pmul(glead, rc), pmul(top, sc), -1) for rc, sc in zip(r, shifted)]
        while r and not r[-1]:
            r.pop()
    return r


def residual_order(radix: int, op: list, terms: list, truncation: Fraction):
    """(lowest exponent of op applied to the truncated series, or None when
    no term survives below the certified order; certified order).

    `terms` are (exponent, coefficient) pairs with rational exponents.
    Only image terms below the certified order are accumulated."""
    bound = min(
        min(lk) + radix**k * truncation for k, lk in enumerate(op) if lk
    )
    image: dict = {}
    for k, lk in enumerate(op):
        bk = radix**k
        for j, c in lk.items():
            for e, v in terms:
                key = j + bk * e
                if key >= bound:
                    break
                s = image.get(key, 0) + c * v
                if s:
                    image[key] = s
                else:
                    image.pop(key, None)
    return (min(image) if image else None), bound


def series_quotient(num: dict, den: dict, length: int) -> list:
    """First `length` power-series coefficients of num/den, den(0) != 0."""
    d0 = Fraction(den[0])
    out: list = []
    for n in range(length):
        acc = Fraction(num.get(n, 0))
        for e, c in den.items():
            if 0 < e <= n:
                acc -= c * out[n - e]
        out.append(acc / d0)
    return out


def independent(rows: list) -> bool:
    """True when the sparse vectors `rows` ({key: coefficient}, keys
    comparable) are linearly independent over Q."""
    reduced: list = []  # (pivot key, row with that key as its lowest)
    for row in rows:
        row = {k: Fraction(c) for k, c in row.items() if c}
        for pivot, basis_row in reduced:
            c = row.get(pivot)
            if c:
                row = padd(row, {k: c / basis_row[pivot] * v for k, v in basis_row.items()}, -1)
        if not row:
            return False
        reduced.append((min(row), row))
    return True
