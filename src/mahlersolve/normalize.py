"""Splitting operators with zero trailing coefficient into systems of
M-valuation 0, reduction of such systems to a single equivalent
equation, and gcrd computation for operator families.

Splitting replaces an operator of positive M-valuation by its sections,
which preserves the unramified series solutions; interreduction kills
the M^0 term of one member so that splitting applies again.  The loop
terminates because along any chain two interreductions are separated by
a section, and sections strictly decrease the order.
"""

from __future__ import annotations

from .errors import (
    InternalInvariantError,
    InvalidArgumentError,
    MixedRadixError,
    UnsupportedEquationError,
)
from .operator import (
    MahlerOperator,
    interreduce,
    operator_sections,
    primitive_part,
    right_remainder,
)
from .poly import Poly


def split(op: MahlerOperator) -> list[MahlerOperator]:
    """Replace op by an equivalent family of operators of M-valuation 0.

    All members have order at most order - w and degree at most
    degree / b^w, where w is the M-valuation of op.  The sections are
    checked against op on the integer forms: op = sum_i x^i M section_i,
    so every term (e, v / den_i) of the coefficient of M^(k-1) in
    section i must equal the term of l_k at exponent b e + i, compared
    across the two denominators, and the term counts must agree.
    """
    if not op:
        raise UnsupportedEquationError("cannot split the zero operator")
    if op.m_valuation == 0:
        return [op]
    sections = operator_sections(op)
    b = op.radix
    top = max(op.order, 1 + max(s.order for s in sections))
    for k in range(1, top + 1):
        lk = op.coefficient(k)
        den, terms = lk.den, dict(lk.nums)
        parts = [s.coefficient(k - 1) for s in sections]
        if sum(len(c.nums) for c in parts) != len(terms) or any(
            terms.get(b * e + i, 0) * c.den != v * den
            for i, c in enumerate(parts)
            for e, v in c.nums
        ):
            raise InternalInvariantError(f"section reconstruction failed at M^{k}")
    members = []
    for section in sections:
        if section:
            members.extend(split(section))
    return members


def _reduction_cap(ops: list[MahlerOperator]) -> int:
    r = max(op.order for op in ops)
    b = ops[0].radix
    return 64 + b ** (2 * (r + 2))


def _reduce_to_singleton(worklist: list[MahlerOperator]) -> MahlerOperator:
    """Interreduce a family of M-valuation-0 operators to one operator.

    Deterministic choice: the worklist is ordered by (order descending,
    degree ascending, term data); the first element is reduced against
    the second.
    """
    cap = _reduction_cap(worklist)
    steps = 0
    while len(worklist) > 1:
        steps += 1
        if steps > cap:
            raise InternalInvariantError("interreduction loop exceeded its bound")
        worklist.sort(key=MahlerOperator.sort_key)
        first, second = worklist[0], worklist[1]
        reduced = interreduce(first, second)
        replacement = split(reduced) if reduced else []
        worklist = worklist[1:] + replacement
    return worklist[0]


def normalize_l0(op: MahlerOperator) -> tuple[Poly, MahlerOperator]:
    """(content, primitive): a single operator with M-valuation 0 and the
    same series solutions, the interreduction loop's result, factored
    by `operator.primitive_part` so that the primitive part has a monic
    leading coefficient."""
    if not op:
        raise UnsupportedEquationError("cannot normalize the zero operator")
    return primitive_part(_reduce_to_singleton(split(op)))


def gcrd(ops: list[MahlerOperator]) -> tuple[Poly, MahlerOperator]:
    """(content, primitive): a greatest common right divisor of the
    family, factored by `operator.primitive_part` so that the primitive
    part has a monic leading coefficient.

    The minimal M-valuation w is factored off on the right, the quotients
    are split and interreduced to a singleton, and M^w is restored.  The
    result right-divides every input and lies in the left ideal the
    inputs generate (over rational-function coefficients), so every
    common right divisor right-divides it; the tests check it against an
    independent Euclid in Q(x)[M], `oracles.gcrd_oracle`.
    """
    if not ops:
        raise InvalidArgumentError("gcrd of an empty family")
    if any(not op for op in ops):
        raise UnsupportedEquationError("gcrd of a family containing the zero operator")
    radix = ops[0].radix
    if any(op.radix != radix for op in ops):
        raise MixedRadixError("gcrd requires a common radix")
    w = min(op.m_valuation for op in ops)
    worklist = []
    for op in ops:
        worklist.extend(split(op.m_shift(-w)))
    return primitive_part(_reduce_to_singleton(worklist).m_shift(w))


def certify_gcrd(ops: list[MahlerOperator], g: MahlerOperator) -> None:
    """Check that g right-divides every member of the family; raise
    InternalInvariantError naming the first input it does not divide."""
    for i, op in enumerate(ops):
        if right_remainder(op, g):
            raise InternalInvariantError(f"gcrd does not right-divide input {i}")
