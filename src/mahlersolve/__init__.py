"""Exact solver for linear Mahler equations over the rationals.

Computes complete bases of polynomial, rational, truncated power-series,
and truncated Puiseux-series solutions of
l_r(x) y(x^(b^r)) + ... + l_1(x) y(x^b) + l_0(x) y(x) = 0,
normalizes equations with zero trailing coefficient, and computes gcrds
of families of Mahler operators.
"""

from .errors import (
    ExactDivisionError,
    ExponentOverflowError,
    InconsistentPrefixError,
    InputFormatError,
    InsufficientPrefixError,
    InternalInvariantError,
    InvalidArgumentError,
    MahlerError,
    MixedRadixError,
    NegativeExponentError,
    NoAdmissibleEdgeError,
    UnsupportedEquationError,
    ZeroTrailingCoefficientError,
)
from .poly import (
    Poly,
    gcd,
    gcd_all,
    graeffe,
    lcm,
    lcm_orbit,
    mahler_substitute,
    poly_sections,
)
from .operator import (
    IDENTITY_PHI,
    MahlerOperator,
    PhiTransform,
    interreduce,
    operator_sections,
    phi_apply,
    primitive_part,
    right_remainder,
)
from .newton import (
    PolygonEdge,
    lower_polygon,
    nu_ratio,
    ramification_data,
    ramification_edge,
    upper_polygon,
)
from .rmatrix import extend_prefix
from .solver import (
    PuiseuxSeries,
    SolutionBasis,
    certificate_order,
    certify,
    polynomial_basis,
    polynomial_solutions_bounded,
    puiseux_basis,
    series_basis,
)
from .rational import (
    DenominatorBound,
    RamifiedRationalFunction,
    RationalFunction,
    TranscendenceVerdict,
    bell_coons_rank,
    bell_coons_test,
    denominator_bound,
    ramified_rational_basis,
    rational_basis,
    transcendence_test,
)
from .normalize import certify_gcrd, gcrd, normalize_l0, split

__version__ = "0.1.0"
