"""Exact counts of pencils (degree-d covers of the line) on general
curves with fixed and moving total-vanishing conditions.

Everything is exact integer/rational arithmetic: a small two-row
Schubert calculus engine, Laurent-polynomial constant terms, truncated
power series, the genus-1 closed forms and recursions, and the genus-g
degeneration assembly, all cross-checking one another.
"""

from .errors import CrossCheckError, DomainError, IntegralityError
from .exactmath import as_integer, binomial, catalan, syt_count
from .grassmann import (
    SchubertClass,
    fourfold_integral,
    integrate,
    magic_integral,
    mul,
    pieri_mul,
    sigma,
    sigma1_power,
    unit,
    zero,
)
from .laurent import LaurentPolynomial, constant_term, p_poly
from .qseries import (
    TruncatedSeries,
    catalan_power_series,
    n_via_series,
    power_3_2,
    schur_q,
    sqrt_one_minus_4q,
)
from .genus1 import (
    CountReport,
    Genus1Tuple,
    METHODS,
    count,
    count_laurent,
    count_polynomial,
    count_schubert,
    count_series,
    duality_check,
    on_shell_tuples,
    polynomial_branch_values,
    unweighted_from_weighted,
    weighted_count,
    weighted_fixed_first,
    weighted_from_unweighted,
)
from .degeneration import (
    RamificationProblem,
    consolidate_fixed,
    count_with_padding,
    distributions,
    genus_g_count,
    genus_g_weighted,
)

__version__ = "0.1.0"

__all__ = [
    "CrossCheckError",
    "DomainError",
    "IntegralityError",
    "as_integer",
    "binomial",
    "catalan",
    "syt_count",
    "SchubertClass",
    "fourfold_integral",
    "integrate",
    "magic_integral",
    "mul",
    "pieri_mul",
    "sigma",
    "sigma1_power",
    "unit",
    "zero",
    "LaurentPolynomial",
    "constant_term",
    "p_poly",
    "TruncatedSeries",
    "catalan_power_series",
    "n_via_series",
    "power_3_2",
    "schur_q",
    "sqrt_one_minus_4q",
    "CountReport",
    "Genus1Tuple",
    "METHODS",
    "count",
    "count_laurent",
    "count_polynomial",
    "count_schubert",
    "count_series",
    "duality_check",
    "on_shell_tuples",
    "polynomial_branch_values",
    "unweighted_from_weighted",
    "weighted_count",
    "weighted_fixed_first",
    "weighted_from_unweighted",
    "RamificationProblem",
    "consolidate_fixed",
    "count_with_padding",
    "distributions",
    "genus_g_count",
    "genus_g_weighted",
    "PropertyResult",
    "SUITES",
    "run_suite",
    "__version__",
]


def __getattr__(name: str):
    # the verify suites load on first use, keeping them off `import pencils`
    if name in ("PropertyResult", "SUITES", "run_suite"):
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
