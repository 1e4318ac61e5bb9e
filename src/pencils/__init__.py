"""Exact counts of pencils (degree-d covers of the line) on general
curves with fixed and moving total-vanishing conditions.

Everything is exact integer/rational arithmetic: a small two-row
Schubert calculus engine, Laurent-polynomial constant terms, truncated
power series, the genus-1 closed forms and recursions, and the genus-g
degeneration assembly, all cross-checking one another.

The top level holds the counts and the error types; everything else is
imported from the module that defines it (``pencils.grassmann``,
``pencils.verify``, ...).
"""

from .errors import CrossCheckError, DomainError, IntegralityError
# count_laurent is not a count users need here, but perfbench's binding
# test traces it through this namespace as well as through its callers'
from .genus1 import Genus1Tuple, count, count_laurent, weighted_count
from .degeneration import RamificationProblem, genus_g_count

__all__ = [
    "Genus1Tuple",
    "count",
    "weighted_count",
    "RamificationProblem",
    "genus_g_count",
    "count_laurent",
    "DomainError",
    "CrossCheckError",
    "IntegralityError",
]
