"""Set-system substrate, offline Max k-Cover solvers, and diagnostics."""

from repro.coverage.diagnostics import (
    ContributionProfile,
    classify_regime,
    common_element_profile,
    contribution_profile,
    frequency_levels,
)
from repro.coverage.exact import exact_max_cover, optimal_coverage
from repro.coverage.greedy import (
    GreedyResult,
    array_greedy,
    greedy_max_cover,
    lazy_greedy,
)
from repro.coverage.setsystem import SetSystem

__all__ = [
    "SetSystem",
    "GreedyResult",
    "array_greedy",
    "greedy_max_cover",
    "lazy_greedy",
    "exact_max_cover",
    "optimal_coverage",
    "ContributionProfile",
    "common_element_profile",
    "contribution_profile",
    "frequency_levels",
    "classify_regime",
]
