"""Divisor sets, generalized Feng-Rao distances and Feng-Rao numbers of
numerical semigroups, with closed forms for interval-generated ones."""

from .amenable import (
    Configuration,
    enumerate_amenable,
    is_amenable,
    shadow,
    shadow_representatives,
    smallest_asymptotic_base,
)
from .distances import (
    FengRaoResult,
    brute_force_distance,
    brute_force_distances,
    feng_rao_distance,
    feng_rao_distances,
    feng_rao_number,
)
from .divisors import DivisorSet, divisors, divisors_above, divisors_of_set, nu
from .errors import FengRaoError, InvalidInput, SearchSpaceTooLarge
from .interval import (
    as_interval,
    ceil_sum,
    h_decompose,
    interval_contains,
    interval_extra_divisors,
    interval_feng_rao_number,
    interval_semigroup,
    interval_shadow_divisor_count,
    is_ordered_amenable,
    ordered_amenable_set,
    ordered_shadow_size,
    rho_equality_predicted,
    wagon_pivot,
)
from .semigroup import NumericalSemigroup, from_generators

__all__ = [
    "Configuration",
    "DivisorSet",
    "FengRaoError",
    "FengRaoResult",
    "InvalidInput",
    "NumericalSemigroup",
    "SearchSpaceTooLarge",
    "as_interval",
    "brute_force_distance",
    "brute_force_distances",
    "ceil_sum",
    "divisors",
    "divisors_above",
    "divisors_of_set",
    "enumerate_amenable",
    "feng_rao_distance",
    "feng_rao_distances",
    "feng_rao_number",
    "from_generators",
    "h_decompose",
    "interval_contains",
    "interval_extra_divisors",
    "interval_feng_rao_number",
    "interval_semigroup",
    "interval_shadow_divisor_count",
    "is_amenable",
    "is_ordered_amenable",
    "nu",
    "ordered_amenable_set",
    "ordered_shadow_size",
    "rho_equality_predicted",
    "shadow",
    "shadow_representatives",
    "smallest_asymptotic_base",
    "wagon_pivot",
]
__version__ = "0.1.0"
