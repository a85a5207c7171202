"""Joint consensus modeling of integer scores and top-R partial rankings."""

from .fitting import (
    default_theta_max,
    fit_given_order,
    fit_theta,
    moments,
    objective,
)
from .model import (
    Dataset,
    Parameters,
    SufficientStats,
    compute_stats,
    log_density,
    log_psi,
    order_of,
    psi,
    sample,
)
from .search import FitResult, astar, brute_force, fv, greedy, greedy_local

__version__ = "0.1.0"

__all__ = [
    "Dataset",
    "FitResult",
    "Parameters",
    "SufficientStats",
    "astar",
    "brute_force",
    "compute_stats",
    "default_theta_max",
    "fit_given_order",
    "fit_theta",
    "fv",
    "greedy",
    "greedy_local",
    "log_density",
    "log_psi",
    "moments",
    "objective",
    "order_of",
    "psi",
    "sample",
]
