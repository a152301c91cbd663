"""Shared utilities: validation, RNG handling, and plotting helpers.

These helpers are deliberately small and dependency-free (NumPy only) so
that every other subpackage can use them without import cycles.
"""

from repro.utils.plotting import ascii_plot
from repro.utils.rng import as_rng, spawn_rngs
from repro.utils.validation import (
    check_labels,
    check_matrix,
    check_positive,
    check_probability,
    check_vector,
)

__all__ = [
    "ascii_plot",
    "as_rng",
    "check_labels",
    "check_matrix",
    "check_positive",
    "check_probability",
    "check_vector",
    "spawn_rngs",
]
